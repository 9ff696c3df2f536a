"""Canonical arithmetic, enumeration and text forms for the supported groups.

Four families are implemented: integer lattices Z^d, free groups F_s,
lamplighter groups over Z^d, and Cartesian products of two families.
Elements are plain hashable Python values in a unique canonical form:

* lattice:      tuple of ``d`` ints, e.g. ``(1, -2)``
* free:         tuple of nonzero ints, letter ``+i`` = a_i, ``-i`` = a_i^-1,
                freely reduced (no adjacent cancelling pair)
* lamplighter:  ``(position, lamps)`` with ``position`` a lattice tuple and
                ``lamps`` a sorted tuple of lit lattice positions
* product:      pair ``(left_element, right_element)``

Because elements are immutable values, all operations here are pure and
safe to share across concurrent tasks.  Ball enumeration is BFS by word
length with a deterministic tie-break, which fixes the enumeration phi
(the 1-based position in ``ball``) that ``ratiolimit.ratio_metric``
weights by.

Every parser of the text grammar (elements, descriptors and the config's
element lists) splits its text with ``_split_top``, the single nesting rule:
``()`` and ``{}`` nest and must balance, and a separator splits only outside
them.  Every integer in the grammar (lattice coordinates, descriptor
arguments, the config's integer keys) is read by ``_parse_int``: ASCII
digits with an optional sign, nothing else.

Besides the text grammar, each family has an array codec for whole element
lists (``encode_elements``/``decode_elements``), which the cache artifacts
use:

* lattice:      ``coords`` (n, d)
* free:         ``lengths`` (n,) and the concatenated ``letters``
* lamplighter:  ``pos`` (n, d), lamp ``counts`` (n,) and the concatenated
                ``lamps`` (sum of counts, d)
* product:      the factors' arrays under ``left.`` and ``right.`` keys

``codec_runs`` names the concatenated arrays and the per-element counts
that split them into runs (free ``letters`` by ``lengths``, lamplighter
``lamps`` by ``counts``); ``take_encoded`` gathers a subset of a batch in
any order.  ``check_encoded`` checks canonical form with vectorized checks
and raises ElementParseError for arrays that do not name canonical
elements; ``decode_elements`` is that check plus building the tuples.

``mul_encoded(arrays, s)`` is the group law on arrays: every element of a
batch times one fixed canonical element ``s`` on the right, equal array for
array to encoding the ``_mul`` products:

* lattice:      ``coords + s``
* free:         cancel ``s``'s prefix against each word's suffix, then
                append the rest of ``s``
* lamplighter:  ``pos + y`` for ``s = (y, u)``; the lamps are
                ``w`` (symmetric difference) ``u + pos``, one lexsort by
                owner then lamp that drops equal adjacent pairs
* product:      each factor's law on its ``left.``/``right.`` arrays

The generic convolution-power engine keeps its element table as these
arrays, each in the narrowest integer dtype that holds it, so
``check_encoded`` takes arrays of any integer width and gives the verdict
of their int64 form (it compares values and sums counts in int64); the
engine gathers a frontier as int64 and steps it per support element with
``mul_encoded``; ``ball``, ``measures.convolve`` and the other
per-element callers use ``multiply``/``_mul``.
"""

from __future__ import annotations

import operator
import re
import string
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .errors import (
    BudgetExceededError,
    DescriptorMismatchError,
    ElementParseError,
    RadiusExhaustedError,
)

DEFAULT_BFS_RADIUS = 16
DEFAULT_BALL_BUDGET = 5_000_000


class GroupDescriptor:
    """Base class: group law, enumeration and the element text grammar."""

    family = "abstract"

    # -- group law ---------------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        """Group law on checked operands; see ``_mul`` for the unchecked one."""
        self.check(a, b)
        return self._mul(a, b)

    def _mul(self, a, b):
        """Group law on canonical elements, without checking them."""
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self) -> tuple:
        """Standard symmetric generating set in the fixed generator order."""
        raise NotImplementedError

    def contains(self, a) -> bool:
        """Cheap structural check that ``a`` is a canonical element."""
        raise NotImplementedError

    def check(self, *elements):
        for a in elements:
            if not self.contains(a):
                raise DescriptorMismatchError(
                    f"{a!r} is not an element of {self.spec_string()}"
                )

    # -- metric and enumeration --------------------------------------------

    def sort_key(self, a):
        """Deterministic total order on canonical forms (ball tie-break)."""
        raise NotImplementedError

    def word_length(self, a, max_radius: int = DEFAULT_BFS_RADIUS) -> int:
        """Distance to the identity in the standard symmetric generators.

        Lattice and free lengths are closed-form; lamplighter falls back to
        BFS within ``max_radius`` and raises RadiusExhaustedError beyond it.
        """
        raise NotImplementedError

    def ball(self, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> list:
        """Elements of word length <= radius, in the canonical BFS order.

        The order is by word length, ties broken by ``sort_key``; the first
        element is the identity and ``ball(r)`` is a prefix of ``ball(r+1)``.
        """
        out = []
        for sphere in self._spheres(radius, budget)[0][: radius + 1]:
            out.extend(sphere)
        return out

    def _spheres(self, radius: int, budget: int = DEFAULT_BALL_BUDGET):
        """The memoized BFS: the spheres of radius 0..radius (at least) and
        the word length of every element in them.  Each new sphere costs
        one product per element of the last sphere and generator."""
        if self._ball_cache is None:
            e = self.identity()
            self._ball_cache = ([[e]], {e: 0})
        spheres, lengths = self._ball_cache
        gens = self.generators()
        while len(spheres) <= radius:
            nxt = set()
            for g in spheres[-1]:
                for s in gens:
                    h = self.multiply(g, s)
                    if h not in lengths:
                        nxt.add(h)
            if len(lengths) + len(nxt) > budget:
                raise BudgetExceededError(
                    f"ball budget {budget} exceeded at radius {len(spheres)}"
                )
            lengths.update(dict.fromkeys(nxt, len(spheres)))
            spheres.append(sorted(nxt, key=self.sort_key))
        return spheres, lengths

    # -- text grammar --------------------------------------------------------

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def spec_string(self) -> str:
        """Round-trippable descriptor text, e.g. ``product(free(2),lattice(1))``."""
        raise NotImplementedError

    # -- array codec ---------------------------------------------------------

    def encode_elements(self, elems) -> dict:
        """Canonical elements as named integer arrays (see the module
        docstring for each family's arrays)."""
        raise NotImplementedError

    def decode_elements(self, arrays) -> list:
        """The elements of ``encode_elements`` arrays, as tuples of Python
        ints; ElementParseError when the arrays do not name canonical
        elements."""
        raise NotImplementedError

    def check_encoded(self, arrays) -> int:
        """The number of elements ``encode_elements`` arrays hold;
        ElementParseError when they do not name canonical elements."""
        raise NotImplementedError

    def codec_runs(self) -> dict:
        """{key of a concatenated array: key of the per-element counts that
        split it into one run per element}; the other arrays hold one row
        per element."""
        return {}

    def take_encoded(self, arrays, idx) -> dict:
        """The arrays of the elements at positions ``idx``, in that order."""
        runs = self.codec_runs()
        out = {key: arr[idx] for key, arr in arrays.items() if key not in runs}
        for key, counts_key in runs.items():
            counts = arrays[counts_key]
            starts = np.cumsum(counts) - counts
            out[key] = arrays[key][_ranges(starts[idx], counts[idx])]
        return out

    def mul_encoded(self, arrays, s) -> dict:
        """The arrays of every element of the batch ``arrays`` times the
        canonical element ``s`` on the right: ``_mul`` on a whole batch,
        unchecked."""
        raise NotImplementedError

    # -- misc ----------------------------------------------------------------

    _ball_cache: tuple | None = None

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())


def _int_array(arrays, key, ndim):
    """``arrays[key]`` as an integer array of ``ndim`` dimensions."""
    arr = np.asarray(arrays[key])
    if arr.dtype.kind != "i" or arr.ndim != ndim:
        raise ElementParseError(f"element array {key!r} is not a {ndim}-d integer array")
    return arr


def _check_counts(counts, total, what):
    if np.any(counts < 0) or int(counts.sum(dtype=np.int64)) != total:
        raise ElementParseError(f"{what} are not counts summing to {total}")


def _inside(counts, pairs):
    """``pairs`` holds one flag per consecutive pair of a concatenation of
    runs of the given lengths; clear the flags of pairs that straddle two
    runs."""
    ends = np.cumsum(counts, dtype=np.int64)[:-1]
    pairs[ends[(ends > 0) & (ends <= len(pairs))] - 1] = False
    return pairs


def _rows_increase(rows):
    """One flag per consecutive pair of rows of an (n, d) array: is the
    first row lexicographically smaller (Python tuple order)?"""
    a, b = rows[:-1], rows[1:]
    less = np.zeros(len(a), dtype=bool)
    for c in reversed(range(rows.shape[1])):
        less = (a[:, c] < b[:, c]) | ((a[:, c] == b[:, c]) & less)
    return less


def _row_tuples(rows):
    """The rows of an (n, d) integer array as tuples of Python ints; equal
    rows share one tuple."""
    if not len(rows):
        return []
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    which = np.empty(len(rows), dtype=np.int64)
    which[order] = np.cumsum(first) - 1
    table = [tuple(r) for r in ranked[first].tolist()]
    return list(map(table.__getitem__, which.tolist()))


# positions ``_ranges`` adds per numpy call: bounds its one temporary
_RANGE_BLOCK = 1 << 13


def _ranges(starts, counts):
    """The concatenated index ranges ``starts[i] .. starts[i] + counts[i] - 1``
    as one int64 array, filled in place: each run's start less the position
    of its first entry, repeated over the run, plus every entry's position,
    added ``_RANGE_BLOCK`` positions at a time."""
    heads = np.cumsum(counts, dtype=np.int64)
    heads -= counts
    out = np.repeat(np.subtract(starts, heads, dtype=np.int64), counts)
    for lo in range(0, len(out), _RANGE_BLOCK):
        block = out[lo:lo + _RANGE_BLOCK]
        block += np.arange(lo, lo + len(block))
    return out


def _runs(items, counts):
    """Consecutive runs of ``items`` with the given lengths, as tuples."""
    it = iter(items)
    return [tuple(islice(it, n)) for n in counts.tolist()]


def _split_top(text: str, sep: str | None = None) -> list:
    """``text`` split at every ``sep`` outside ``()`` and ``{}``; with
    ``sep=None``, split at top-level runs of whitespace and drop the empty
    parts.  The parts are not stripped.  ElementParseError on unbalanced
    brackets."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                break
        elif depth == 0 and (ch.isspace() if sep is None else ch == sep):
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise ElementParseError(f"unbalanced brackets in {text!r}")
    parts.append(text[start:])
    return [p for p in parts if p] if sep is None else parts


_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _parse_int(text: str) -> int:
    """An optionally signed run of ASCII digits, with surrounding
    whitespace; ElementParseError on anything else (digit-group
    underscores, non-ASCII digits), which Python's ``int`` would take."""
    if not _ASCII_INT.fullmatch(text):
        raise ElementParseError(f"bad integer {text!r}")
    return int(text)


def _lattice_key(v):
    # orders 0 < 1 < -1 < 2 < -2 < ... coordinatewise
    return tuple((abs(c), 0 if c >= 0 else 1) for c in v)


class LatticeGroup(GroupDescriptor):
    """Z^d with generators +e_1, -e_1, ..., +e_d, -e_d."""

    family = "lattice"

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("lattice dimension must be >= 1")
        self.dimension = dimension

    def identity(self):
        return (0,) * self.dimension

    def _mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        self.check(a)
        return tuple(-x for x in a)

    def generators(self):
        gens = []
        for i in range(self.dimension):
            e = [0] * self.dimension
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return tuple(gens)

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == self.dimension
            and all(isinstance(c, int) for c in a)
        )

    def sort_key(self, a):
        return _lattice_key(a)

    def word_length(self, a, max_radius=DEFAULT_BFS_RADIUS):
        self.check(a)
        return sum(abs(c) for c in a)

    def format(self, a):
        return "(" + ",".join(str(c) for c in a) + ")"

    def parse(self, text):
        t = text.strip()
        if t.startswith("(") and t.endswith(")"):
            t = t[1:-1]
        parts = _split_top(t, ",")
        if len(parts) != self.dimension:
            raise ElementParseError(
                f"expected {self.dimension} coordinates in {text!r}"
            )
        try:
            return tuple(_parse_int(p) for p in parts)
        except ElementParseError as exc:
            raise ElementParseError(f"bad lattice element {text!r}") from exc

    def spec_string(self):
        return f"lattice({self.dimension})"

    def encode_elements(self, elems):
        coords = np.array(elems, dtype=np.int64).reshape(len(elems), self.dimension)
        return {"coords": coords}

    def check_encoded(self, arrays):
        coords = _int_array(arrays, "coords", 2)
        if coords.shape[1] != self.dimension:
            raise ElementParseError(
                f"lattice coords have {coords.shape[1]} columns, "
                f"expected {self.dimension}"
            )
        return len(coords)

    def decode_elements(self, arrays):
        self.check_encoded(arrays)
        return _row_tuples(np.asarray(arrays["coords"]))

    def mul_encoded(self, arrays, s):
        coords = arrays["coords"]
        return {"coords": coords + np.array(s, dtype=coords.dtype)}


class FreeGroup(GroupDescriptor):
    """F_s on letters a_1..a_s; generator order a_1, a_1^-1, a_2, a_2^-1, ...

    Text form: lowercase letters are generators, uppercase their inverses
    (``aB`` = a_1 a_2^-1); ``e`` is the identity.  ``*`` separators are
    accepted on input, with whitespace around the word or a ``*``, but
    whitespace never joins two letters; non-reduced input is normalized.
    """

    family = "free"

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("free rank must be >= 1")
        if rank > 26:
            raise ValueError("free rank is limited to 26 by the letter grammar")
        self.rank = rank

    def identity(self):
        return ()

    def _mul(self, a, b):
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inverse(self, a):
        self.check(a)
        return tuple(-x for x in reversed(a))

    def generators(self):
        gens = []
        for i in range(1, self.rank + 1):
            gens.append((i,))
            gens.append((-i,))
        return tuple(gens)

    def contains(self, a):
        if not isinstance(a, tuple):
            return False
        for x, y in zip(a, a[1:]):
            if x == -y:
                return False
        return all(isinstance(x, int) and 0 < abs(x) <= self.rank for x in a)

    def sort_key(self, a):
        # letter rank: a_i before a_i^-1, letters in index order
        return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1) for x in a)

    def word_length(self, a, max_radius=DEFAULT_BFS_RADIUS):
        self.check(a)
        return len(a)

    def format(self, a):
        if not a:
            return "e"
        return "".join(
            string.ascii_lowercase[x - 1] if x > 0 else string.ascii_uppercase[-x - 1]
            for x in a
        )

    def parse(self, text):
        t = "".join(part.strip() for part in text.split("*"))
        if t in ("", "e"):
            return ()
        word = []
        for ch in t:
            if ch in string.ascii_lowercase:
                letter = ord(ch) - ord("a") + 1
            elif ch in string.ascii_uppercase:
                letter = -(ord(ch) - ord("A") + 1)
            else:
                raise ElementParseError(f"bad letter {ch!r} in {text!r}")
            if abs(letter) > self.rank:
                raise ElementParseError(
                    f"letter {ch!r} outside rank-{self.rank} alphabet"
                )
            # normalize as we go, so inputs like "aA" collapse to e
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def spec_string(self):
        return f"free({self.rank})"

    def encode_elements(self, elems):
        return {
            "lengths": np.fromiter(map(len, elems), dtype=np.int64, count=len(elems)),
            "letters": np.fromiter(chain.from_iterable(elems), dtype=np.int64),
        }

    def check_encoded(self, arrays):
        lengths = _int_array(arrays, "lengths", 1)
        letters = _int_array(arrays, "letters", 1)
        _check_counts(lengths, len(letters), "free word lengths")
        if np.any((letters == 0) | (letters < -self.rank) | (letters > self.rank)):
            raise ElementParseError(
                f"free letters outside the rank-{self.rank} alphabet"
            )
        # the letters lie in the alphabet, so negating them overflows no
        # dtype, not even the int8 of an imported table
        if np.any(_inside(lengths, letters[1:] == -letters[:-1])):
            raise ElementParseError("a free word is not reduced")
        return len(lengths)

    def decode_elements(self, arrays):
        self.check_encoded(arrays)
        return _runs(np.asarray(arrays["letters"]).tolist(),
                     np.asarray(arrays["lengths"]))

    def codec_runs(self):
        return {"letters": "lengths"}

    def mul_encoded(self, arrays, s):
        lengths, letters = arrays["lengths"], arrays["letters"]
        ends = np.cumsum(lengths)
        # cut[i]: how many of s's first letters cancel word i's last ones
        cut = np.zeros(len(lengths), dtype=lengths.dtype)
        live = np.ones(len(lengths), dtype=bool)
        for t, x in enumerate(s):
            live &= lengths > t
            live[live] = letters[ends[live] - 1 - t] == -x
            cut += live
        keep = lengths - cut
        rest = len(s) - cut
        out_lengths = keep + rest
        starts = np.cumsum(out_lengths) - out_lengths
        out = np.empty(int(out_lengths.sum()), dtype=letters.dtype)
        out[_ranges(starts, keep)] = letters[_ranges(ends - lengths, keep)]
        out[_ranges(starts + keep, rest)] = np.array(s, dtype=letters.dtype)[
            _ranges(cut, rest)]
        return {"lengths": out_lengths, "letters": out}


class LamplighterGroup(GroupDescriptor):
    """Wreath product (sum of Z_2 copies) over Z^d.

    Element ``(x, w)``: walker position ``x`` in Z^d, ``w`` the sorted tuple
    of lit lamp positions.  Multiplication translates the right factor's
    lamps by ``x`` and takes the symmetric difference.  Generators are the
    lattice moves followed by the lamp toggle at the origin.
    """

    family = "lamplighter"

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("lamplighter base dimension must be >= 1")
        self.dimension = dimension
        self._base = LatticeGroup(dimension)

    def identity(self):
        return (self._base.identity(), ())

    def _mul(self, a, b):
        (x, w), (y, u) = a, b
        pos = tuple(p + q for p, q in zip(x, y))
        if not u:
            return (pos, w)
        shifted = {tuple(p + q for p, q in zip(lamp, x)) for lamp in u}
        lamps = set(w) ^ shifted
        return (pos, tuple(sorted(lamps)))

    def inverse(self, a):
        self.check(a)
        x, w = a
        neg = tuple(-c for c in x)
        lamps = tuple(
            sorted(tuple(p + q for p, q in zip(lamp, neg)) for lamp in w)
        )
        return (neg, lamps)

    def generators(self):
        moves = [(g, ()) for g in self._base.generators()]
        toggle = (self._base.identity(), (self._base.identity(),))
        return tuple(moves + [toggle])

    def contains(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        pos, lamps = a
        base = self._base
        return (
            base.contains(pos)
            and isinstance(lamps, tuple)
            and all(map(base.contains, lamps))
            and all(map(operator.lt, lamps, lamps[1:]))
        )

    def sort_key(self, a):
        pos, lamps = a
        return (
            _lattice_key(pos),
            len(lamps),
            tuple(_lattice_key(p) for p in lamps),
        )

    def word_length(self, a, max_radius=DEFAULT_BFS_RADIUS):
        """BFS distance, read from the memoized spheres of ``ball``; raises
        RadiusExhaustedError past ``max_radius``."""
        self.check(a)
        for r in range(max_radius + 1):
            length = self._spheres(r)[1].get(a)
            if length is not None:
                if length <= max_radius:
                    return length
                break
        raise RadiusExhaustedError(
            f"word length of {self.format(a)} exceeds BFS radius {max_radius}"
        )

    def _format_vec(self, v):
        if self.dimension == 1:
            return str(v[0])
        return self._base.format(v)

    def format(self, a):
        pos, lamps = a
        inner = ",".join(self._format_vec(p) for p in lamps)
        return f"({self._format_vec(pos)},{{{inner}}})"

    def parse(self, text):
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise ElementParseError(f"bad lamplighter element {text!r}")
        # the last top-level part is the lamp set, the rest the position
        *pos, lamp_set = _split_top(t[1:-1], ",")
        lamp_set = lamp_set.strip()
        if not (pos and lamp_set.startswith("{") and lamp_set.endswith("}")):
            raise ElementParseError(f"bad lamplighter element {text!r}")
        lamp_body = lamp_set[1:-1]
        lamps = ([self._base.parse(p) for p in _split_top(lamp_body, ",")]
                 if lamp_body.strip() else [])
        if len(set(lamps)) != len(lamps):
            raise ElementParseError(f"duplicate lamp in {text!r}")
        return (self._base.parse(",".join(pos)), tuple(sorted(lamps)))

    def spec_string(self):
        return f"lamplighter({self.dimension})"

    def encode_elements(self, elems):
        encode = self._base.encode_elements
        return {
            "pos": encode([x for x, _ in elems])["coords"],
            "counts": np.fromiter((len(w) for _, w in elems), dtype=np.int64,
                                  count=len(elems)),
            "lamps": encode(list(chain.from_iterable(w for _, w in elems)))["coords"],
        }

    def check_encoded(self, arrays):
        check = self._base.check_encoded
        n = check({"coords": arrays["pos"]})
        counts = _int_array(arrays, "counts", 1)
        if len(counts) != n:
            raise ElementParseError(
                f"{len(counts)} lamp counts for {n} lamplighter positions"
            )
        lamps = _int_array(arrays, "lamps", 2)
        _check_counts(counts, len(lamps), "lamp counts")
        if np.any(_inside(counts, ~_rows_increase(lamps))):
            raise ElementParseError("lamps are not strictly increasing")
        check({"coords": lamps})
        return n

    def decode_elements(self, arrays):
        self.check_encoded(arrays)
        pos = _row_tuples(np.asarray(arrays["pos"]))
        lamps = _row_tuples(np.asarray(arrays["lamps"]))
        # equal lamp sets share one tuple, as positions and lamps already do
        canon: dict = {}
        return [
            (x, canon.setdefault(w, w))
            for x, w in zip(pos, _runs(lamps, np.asarray(arrays["counts"])))
        ]

    def codec_runs(self):
        return {"lamps": "counts"}

    def mul_encoded(self, arrays, s):
        y, u = s
        pos, counts, lamps = arrays["pos"], arrays["counts"], arrays["lamps"]
        out_pos = pos + np.array(y, dtype=pos.dtype)
        if not u:
            return {"pos": out_pos, "counts": counts, "lamps": lamps}
        n = len(pos)
        shifted = np.array(u, dtype=lamps.dtype)[None, :, :] + pos[:, None, :]
        both = np.concatenate([lamps, shifted.reshape(-1, self.dimension)])
        owner = np.concatenate([np.repeat(np.arange(n), counts),
                                np.repeat(np.arange(n), len(u))])
        order = np.lexsort((*both.T[::-1], owner))
        owner, both = owner[order], both[order]
        # a lamp lit in w and in u + pos appears twice: drop both copies
        twice = (owner[1:] == owner[:-1]) & np.all(both[1:] == both[:-1], axis=1)
        keep = np.ones(len(owner), dtype=bool)
        keep[:-1] &= ~twice
        keep[1:] &= ~twice
        return {"pos": out_pos, "counts": np.bincount(owner[keep], minlength=n),
                "lamps": both[keep]}


class ProductGroup(GroupDescriptor):
    """Cartesian product; elements are pairs, no flattening of nesting.

    Word length is the sum of component lengths (the generating set is the
    union of the factors' generators acting on their own coordinate).
    Text form: ``(left|right)``.
    """

    family = "product"
    MAX_NESTING = 4

    def __init__(self, left: GroupDescriptor, right: GroupDescriptor):
        def depth(d):
            if isinstance(d, ProductGroup):
                return 1 + max(depth(d.left), depth(d.right))
            return 0

        self.left = left
        self.right = right
        if depth(self) > self.MAX_NESTING:
            raise ValueError(f"product nesting deeper than {self.MAX_NESTING}")

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def _mul(self, a, b):
        return (
            self.left._mul(a[0], b[0]),
            self.right._mul(a[1], b[1]),
        )

    def inverse(self, a):
        self.check(a)
        return (self.left.inverse(a[0]), self.right.inverse(a[1]))

    def generators(self):
        el = self.left.identity()
        er = self.right.identity()
        gens = [(g, er) for g in self.left.generators()]
        gens += [(el, g) for g in self.right.generators()]
        return tuple(gens)

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and self.left.contains(a[0])
            and self.right.contains(a[1])
        )

    def sort_key(self, a):
        return (self.left.sort_key(a[0]), self.right.sort_key(a[1]))

    def word_length(self, a, max_radius=DEFAULT_BFS_RADIUS):
        self.check(a)
        return self.left.word_length(a[0], max_radius) + self.right.word_length(
            a[1], max_radius
        )

    def format(self, a):
        return f"({self.left.format(a[0])}|{self.right.format(a[1])})"

    def parse(self, text):
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise ElementParseError(f"bad product element {text!r}")
        parts = _split_top(t[1:-1], "|")
        if len(parts) != 2:
            raise ElementParseError(f"expected one top-level '|' in product element {text!r}")
        return (self.left.parse(parts[0]), self.right.parse(parts[1]))

    def spec_string(self):
        return f"product({self.left.spec_string()},{self.right.spec_string()})"

    def encode_elements(self, elems):
        return _prefixed({
            "left": self.left.encode_elements([g[0] for g in elems]),
            "right": self.right.encode_elements([g[1] for g in elems]),
        })

    def check_encoded(self, arrays):
        n_left = self.left.check_encoded(_factor_arrays(arrays, "left"))
        n_right = self.right.check_encoded(_factor_arrays(arrays, "right"))
        if n_left != n_right:
            raise ElementParseError(
                f"product factors hold {n_left} and {n_right} elements"
            )
        return n_left

    def decode_elements(self, arrays):
        left = self.left.decode_elements(_factor_arrays(arrays, "left"))
        right = self.right.decode_elements(_factor_arrays(arrays, "right"))
        if len(left) != len(right):
            raise ElementParseError(
                f"product factors hold {len(left)} and {len(right)} elements"
            )
        return list(zip(left, right))

    def codec_runs(self):
        return {f"{side}.{key}": f"{side}.{counts}"
                for side, factor in (("left", self.left), ("right", self.right))
                for key, counts in factor.codec_runs().items()}

    def mul_encoded(self, arrays, s):
        return _prefixed({
            "left": self.left.mul_encoded(_factor_arrays(arrays, "left"), s[0]),
            "right": self.right.mul_encoded(_factor_arrays(arrays, "right"), s[1]),
        })


def _prefixed(by_side):
    """The factors' arrays under ``left.`` and ``right.`` keys."""
    return {f"{side}.{key}": arr for side, arrays in by_side.items()
            for key, arr in arrays.items()}


def _factor_arrays(arrays, side):
    """A product factor's arrays: those under ``side + "."``, unprefixed."""
    prefix = side + "."
    return {key[len(prefix):]: arr for key, arr in arrays.items()
            if key.startswith(prefix)}


_FAMILIES = {"lattice": LatticeGroup, "free": FreeGroup, "lamplighter": LamplighterGroup}


@lru_cache(maxsize=None)
def descriptor_from_string(spec: str) -> GroupDescriptor:
    """Parse a descriptor spec like ``free(2)`` or ``product(free(2),lattice(1))``."""
    head, sep, rest = spec.strip().partition("(")
    if not sep or not rest.endswith(")"):
        raise ElementParseError(f"bad descriptor {spec!r}")
    args = _split_top(rest[:-1], ",")
    head = head.strip()
    if head == "product":
        if len(args) != 2:
            raise ElementParseError(f"product descriptor needs two factors: {spec!r}")
        left, right = map(descriptor_from_string, args)
    elif head not in _FAMILIES:
        raise ElementParseError(f"unknown group family in {spec!r}")
    # a constructor's ValueError (free(0), nesting too deep) is bad text too
    try:
        if head == "product":
            return ProductGroup(left, right)
        (arg,) = args
        return _FAMILIES[head](_parse_int(arg))
    except ValueError as exc:
        raise ElementParseError(f"bad descriptor argument in {spec!r}: {exc}") from exc
