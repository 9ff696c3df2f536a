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
length with a deterministic tie-break, which fixes the enumeration
``phi`` (1-based position in the ball) used by the boundary metrics.
"""

from __future__ import annotations

import string
from functools import lru_cache

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
        cached = self._ball_cache
        if cached and cached[0] >= radius:
            spheres = cached[1]
        else:
            start = cached[0] if cached else 0
            spheres = list(cached[1]) if cached else [[self.identity()]]
            seen = {g for sphere in spheres for g in sphere}
            gens = self.generators()
            for _ in range(start, radius):
                nxt = set()
                for g in spheres[-1]:
                    for s in gens:
                        h = self.multiply(g, s)
                        if h not in seen:
                            nxt.add(h)
                seen |= nxt
                if len(seen) > budget:
                    raise BudgetExceededError(
                        f"ball budget {budget} exceeded at radius {len(spheres)}"
                    )
                spheres.append(sorted(nxt, key=self.sort_key))
            self._ball_cache = (max(radius, start), spheres)
        out = []
        for sphere in spheres[: radius + 1]:
            out.extend(sphere)
        return out

    def phi(self, radius: int) -> dict:
        """1-based enumeration index of each element of ``ball(radius)``."""
        return {g: i + 1 for i, g in enumerate(self.ball(radius))}

    # -- text grammar --------------------------------------------------------

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def spec_string(self) -> str:
        """Round-trippable descriptor text, e.g. ``product(free(2),lattice(1))``."""
        raise NotImplementedError

    # -- misc ----------------------------------------------------------------

    _ball_cache: tuple | None = None

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())


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
        parts = [p.strip() for p in t.split(",") if p.strip()]
        if len(parts) != self.dimension:
            raise ElementParseError(
                f"expected {self.dimension} coordinates in {text!r}"
            )
        try:
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ElementParseError(f"bad lattice element {text!r}") from exc

    def spec_string(self):
        return f"lattice({self.dimension})"


class FreeGroup(GroupDescriptor):
    """F_s on letters a_1..a_s; generator order a_1, a_1^-1, a_2, a_2^-1, ...

    Text form: lowercase letters are generators, uppercase their inverses
    (``aB`` = a_1 a_2^-1); ``e`` is the identity.  ``*`` separators and
    whitespace are accepted on input; non-reduced input is normalized.
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
        t = text.replace("*", "").replace(" ", "")
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
        if not self._base.contains(pos) or not isinstance(lamps, tuple):
            return False
        if list(lamps) != sorted(set(lamps)):
            return False
        return all(self._base.contains(p) for p in lamps)

    def sort_key(self, a):
        pos, lamps = a
        return (
            _lattice_key(pos),
            len(lamps),
            tuple(_lattice_key(p) for p in lamps),
        )

    def word_length(self, a, max_radius=DEFAULT_BFS_RADIUS):
        """BFS distance; raises RadiusExhaustedError past ``max_radius``."""
        self.check(a)
        if a == self.identity():
            return 0
        gens = self.generators()
        seen = {self.identity()}
        frontier = [self.identity()]
        for r in range(1, max_radius + 1):
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.multiply(g, s)
                    if h not in seen:
                        if h == a:
                            return r
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
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
        body = t[1:-1]
        # split at the top-level comma preceding the lamp braces
        depth = 0
        split = -1
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "{" and depth == 0:
                split = body.rfind(",", 0, i)
                break
        if split < 0 or not body.endswith("}"):
            raise ElementParseError(f"bad lamplighter element {text!r}")
        pos = self._base.parse(body[:split])
        lamp_body = body[split + 1 :].strip()[1:-1]
        lamps = []
        if lamp_body.strip():
            depth = 0
            token = []
            for ch in lamp_body + ",":
                if ch == "," and depth == 0:
                    lamps.append(self._base.parse("".join(token)))
                    token = []
                else:
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                    token.append(ch)
        if len(set(lamps)) != len(lamps):
            raise ElementParseError(f"duplicate lamp in {text!r}")
        return (pos, tuple(sorted(lamps)))

    def spec_string(self):
        return f"lamplighter({self.dimension})"


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
        body = t[1:-1]
        depth = 0
        split = -1
        for i, ch in enumerate(body):
            if ch in "({":
                depth += 1
            elif ch in ")}":
                depth -= 1
            elif ch == "|" and depth == 0:
                split = i
                break
        if split < 0:
            raise ElementParseError(f"missing '|' in product element {text!r}")
        return (
            self.left.parse(body[:split]),
            self.right.parse(body[split + 1 :]),
        )

    def spec_string(self):
        return f"product({self.left.spec_string()},{self.right.spec_string()})"


@lru_cache(maxsize=None)
def descriptor_from_string(spec: str) -> GroupDescriptor:
    """Parse a descriptor spec like ``free(2)`` or ``product(free(2),lattice(1))``."""
    s = spec.strip()
    head, sep, rest = s.partition("(")
    if not sep or not rest.endswith(")"):
        raise ElementParseError(f"bad descriptor {spec!r}")
    args = rest[:-1]
    head = head.strip()
    if head in ("lattice", "free", "lamplighter"):
        try:
            n = int(args)
        except ValueError as exc:
            raise ElementParseError(f"bad descriptor argument in {spec!r}") from exc
        if head == "lattice":
            return LatticeGroup(n)
        if head == "free":
            return FreeGroup(n)
        return LamplighterGroup(n)
    if head == "product":
        depth = 0
        split = -1
        for i, ch in enumerate(args):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split = i
                break
        if split < 0:
            raise ElementParseError(f"product descriptor needs two factors: {spec!r}")
        return ProductGroup(
            descriptor_from_string(args[:split]),
            descriptor_from_string(args[split + 1 :]),
        )
    raise ElementParseError(f"unknown group family in {spec!r}")
