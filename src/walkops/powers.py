"""Convolution-power caches: every level of mu^{*m} for m = 0..M.

Iterative powering (never binary) so that ratio sequences can read every
level.  Three engines share one query interface:

* array          ``ArrayPowers``: each level is one plain array indexed
                 from its corner ``lo``.  ``radial`` (isotropic free-group
                 walks): a 1-d array over tree radii, O(m) per level,
                 stepped by the radial tree move.  ``dense`` (lattice walks
                 on Z^d): a d-dim array over the lattice box the walk can
                 reach, stepped by shifted adds
* ``radial-lattice``  Cartesian walks mu = p·(mu_F x δ) + q·(δ x mu_Z) on
                 F_s x Z^d with an isotropic tree factor.  No product
                 level is stored: the cache holds a ``radial`` cache of
                 mu_F and a ``dense`` cache of mu_Z, and an entry is the
                 binomial mix mu^{*m}(w, v) = Σ_k C(m,k) p^k q^(m-k)
                 mu_F^{*k}(w) mu_Z^{*(m-k)}(v), summed in log space
* ``generic``    anything else: a table of the descriptor's element
                 arrays, each in the narrowest integer dtype that holds it,
                 with an exact hash index; gathers from it cost O(batch),
                 widened to int64 for the group law; the frontier is
                 interned in blocks of 2^13 sources, one ``mul_encoded``
                 batch per support element per block, narrowed as it is
                 made, and a lookup gathers and compares 2^13 candidates
                 at a time; scatter-add over int32 ids, 2^13 level rows at
                 a time

An entry of mu^{*m} "exists" exactly when it is present/positive in the
level storage; zeros are never stored.  Each level keeps mantissas with a
shared log scale, so entry ratios within a level are exact float
quotients.  A product reads every level of both factors.

Every level stays queryable everywhere.  Every array cache keeps each
level clipped to a box around the origin (the radii below 32; a lattice
box of half-width 8) and every level's log scale, and a column outside
the box replays the build bit for bit, into a wider box while that block
fits ``_BLOCK_BUDGET`` (512 MiB), else keeping only the column.  Full
levels and level masses come from one forward replay cursor.  A product
keeps the boxes of its two factors.

The first ``level_mass`` call computes every level's mass in one
ascending pass and memoizes them: a radial level's ``log_radial_mass``
over its radii, a dense level's array sum, a generic level's ``fsum``
over its stored values, each under the level's log scale.  A product's
level mass is the binomial mix of its factors'.

``log_column(g)`` is the whole history of one entry: log mu^{*m}(g) for
m = 0..depth as a read-only float array, -inf where the entry is absent.
The cache memoizes one column per key, built on first request, and
``log_value(m, g)`` reads entry m of that column, so the two agree bit for
bit on every engine; both raise DescriptorMismatchError unless g is an
element of the cache's group.  The key is what the entry depends on in
each engine: the array index on the array engine (``(len(g),)`` for a
free-group walk, so a ratio sequence there depends only on |x^-1 y| and
|y|, and the lattice point ``g`` itself for a lattice walk), the pair of
its factors' keys on a product, whose factors memoize their own columns,
and the element itself on ``generic`` (one ``searchsorted`` per level).
``transition_column(x, y)`` is the column of x^-1 y, log P^(m)_{x,y} for
every m, under the key ``transition_key(x, y)``, and ``log_transition(m,
x, y)`` is its entry m; it checks x (by ``inverse``) and y once each and
forms x^-1 y with the unchecked group law.  Ratio sequences, kernel and
Martin tables, Green sums and the Fock window read transitions only
through it; bound constants and return ratios read ``log_column``.  The
period of the walk is read once per cache from the identity's column
(``aperiodicity``), which is where ``measures.validate_measure`` reads it.

``export_cache_json`` writes a version-7 JSON artifact: a header
(descriptor, measure, depth, engine, complete, budget_note) and a
``payload``.

* array and ``radial-lattice``: the payload is empty, the artifact is
                 the cache's recipe.  Its levels (a product's factor
                 levels) are a deterministic function of (descriptor,
                 measure, depth), and rebuilding them costs about what
                 reading them would, so ``import_cache_json`` runs one
                 ``convolution_powers`` build and returns the cache bit
                 for bit
* ``generic``    the payload holds the levels as packed arrays (``_pack``:
                 dtype, shape and the base64 of one zlib stream, level 1,
                 of the little-endian bytes; integers in the narrowest of
                 8/16/32/64 bits that holds them, the width the element
                 table keeps them in, also after import; floats as
                 ``<f8``, so every bit survives):
                 the element table as the descriptor's ``encode_elements``
                 arrays (elements in id order), per-level ``sizes`` and
                 ``log_scales``, one ``ids`` array holding each level's
                 sorted ids as deltas from the previous id (the first from
                 -1, so a lazy walk's levels are runs of 1s) and one
                 ``vals`` array

The text is ``json.dumps(doc, sort_keys=True)`` of the header and the
``_pack``'ed arrays; import decodes each field with
``base64.b64decode(validate=True)`` and inflates at most one byte more
than its shape needs.  A level's mantissas repeat heavily,
so the depth-18 lamplighter(1) artifact of the benchmark is 680,417 B
(3,367,429 B as version 6's raw base64).  Its bytes are deterministic for
one zlib build; another zlib may deflate differently, and every zlib
inflates every artifact to the same arrays.

``import_cache_json`` rejects any other version and any malformed artifact
with ValueError: an array artifact with a non-empty payload, one that is
not ``complete`` or has a budget note (an array build always completes),
a depth that is not a non-negative integer or an engine name that does
not serve the descriptor's walks; on ``generic``, a packed array whose
data is not base64 (a character outside the alphabet, or not ASCII), is
not one zlib stream (version 6's raw bytes), is truncated, has bytes
after its stream's end or does not inflate to exactly its shape, or whose
dtype is not one of the five; element arrays that fail the descriptor's
``check_encoded``, repeat an element or do not hold the identity at id 0
(the generic import builds no element tuples); id deltas below 1 or above
the table size, or a level whose deltas sum past the table size (its ids
would not rise strictly inside the table); stored values that are not
finite and positive; empty levels; log scales that are not finite.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import zlib
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import (
    BudgetExceededError,
    CoverageError,
    DescriptorMismatchError,
    ElementParseError,
    PreconditionError,
    WalkopsError,
)
from .groups import (
    FreeGroup,
    GroupDescriptor,
    LatticeGroup,
    ProductGroup,
    _ranges,
    descriptor_from_string,
)
from .measures import (
    NEG_INF,
    RadialMeasure,
    ScaledMeasure,
    IsotropyError,
    log_radial_mass,
    radial_reduce,
    radial_step,
)

DEFAULT_SUPPORT_CAP = 2_000_000
# version 2: one array payload (lat_lo, (r, *lattice) values) for the
# dense and radial-lattice engines; version 3: the generic payload is an
# element table plus per-level id and value lists; version 4: the generic
# payload is packed arrays, the element table included (an array artifact
# of this version is read only with an empty payload); version 5: packed
# integers in the narrowest of 8/16/32/64 bits that holds them; version 6:
# the generic level ids as deltas from the previous id; version 7: each
# packed array's bytes deflated into one zlib stream before base64
ARTIFACT_VERSION = 7
_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")
_PACKED_DTYPES = (*_INT_DTYPES, "<f8")
# the zlib level of every packed array's stream: a level's mantissas
# repeat heavily, and level 1 already shrinks a depth-18 lamplighter
# artifact about 5x
_DEFLATE_LEVEL = 1


class PowersCache:
    """Base cache: query interface over per-level storage."""

    engine_name = "abstract"

    def __init__(self, descriptor: GroupDescriptor, mu: ScaledMeasure):
        self.descriptor = descriptor
        self.mu = mu
        self.complete = True
        self.budget_note = ""
        self._columns: dict = {}     # column key -> read-only log column
        self._masses = None          # every level's mass, on first request
        self._aperiodicity = None    # (aperiodic, period) over the whole cache

    # -- to be provided by engines ------------------------------------------

    @property
    def depth(self) -> int:
        raise NotImplementedError

    def column_key(self, g):
        """What log mu^{*m}(g) depends on here: elements with equal keys
        have one column."""
        raise NotImplementedError

    def _column_values(self, key) -> list:
        """log mu^{*m} at ``key`` for m = 0..depth."""
        raise NotImplementedError

    def _level_masses(self) -> list:
        """Every level's mass, m = 0..depth, in one ascending pass."""
        raise NotImplementedError

    # -- shared queries -------------------------------------------------------

    def _check_level(self, m: int):
        if not 0 <= m <= self.depth:
            raise CoverageError(f"level {m} outside cache depth {self.depth}")

    def log_value(self, m: int, g) -> float:
        """log mu^{*m}(g); -inf when the entry is absent (true zero).  Entry
        m of g's memoized column; DescriptorMismatchError unless g is an
        element of the cache's group."""
        self._check_level(m)
        self.descriptor.check(g)
        return float(self._key_column(self.column_key(g))[m])

    def log_column(self, g) -> np.ndarray:
        """log mu^{*m}(g) for m = 0..depth, -inf where absent; read-only and
        memoized per engine key.  DescriptorMismatchError unless g is an
        element of the cache's group."""
        self.descriptor.check(g)
        return self._key_column(self.column_key(g))

    def _key_column(self, key) -> np.ndarray:
        """The memoized column of an engine key."""
        col = self._columns.get(key)
        if col is None:
            col = np.array(self._column_values(key), dtype=float)
            col.flags.writeable = False
            self._columns[key] = col
        return col

    def level_mass(self, m: int) -> float:
        """The total mass of level m.  The first call computes every
        level's mass in one pass (``_level_masses``)."""
        self._check_level(m)
        if self._masses is None:
            self._masses = self._level_masses()
        return self._masses[m]

    def aperiodicity(self) -> tuple:
        """(aperiodic, period) of the walk over the whole cache, derived
        once by ``is_aperiodic``."""
        if self._aperiodicity is None:
            self._aperiodicity = is_aperiodic(self)
        return self._aperiodicity

    def transition_key(self, x, y):
        """The column key of x^-1 y, whose column is log P^(m)_{x,y}.
        ``inverse`` checks x and y is checked once, so the product is the
        unchecked group law: two checks in all."""
        desc = self.descriptor
        xinv = desc.inverse(x)
        desc.check(y)
        return self.column_key(desc._mul(xinv, y))

    def transition_column(self, x, y) -> np.ndarray:
        """log P^(m)_{x,y} = log mu^{*m}(x^-1 y) for m = 0..depth: the
        read-only memoized column of ``transition_key(x, y)``."""
        return self._key_column(self.transition_key(x, y))

    def log_transition(self, m: int, x, y) -> float:
        """log P^(m)_{x,y}: entry m of ``transition_column(x, y)``."""
        key = self.transition_key(x, y)
        self._check_level(m)
        return float(self._key_column(key)[m])

    def support_in_ball(self, m: int, radius: int) -> list:
        """(element, log value) for the part of level m inside ball(radius)."""
        out = []
        for g in self.descriptor.ball(radius):
            lv = self.log_value(m, g)
            if lv > NEG_INF:
                out.append((g, lv))
        return out

    def level_measure(self, m: int) -> ScaledMeasure:
        raise CoverageError(
            f"{self.engine_name} engine does not materialize full levels"
        )


def is_aperiodic(cache: PowersCache):
    """(aperiodic, period) from the gcd of return times within the cache.

    The gcd is folded along the identity's column and the scan stops once
    it is 1, so an aperiodic walk reads as many levels as its first coprime
    return times.  ``PowersCache.aperiodicity`` memoizes the answer.
    """
    col = cache.log_column(cache.descriptor.identity())
    period = 0
    for m in range(1, cache.depth + 1):
        if col[m] > NEG_INF:
            period = math.gcd(period, m)
            if period == 1:
                break
    if not period:
        raise PreconditionError(
            f"no return to identity within {cache.depth} steps; period undetectable"
        )
    return period == 1, period


def _log_entry(val, log_scale: float) -> float:
    """log of a stored entry (mantissa ``val`` under the level's log scale);
    -inf when the entry is absent (zero).  The one formula behind the
    columns of the array and generic engines."""
    return math.log(val) + log_scale if val > 0.0 else NEG_INF


def _narrowest(arr) -> str:
    """The narrowest of ``<i1``, ``<i2``, ``<i4`` and ``<i8`` that holds
    every value of the integer array ``arr`` (``<i1`` when empty)."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    return next(t for t in _INT_DTYPES
                if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def _pack(arr) -> dict:
    """A numeric array as JSON: dtype, shape and the base64 of one zlib
    stream (level ``_DEFLATE_LEVEL``) of its little-endian bytes in C
    order.  Integers are stored in their ``_narrowest`` dtype; floats as
    ``<f8``, bit for bit."""
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        dtype = "<f8"
    elif arr.dtype.kind == "i":
        dtype = _narrowest(arr)
    else:
        raise TypeError(f"cannot pack a {arr.dtype} array")
    stream = zlib.compress(np.ascontiguousarray(arr, dtype=dtype), _DEFLATE_LEVEL)
    return {"dtype": dtype, "shape": list(arr.shape),
            "data": base64.b64encode(stream).decode("ascii")}


def _inflate(stream: bytes, need: int) -> bytes:
    """The ``need`` bytes the zlib ``stream`` inflates to.  At most
    ``need + 1`` bytes are inflated, whatever the stream holds; ValueError
    unless the stream is one zlib stream that ends, with no bytes after
    it, exactly ``need`` bytes in."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(stream, need + 1)
    except zlib.error as exc:
        raise ValueError(f"packed array data is not a zlib stream: {exc}") from exc
    except OverflowError as exc:  # need + 1 past what one bytes can hold
        raise ValueError(f"packed array shape needs {need} bytes") from exc
    if len(out) > need:
        raise ValueError(f"packed array data inflates past the {need} bytes "
                         "its shape needs")
    if not inflater.eof:
        raise ValueError("packed array data is a truncated zlib stream")
    if inflater.unused_data:
        raise ValueError("packed array data has bytes after its zlib stream")
    if len(out) != need:
        raise ValueError(f"packed array data inflates to {len(out)} bytes, "
                         f"its shape needs {need}")
    return out


def _unpack(doc) -> np.ndarray:
    """The array of a ``_pack`` document in its packed dtype, a read-only
    view of the inflated bytes; ValueError when the document is malformed
    or its stream does not inflate to exactly its shape.  Integers stay as
    narrow as they were packed: callers compare them, or sum them in
    int64, and the generic engine's element table gathers them to int64
    before any arithmetic."""
    dtype, shape, data = doc["dtype"], doc["shape"], doc["data"]
    if dtype not in _PACKED_DTYPES:
        raise ValueError(f"packed array dtype {dtype!r}, expected one of "
                         f"{_PACKED_DTYPES}")
    if not (isinstance(shape, list) and all(
            type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"packed array shape {shape!r}")
    try:
        stream = base64.b64decode(data, validate=True)
    except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"packed array data is not base64: {exc}") from exc
    dt = np.dtype(dtype)
    raw = _inflate(stream, math.prod(shape) * dt.itemsize)
    return np.frombuffer(raw, dtype=dt).reshape(shape)


def _unpack_values(doc, what: str) -> np.ndarray:
    """A packed 1-d float array of stored values, finite and positive."""
    vals = _unpack(doc)
    if (vals.dtype.kind != "f" or vals.ndim != 1 or not np.all(np.isfinite(vals))
            or not np.all(vals > 0.0)):
        raise ValueError(f"{what}: values are not one 1-d array of finite "
                         "positive floats")
    return vals


def _level_bounds(what: str, total: int, sizes: np.ndarray,
                  log_scales: np.ndarray) -> tuple:
    """Where a concatenation of ``total`` level entries splits into levels
    of ``sizes`` entries (each at least 1, all entries used), and the
    finite ``log_scales``, one per level, as Python floats."""
    if (sizes.dtype.kind != "i" or sizes.ndim != 1 or np.any(sizes < 1)
            or int(sizes.sum(dtype=np.int64)) != total):
        raise ValueError(
            f"{what}: level sizes are not positive counts summing to {total}"
        )
    if (log_scales.dtype.kind != "f" or log_scales.shape != sizes.shape
            or not np.all(np.isfinite(log_scales))):
        raise ValueError(f"{what}: log_scales are not one finite float per level")
    return np.cumsum(sizes, dtype=np.int64)[:-1], log_scales.tolist()


def _id_deltas(levels) -> np.ndarray:
    """The sorted ids of every level as one int32 array of deltas from the
    previous id of the level, the first from -1."""
    out = np.empty(sum(len(level.ids) for level in levels), dtype=np.int32)
    lo = 0
    for level in levels:
        ids, hi = level.ids, lo + len(level.ids)
        out[lo] = ids[0] + 1
        np.subtract(ids[1:], ids[:-1], out=out[lo + 1:hi])
        lo = hi
    return out


def _level_ids(what: str, deltas: np.ndarray, bounds, size: int) -> list:
    """Each level's int32 ids from ``_id_deltas``'s ``deltas`` (any integer
    width) split at ``bounds``, rebuilt level by level.  ValueError unless
    every delta is at least 1 and each level's deltas sum to at most
    ``size`` (below ``_ID_LIMIT``), so that ids rise strictly from 0 and
    stay below ``size``; deltas of at most ``size`` keep the int64 sums
    and the int32 running sums from wrapping."""
    if len(deltas) and (deltas.min() < 1 or deltas.max() > size):
        raise ValueError(f"{what}: level ids are not strictly increasing ids "
                         f"below {size}")
    levels = []
    for level in np.split(deltas, bounds):
        if level.sum(dtype=np.int64) > size:
            raise ValueError(f"{what}: level ids reach past the {size} elements")
        ids = np.cumsum(level, dtype=np.int32)
        ids -= 1
        levels.append(ids)
    return levels


# ---------------------------------------------------------------------------
# generic engine
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# elements hashed, frontier sources multiplied and interned, lookup pairs
# compared, products appended and level rows scattered at a time: bounds
# the hashing, lookup and scatter temporaries whatever the size of the
# batch or level
_HASH_BLOCK = 1 << 13
# ids, level ids and step-table rows are int32: the element table holds
# fewer elements than this
_ID_LIMIT = 2**31


def _fold(h, col, tmp):
    """``h = mix(h * GOLDEN + col)`` in place on the uint64 array ``h``, with
    ``col`` an integer array read as uint64, ``mix`` splitmix64's finalizer
    (wrapping arithmetic) and ``tmp`` scratch of ``h``'s shape."""
    h *= _GOLDEN
    h += np.asarray(col, dtype=np.int64).view(np.uint64)
    h ^= np.right_shift(h, np.uint64(30), out=tmp)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= np.right_shift(h, np.uint64(27), out=tmp)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= np.right_shift(h, np.uint64(31), out=tmp)


def _as_rows(arr):
    """A 1-d array as a one-column 2-d array; a 2-d array as it is."""
    return arr[:, None] if arr.ndim == 1 else arr


def _row_hashes(arr):
    """One uint64 hash per row of a 1-d or 2-d integer array: its columns,
    each read as int64, folded from 0."""
    h = np.zeros(len(arr), dtype=np.uint64)
    tmp = np.empty_like(h)
    for col in _as_rows(arr).T:
        _fold(h, col, tmp)
    return h


def _run_hashes(run, counts):
    """One uint64 hash per run of ``run`` split by the int64 ``counts``:
    each item's row then its place in its run folded, and the items' hashes
    summed (wrapping); an empty run hashes to 0."""
    starts = np.cumsum(counts)
    starts -= counts
    items = _row_hashes(run)
    place = np.arange(len(run), dtype=np.int64)
    place -= np.repeat(starts, counts)
    _fold(items, place, np.empty_like(items))
    h = np.zeros(len(counts), dtype=np.uint64)
    full = counts > 0
    h[full] = np.add.reduceat(items, starts[full])
    return h


def _element_hashes(descriptor, arrays) -> np.ndarray:
    """One 64-bit hash per element of ``encode_elements`` arrays of any
    integer width, computed as uint64 and returned as int64 (numpy's
    searchsorted is faster on int64).  Each array's part (``_row_hashes``
    or, for a run, ``_run_hashes``) is folded in key order.  Elements are
    hashed ``_HASH_BLOCK`` at a time, each run array sliced by its own
    counts, read as int64.  Equal hashes do not make equal elements:
    ``_ElementTable`` compares the arrays."""
    runs = descriptor.codec_runs()
    keys = sorted(arrays)
    # every array but a run has one entry per element
    out = np.zeros(len(arrays[runs.get(keys[0], keys[0])]), dtype=np.uint64)
    offsets = dict.fromkeys(runs, 0)   # run key -> first item of the block
    for lo in range(0, len(out), _HASH_BLOCK):
        h = out[lo:lo + _HASH_BLOCK]
        tmp = np.empty_like(h)
        for key in keys:
            if key in runs:
                counts = arrays[runs[key]][lo:lo + _HASH_BLOCK].astype(np.int64)
                end = offsets[key] + int(counts.sum())
                part = _run_hashes(arrays[key][offsets[key]:end], counts)
                offsets[key] = end
            else:
                part = _row_hashes(arrays[key][lo:lo + _HASH_BLOCK])
            _fold(h, part.view(np.int64), tmp)
    return out.view(np.int64)


def _same(descriptor, x, y) -> np.ndarray:
    """Element-wise equality of two batches of ``encode_elements`` arrays of
    the same length."""
    runs = descriptor.codec_runs()
    same = None
    for key in x.keys() - runs.keys():
        eq = _as_rows(x[key] == y[key]).all(axis=1)
        same = eq if same is None else same & eq
    # equal per-element counts align the runs of the remaining elements
    sub = np.flatnonzero(same)
    if runs and len(sub):
        if len(sub) < len(same):
            x = descriptor.take_encoded(x, sub)
            y = descriptor.take_encoded(y, sub)
        for key, counts_key in runs.items():
            diff = _as_rows(x[key] != y[key]).any(axis=1)
            same[np.repeat(sub, x[counts_key])[diff]] = False
    return same


def _put(buf, used, values):
    """``buf`` with ``values`` written after its first ``used`` rows.  A
    buffer too short is reallocated with room for twice its rows, and one
    whose dtype cannot hold ``values`` is promoted to the narrowest that
    holds both, each as one copy."""
    dtype = np.promote_types(buf.dtype, _narrowest(values))
    end = used + len(values)
    rows = len(buf) if end <= len(buf) else max(end, 2 * len(buf))
    if rows > len(buf) or dtype != buf.dtype:
        grown = np.empty((rows, *buf.shape[1:]), dtype=dtype)
        grown[:used] = buf[:used]
        buf = grown
    buf[used:end] = values
    return buf


class _ElementTable:
    """The generic engine's element table: the descriptor's element arrays,
    elements in id order, and an exact hash index over them.

    Each array is stored in its ``_narrowest`` dtype, the width its artifact
    packs it in, inside a buffer that doubles when full (``_put``); a value
    that does not fit promotes that one array.  Each run array keeps its
    run ends (``_ends``: 0, then the running total of its counts, itself
    narrow), so ``gather`` takes any batch of elements in time linear in
    the batch, at the stored widths, and ``take`` widens what it gathers to
    int64: the group law never computes in a narrow dtype, and comparisons,
    which do no arithmetic, read the stored widths.

    The index keeps every element's ``_element_hashes`` value sorted, beside
    the int32 id that carries it.  A lookup compares the query with every
    stored element of equal hash, ``_HASH_BLOCK`` pairs at a time, so two
    distinct elements never share an id; an element repeated in the table
    is found at import by comparing the runs of equal hashes in the index.
    """

    def __init__(self, descriptor, arrays):
        self.descriptor = descriptor
        self._runs = descriptor.codec_runs()
        # an imported array is kept as it was unpacked, without a copy
        self._bufs = {key: arr.astype(_narrowest(arr), copy=False)
                      for key, arr in arrays.items()}
        self._ends = {}
        for key, counts_key in self._runs.items():
            ends = np.zeros(len(arrays[counts_key]) + 1, dtype=np.int64)
            np.cumsum(arrays[counts_key], dtype=np.int64, out=ends[1:])
            self._ends[key] = ends.astype(_narrowest(ends))
        hashes = _element_hashes(descriptor, self._bufs)
        self.size = len(hashes)
        self._ids = np.argsort(hashes).astype(np.int32)
        self._hashes = hashes[self._ids]

    @property
    def arrays(self) -> dict:
        """The element arrays in id order, in their stored dtypes."""
        return {key: buf[:self._used(key)] for key, buf in self._bufs.items()}

    def _used(self, key) -> int:
        """The rows of ``key``'s buffer that hold elements."""
        return int(self._ends[key][self.size]) if key in self._runs else self.size

    def take(self, idx) -> dict:
        """The int64 arrays of the elements with ids ``idx``, in that order."""
        return {key: arr.astype(np.int64, copy=False)
                for key, arr in self.gather(idx).items()}

    def gather(self, idx) -> dict:
        """The arrays of the elements with ids ``idx`` at their stored
        widths, for comparisons."""
        idx = np.asarray(idx)
        out = {}
        for key, buf in self._bufs.items():
            if key in self._runs:
                ends = self._ends[key]
                starts = ends[idx].astype(np.int64)
                rows = _ranges(starts, ends[idx + 1] - starts)
            else:
                rows = idx
            out[key] = buf[rows]
        return out

    def _append(self, added, n):
        """Append the ``n`` elements of the arrays ``added``."""
        for key, counts_key in self._runs.items():
            ends = self._ends[key]
            total = int(ends[self.size])
            self._bufs[key] = _put(self._bufs[key], total, added[key])
            self._ends[key] = _put(ends, self.size + 1,
                                   total + np.cumsum(added[counts_key], dtype=np.int64))
        for key in self._bufs.keys() - self._runs.keys():
            self._bufs[key] = _put(self._bufs[key], self.size, added[key])
        self.size += n

    @classmethod
    def load(cls, descriptor, arrays):
        """The table of imported, checked arrays; ValueError unless the
        identity is element 0 and no element repeats."""
        table = cls(descriptor, arrays)
        identity = descriptor.encode_elements([descriptor.identity()])
        if not table.size or not _same(descriptor, table.gather([0]), identity)[0]:
            raise ValueError("generic payload: the identity is not element 0")
        # a repeated element repeats its hash: only the runs of equal
        # hashes next to each other in the sorted index need comparing
        h = table._hashes
        shared = np.zeros(len(h), dtype=bool)
        shared[1:] = h[1:] == h[:-1]
        shared[:-1] |= shared[1:]
        members = table._ids[shared]
        first = _first_equal(descriptor, lambda pos: table.gather(members[pos]),
                             h[shared])
        if np.any(first != np.arange(len(members))):
            raise ValueError("generic payload: the element table repeats an element")
        return table

    def find(self, batch, hashes) -> np.ndarray:
        """The id of each element of ``batch`` (with its ``hashes``), -1
        where the table does not hold it."""
        # sorted needles make searchsorted's bisections cache-friendly
        order = np.argsort(hashes)
        needles = hashes[order]
        lo = np.searchsorted(self._hashes, needles, "left")
        counts = np.searchsorted(self._hashes, needles, "right") - lo
        # (query position, candidate id) pairs of equal hash
        query = np.repeat(order, counts)
        cand = self._ids[_ranges(lo, counts)]
        del order, needles, lo, counts
        ids = np.full(len(hashes), -1, dtype=np.int32)
        # the pairs are gathered and compared _HASH_BLOCK at a time, so the
        # gathers are bounded whatever the size of the batch
        for at in range(0, len(query), _HASH_BLOCK):
            q, c = query[at:at + _HASH_BLOCK], cand[at:at + _HASH_BLOCK]
            same = _same(self.descriptor, self.descriptor.take_encoded(batch, q),
                         self.gather(c))
            ids[q[same]] = c[same]
        return ids

    def intern(self, batch, seen) -> np.ndarray:
        """The id of each element of ``batch``.  Elements the table lacks
        are appended once each, in the order of their first position in
        ``seen`` (a permutation of the batch positions), and take the next
        ids; BudgetExceededError when the table would reach ``_ID_LIMIT``
        elements."""
        desc = self.descriptor
        hashes = _element_hashes(desc, batch)
        ids = self.find(batch, hashes)
        new = seen[ids[seen] < 0]
        if not len(new):
            return ids
        # the new elements are gathered from the batch only as compared or
        # appended
        first = _first_equal(desc, lambda pos: desc.take_encoded(batch, new[pos]),
                             hashes[new])
        heads = np.flatnonzero(first == np.arange(len(new)))
        if self.size + len(heads) >= _ID_LIMIT:
            raise BudgetExceededError(
                f"the element table would reach {self.size + len(heads)} "
                f"elements; int32 ids allow {_ID_LIMIT - 1}")
        rank = np.empty(len(new), dtype=np.int64)
        rank[heads] = np.arange(len(heads))
        ids[new] = self.size + rank[first]
        added_hashes = hashes[new[heads]]
        order = np.argsort(added_hashes)
        at = np.searchsorted(self._hashes, added_hashes[order], "right")
        self._hashes = np.insert(self._hashes, at, added_hashes[order])
        self._ids = np.insert(self._ids, at, self.size + order)
        for at in range(0, len(heads), _HASH_BLOCK):
            added = new[heads[at:at + _HASH_BLOCK]]
            self._append(desc.take_encoded(batch, added), len(added))
        return ids


def _first_equal(descriptor, take, hashes) -> np.ndarray:
    """For each element of a batch (with its ``hashes``), the position of
    the first element of the batch equal to it; ``take(positions)`` gives
    the arrays of the elements at those positions."""
    first = np.arange(len(hashes))
    # only elements that share their hash need comparing
    order = np.argsort(hashes)
    h = hashes[order]
    shared = np.zeros(len(h), dtype=bool)
    shared[1:] = h[1:] == h[:-1]
    shared[:-1] |= shared[1:]
    pending = order[shared]
    # pending stays sorted by (hash, position); each round settles every
    # element equal to the first pending element of its hash group
    pending = pending[np.lexsort((pending, hashes[pending]))]
    while len(pending):
        h = hashes[pending]
        starts = np.ones(len(pending), dtype=bool)
        starts[1:] = h[1:] != h[:-1]
        head = pending[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
        same = _same(descriptor, take(pending), take(head))
        first[pending[same]] = head[same]
        pending = pending[~same]
    return first


def _compact_positive(acc) -> np.ndarray:
    """Move the positive entries of ``acc`` to its front, in order, and
    return their positions as ascending int32, ``_HASH_BLOCK`` entries at a
    time: one pass counts them, a second writes them, so no table-sized
    mask, int64 index or value copy exists.  A block's entries move down
    to where the positives before it end, never past its own start."""
    blocks = range(0, len(acc), _HASH_BLOCK)
    counts = [np.count_nonzero(acc[lo:lo + _HASH_BLOCK] > 0.0) for lo in blocks]
    ids = np.empty(sum(counts), dtype=np.int32)
    at = 0
    for lo, n in zip(blocks, counts):
        block = acc[lo:lo + _HASH_BLOCK]
        positive = block > 0.0
        ids[at:at + n] = np.flatnonzero(positive) + lo
        acc[at:at + n] = block[positive]
        at += n
    return ids


@dataclass
class _Level:
    ids: np.ndarray       # sorted int32 interned ids with positive mass
    vals: np.ndarray      # mantissas, max 1
    log_scale: float


def _stored(level: _Level, i: int):
    """The mantissa of interned id ``i`` in ``level`` (one searchsorted),
    0.0 when the level does not hold it."""
    pos = int(np.searchsorted(level.ids, i))
    return level.vals[pos] if pos < len(level.ids) and level.ids[pos] == i else 0.0


class GenericPowers(PowersCache):
    """Keyed-support engine over interned ids; scatter-add hot loop.

    The element table is the descriptor's element arrays at their packed
    width (``_ElementTable``); ids, level ids and the step table are int32.
    A step takes the elements of the level that have no row yet in blocks
    of ``_HASH_BLOCK`` (2^13), in id order; it gathers a block from the
    table as int64, multiplies it by each support element in one
    ``mul_encoded`` batch, narrows each batch to the ``_narrowest`` widths
    of its values, checks the products with ``check_encoded`` and interns
    them before the next block; the lookup and the appends gather the
    products ``_HASH_BLOCK`` at a time.  New ids follow first appearance
    over (source id, support element), row-major, so ids, scatter order
    and level bits depend neither on the hash nor on the block size.  The
    step table grows, at most once per level, to the element table's size.
    The level is then scattered ``_HASH_BLOCK`` rows at a time, in order,
    which adds in the order of one whole-level scatter, into a table-sized
    accumulator that becomes the level's values (``_compact_positive``).
    A level's mass is summed on the first ``level_mass`` call and
    memoized.
    """

    engine_name = "generic"

    def __init__(self, descriptor, mu, depth, support_cap=DEFAULT_SUPPORT_CAP):
        super().__init__(descriptor, mu)
        self._setup()
        self._levels.append(_Level(np.array([0], dtype=np.int32), np.array([1.0]), 0.0))
        # the step table, scratch for the build: rows[i, j] is the id of
        # element i times support element j, -1 until computed
        rows = np.full((self._table.size, len(self._mu_elems)), -1, dtype=np.int32)
        for m in range(1, depth + 1):
            try:
                rows = self._ensure_rows(rows, self._levels[-1].ids)
                self._step(rows, support_cap)
            except BudgetExceededError as exc:
                self.complete = False
                self.budget_note = f"stopped at level {m - 1}: {exc}"
                break

    def _setup(self):
        """Measure-derived state, shared by construction and import."""
        desc = self.descriptor
        items = sorted(self.mu.support.items(), key=lambda gv: desc.sort_key(gv[0]))
        self._mu_elems = [g for g, _ in items]
        # the one check of the operands; products are checked as interned
        desc.check(*self._mu_elems)
        self._mu_vals = np.array([v for _, v in items])
        self._mu_ls = self.mu.log_scale
        self._table = _ElementTable(desc, desc.encode_elements([desc.identity()]))
        self._levels: list = []

    def _ensure_rows(self, rows, ids):
        """The step table ``rows`` with a row for every id of ``ids``, grown
        to the element table's size when the table gains elements.  Missing
        rows are made ``_HASH_BLOCK`` sources at a time, in id order, so
        products first appear row-major (by source id, then by support
        element) as they would in one batch."""
        desc = self.descriptor
        k = len(self._mu_elems)
        missing = ids[rows[ids, 0] < 0]
        for lo in range(0, len(missing), _HASH_BLOCK):
            block = missing[lo:lo + _HASH_BLOCK]
            frontier = self._table.take(block)
            # each batch is narrowed as it is made (the group law ran in
            # int64) and its arrays are dropped as they are joined
            batches = [{key: arr.astype(_narrowest(arr), copy=False)
                        for key, arr in desc.mul_encoded(frontier, s).items()}
                       for s in self._mu_elems]
            del frontier
            products = {key: np.concatenate([batch.pop(key) for batch in batches])
                        for key in list(batches[0])}
            try:
                desc.check_encoded(products)
            except ElementParseError as exc:
                raise DescriptorMismatchError(
                    f"the group law of {desc.spec_string()} made a non-canonical "
                    f"element: {exc}") from exc
            # products[j * n + i] = element block[i] times support element j
            n = len(block)
            found = self._table.intern(
                products, seen=np.arange(n * k).reshape(k, n).T.ravel())
            # every source id is below the size the table had at the last
            # growth, so its row is already there
            rows[block] = found.reshape(k, n).T
        if self._table.size > rows.shape[0]:
            grown = np.full((self._table.size, k), -1, dtype=np.int32)
            grown[: rows.shape[0]] = rows
            rows = grown
        return rows

    def _step(self, rows, support_cap):
        level = self._levels[-1]
        acc = np.zeros(self._table.size)
        # row blocks in order: np.add.at adds in index order, so every sum
        # keeps the bits of one whole-level scatter
        for lo in range(0, len(level.ids), _HASH_BLOCK):
            hi = lo + _HASH_BLOCK
            _backend.scatter_add_outer(
                acc, rows[level.ids[lo:hi]], level.vals[lo:hi], self._mu_vals)
        ids = _compact_positive(acc)
        if len(ids) > support_cap:
            raise BudgetExceededError(
                f"support {len(ids)} exceeds cap {support_cap}"
            )
        # the level's values are the accumulator's front, shrunk in place;
        # no view of it outlives the compaction, so no reference can dangle
        acc.resize(len(ids), refcheck=False)
        vals = acc
        peak = vals.max()
        vals /= peak
        self._levels.append(_Level(
            ids, vals, level.log_scale + self._mu_ls + math.log(peak)))

    @property
    def depth(self):
        return len(self._levels) - 1

    def column_key(self, g):
        return g

    def _column_values(self, g):
        # the column key is the element itself, so this runs once per element
        desc = self.descriptor
        arrays = desc.encode_elements([g])
        i = int(self._table.find(arrays, _element_hashes(desc, arrays))[0])
        if i < 0:
            return [NEG_INF] * len(self._levels)
        return [_log_entry(_stored(level, i), level.log_scale) for level in self._levels]

    def _level_masses(self):
        return [math.exp(math.log(math.fsum(level.vals)) + level.log_scale)
                for level in self._levels]

    def level_measure(self, m):
        self._check_level(m)
        level = self._levels[m]
        elems = self.descriptor.decode_elements(self._table.take(level.ids))
        return ScaledMeasure(
            support={g: float(v) for g, v in zip(elems, level.vals)},
            log_scale=level.log_scale,
        )

    def support_size(self, m):
        self._check_level(m)
        return len(self._levels[m].ids)

    def export_payload(self):
        levels = self._levels
        return {
            "elements": {key: _pack(arr) for key, arr in self._table.arrays.items()},
            "sizes": _pack([len(level.ids) for level in levels]),
            "log_scales": _pack([level.log_scale for level in levels]),
            "ids": _pack(_id_deltas(levels)),
            "vals": _pack(np.concatenate([level.vals for level in levels])),
        }

    @classmethod
    def _from_payload(cls, desc, mu, payload):
        """The cache of an ``export_payload``, its levels checked.  Each
        packed array is popped from ``payload`` as it is decoded, and the
        levels are decoded before the element table is built, so the text
        of an array is freed once its array exists.  The element arrays
        stay at their packed width; each level's ids are rebuilt from their
        deltas as int32 once the table's size is known."""
        self = cls.__new__(cls)
        PowersCache.__init__(self, desc, mu)
        self._setup()
        deltas = _unpack(payload.pop("ids"))
        vals = _unpack_values(payload.pop("vals"), "generic payload")
        if deltas.dtype.kind != "i" or deltas.shape != vals.shape:
            raise ValueError("generic payload: ids and vals are not one id per value")
        bounds, log_scales = _level_bounds(
            "generic payload", len(deltas), _unpack(payload.pop("sizes")),
            _unpack(payload.pop("log_scales")))
        elements = payload.pop("elements")
        arrays = {key: _unpack(elements.pop(key)) for key in desc.encode_elements([])}
        if desc.check_encoded(arrays) >= _ID_LIMIT:
            raise ValueError(f"generic payload: int32 ids allow {_ID_LIMIT - 1} elements")
        self._table = _ElementTable.load(desc, arrays)
        self._levels = [
            _Level(ids, level_vals, log_scale) for ids, level_vals, log_scale in zip(
                _level_ids("generic payload", deltas, bounds, self._table.size),
                np.split(vals, bounds), log_scales)]
        return self


# ---------------------------------------------------------------------------
# array engine: free-group and lattice walks
# ---------------------------------------------------------------------------

def _array_engine_name(descriptor: GroupDescriptor) -> str:
    """The array or product engine's name for walks on ``descriptor``."""
    if isinstance(descriptor, LatticeGroup):
        return "dense"
    return "radial" if isinstance(descriptor, FreeGroup) else "radial-lattice"


def _cell(level, key):
    """The stored mantissa at index ``key`` of an array level, 0.0 when the
    index lies outside its array."""
    lo, arr, _ = level
    idx = tuple(map(operator.sub, key, lo))
    for i, n in zip(idx, arr.shape):
        if not 0 <= i < n:
            return 0.0
    return arr[idx]


def _inside(key, lo, hi) -> bool:
    """Whether the index ``key`` lies in the box from ``lo`` to ``hi``."""
    return all(a <= c <= b for c, a, b in zip(key, lo, hi))


# radii < _RADIAL_BLOCK of every level are what a ``radial`` cache keeps
# from its build: every radius the CLI, the README configs and the
# benchmark read; a column past them widens the block by one replay
_RADIAL_BLOCK = 32
# the half-width of the lattice box a ``dense`` cache keeps from its
# build: a CLI report reads balls (radius 2 by default) around the origin
# and the elements a config names, within 8 on the example lattice and
# product configs save a boundary ray (to k_max + ball_radius, 14 by
# default) and far [metric] pairs, which widen one bound by one replay
_DENSE_BOX = 8
# bytes a widened block may take; a replay whose wider block would take
# more keeps only its column and leaves the box as it is
_BLOCK_BUDGET = 512 * 2**20


class ArrayPowers(PowersCache):
    """Isotropic walks on F_s and walks on Z^d, stepped level by level.

    Every level is ``(lo, mantissas, log scale)``: one plain array indexed
    from its corner ``lo``.  A free-group walk (engine name ``radial``)
    steps a 1-d array over tree radii by the radial tree move, corner
    ``(0,)``; g is read at radius ``len(g)``.  A lattice walk (``dense``)
    steps a d-dim array over the lattice box the walk reaches by shifted
    adds, the identity mass first; g is read at index g.

    The cache keeps a box: one ``(depth + 1) x box`` block of mantissas,
    row m holding level m clipped to the box (zero where the level does
    not reach), and each level's log scale.  The box starts as the radii
    below ``_RADIAL_BLOCK`` on ``radial`` and half-width ``_DENSE_BOX`` on
    ``dense``.  A column outside the box replays the build once, the same
    steps, peak divisions and log-scale sums, so every bit matches,
    doubling each bound it lies past away from the origin (b to 2b - 1
    below, 2b + 1 above, within the top level's box) until the box holds
    it; a replay whose wider block would take more than ``_BLOCK_BUDGET``
    bytes keeps only the column.  A column that no level reaches reads
    -inf with no replay.  Full levels (``level_radial``,
    ``level_measure`` and the level masses) come from a replay cursor,
    the last level stepped, the top one after the build: a level at or
    above it steps forward from it, a level below it from level 0, so
    any sweep in ascending order costs at most one build, and a
    descending one about depth²/2 steps.
    """

    def __init__(self, descriptor, mu, depth):
        super().__init__(descriptor, mu)
        if not isinstance(descriptor, (FreeGroup, LatticeGroup)):
            raise PreconditionError("measure is not a free-group or lattice walk")
        self.engine_name = _array_engine_name(descriptor)
        self._depth = depth
        self._mu_ls = mu.log_scale
        if isinstance(descriptor, FreeGroup):
            # IsotropyError unless the measure is isotropic
            self._tree_vals = radial_reduce(mu, descriptor).values
            self.q, d = 2 * descriptor.rank, 1
            # a step moves a radius up by at most the measure's last radius
            self._lo_step, self._hi_step = (0,), (len(self._tree_vals) - 1,)
        else:
            self.q, d = 0, descriptor.dimension
            zero = descriptor.identity()
            # the identity mass first, then the other moves in lattice
            # order: the order of the shifted adds fixes the summation
            # order, hence the bits
            self._moves = sorted(mu.support.items(), key=lambda vm: (
                vm[0] != zero, descriptor.sort_key(vm[0])))
            offs = list(mu.support) + [zero]
            self._lo_step = tuple(min(o[i] for o in offs) for i in range(d))
            self._hi_step = tuple(max(o[i] for o in offs) for i in range(d))
        # the top level's box, which holds every level's
        self._reach = (tuple(depth * s for s in self._lo_step),
                       tuple(depth * s for s in self._hi_step))
        self._origin = ((0,) * d, np.ones((1,) * d), 0.0)
        self._cursor = (0, self._origin)
        box = ((0,), (_RADIAL_BLOCK - 1,)) if self.q else ((-_DENSE_BOX,) * d,
                                                           (_DENSE_BOX,) * d)
        self._fill(*self._clip(*box))

    def _next(self, lo, arr, ls):
        """The level after ``(lo, arr, ls)``: stepped, divided by its peak,
        with its log scale.  The one step of the build and of every
        replay."""
        if self.q:
            out = radial_step(arr, self._tree_vals, self.q)
        else:
            # each move adds the level shifted by its offset into a box
            # widened by the steps' extent
            out = np.zeros(tuple(
                n + h - l for n, l, h in zip(arr.shape, self._lo_step, self._hi_step)))
            for v, mass in self._moves:
                out[tuple(slice(c - l, c - l + n) for c, l, n in zip(
                    v, self._lo_step, arr.shape))] += mass * arr
            lo = tuple(map(operator.add, lo, self._lo_step))
        peak = out.max()
        out /= peak
        return lo, out, ls + self._mu_ls + math.log(peak)

    def _level(self, m):
        """Level m as ``(lo, mantissas, log scale)``, stepped from the
        cursor, from level 0 when m lies below it; the cursor moves to m."""
        at, level = self._cursor
        if m < at:
            at, level = 0, self._origin
        for _ in range(at, m):
            level = self._next(*level)
        self._cursor = (m, level)
        if m == self._depth:
            # the top level, kept wherever the cursor moves later (each
            # replay replaces it); the benchmark's tracer reads its size
            self._current = level
        return level

    def _clip(self, lo, hi):
        """The box from ``lo`` to ``hi`` clipped to the top level's box."""
        return tuple(map(max, lo, self._reach[0])), tuple(map(min, hi, self._reach[1]))

    def _fill(self, lo, hi):
        """Run the build from level 0, keeping every level clipped to the
        box from ``lo`` to ``hi`` (within the top level's box) in the block
        and every log scale; the cursor ends on the top level."""
        block = np.zeros((self._depth + 1, *(b - a + 1 for a, b in zip(lo, hi))))
        log_scales = []
        for m, row in enumerate(block):
            at, arr, ls = self._level(m)
            # the box and every level's box hold the origin, so they meet
            dst, src = [], []
            for a, b, c, n in zip(lo, hi, at, arr.shape):
                start, stop = max(a, c), min(b, c + n - 1) + 1
                dst.append(slice(start - a, stop - a))
                src.append(slice(start - c, stop - c))
            row[tuple(dst)] = arr[tuple(src)]
            log_scales.append(ls)
        self._box, self._block, self._log_scales = (lo, hi), block, log_scales

    @property
    def depth(self):
        return self._depth

    def column_key(self, g):
        return (len(g),) if self.q else g

    def _column_values(self, key):
        if not _inside(key, *self._reach):  # no level reaches it
            return [NEG_INF] * (self._depth + 1)
        lo, hi = map(list, self._box)
        if not _inside(key, lo, hi):
            for i, c in enumerate(key):
                while c < lo[i]:
                    lo[i] = 2 * lo[i] - 1
                while c > hi[i]:
                    hi[i] = 2 * hi[i] + 1
            lo, hi = self._clip(lo, hi)
            size = 8 * (self._depth + 1) * math.prod(b - a + 1 for a, b in zip(lo, hi))
            if size > _BLOCK_BUDGET:
                # the wider block would not fit: replay keeping this column only
                return [_log_entry(_cell(level, key), level[2])
                        for level in map(self._level, range(self._depth + 1))]
            self._fill(lo, hi)
        idx = tuple(map(operator.sub, key, self._box[0]))
        return [_log_entry(v, ls) for v, ls in zip(
            self._block[(slice(None), *idx)].tolist(), self._log_scales)]

    def _level_masses(self):
        masses = []
        for m in range(self._depth + 1):
            _, arr, ls = self._level(m)
            if self.q:
                logs = log_radial_mass(arr, self.q)
            else:  # a dense level: the log of its array's sum
                total = arr.sum()
                logs = math.log(total) if total > 0.0 else NEG_INF
            masses.append(math.exp(logs + ls) if logs > NEG_INF else 0.0)
        return masses

    def level_radial(self, m) -> RadialMeasure:
        """A level of a free-group walk as its per-radius values; other
        walks raise CoverageError.  Reading every level in descending
        order costs about depth²/2 steps (the replay cursor)."""
        self._check_level(m)
        if self.engine_name != "radial":
            raise CoverageError("only a radial cache has radial levels")
        _, arr, ls = self._level(m)
        return RadialMeasure(values=arr.copy(), log_scale=ls, tree_degree=self.q)

    def level_measure(self, m):
        """A lattice level as a measure.  On a free group a tree radius
        stands for a whole sphere of elements, so those levels are not
        materialized (CoverageError; a free-group level is
        ``level_radial``).  Reading every level in descending order costs
        about depth²/2 steps (the replay cursor)."""
        if self.q:
            return super().level_measure(m)
        self._check_level(m)
        lo, arr, ls = self._level(m)
        support = {}
        for idx in np.argwhere(arr > 0.0):
            g = tuple(int(i + l) for i, l in zip(idx, lo))
            support[g] = float(arr[tuple(idx)])
        return ScaledMeasure(support=support, log_scale=ls)


# ---------------------------------------------------------------------------
# product engine: Cartesian (isotropic free) x (lattice) walks
# ---------------------------------------------------------------------------

def _product_factors(descriptor: GroupDescriptor, mu: ScaledMeasure):
    """The factors of a Cartesian walk mu = p·(mu_F x δ) + q·(δ x mu_Z) on
    F_s x Z^d: ((mu_F, log p), (mu_Z, log q)), each factor a probability
    measure, the identity's mass in the tree part.  A part that carries no
    mass is the point mass with weight 0 (log -inf).  None when the group
    is not F_s x Z^d or the measure moves both coordinates at once."""
    if not (isinstance(descriptor, ProductGroup)
            and isinstance(descriptor.left, FreeGroup)
            and isinstance(descriptor.right, LatticeGroup)):
        return None
    left, right = descriptor.left, descriptor.right
    e_l, zero = left.identity(), right.identity()
    tree: dict = {}
    lat: dict = {}
    for (w, v), mass in mu.support.items():
        if v == zero:
            tree[w] = mass
        elif w == e_l:
            lat[v] = mass
        else:
            return None
    factors = []
    for part, group in ((tree, left), (lat, right)):
        if part:
            log_total = math.log(math.fsum(part.values()))
            factors.append((ScaledMeasure(support=part, log_scale=-log_total),
                            log_total + mu.log_scale))
        else:
            factors.append((ScaledMeasure.point_mass(group), NEG_INF))
    return factors


# rows of the binomial triangle summed per numpy call in CartesianPowers._mix
_MIX_ROWS = 32


def _log_weights(log_p: float, log_fact: np.ndarray) -> np.ndarray:
    """log(p^k / k!) for k = 0..len(log_fact) - 1, with 0^0 = 1."""
    out = -log_fact
    out[1:] += np.arange(1, len(out)) * log_p
    return out


class CartesianPowers(PowersCache):
    """Cartesian walks on F_s x Z^d with an isotropic tree factor, from the
    caches of their two factors; engine name ``radial-lattice``.

    No product level is stored: the cache holds a ``radial`` cache of mu_F
    and a ``dense`` cache of mu_Z, and a column is their binomial mix

        log mu^{*m}(w, v) = log Σ_k C(m,k) p^k q^(m-k) mu_F^{*k}(w) mu_Z^{*(m-k)}(v),

    summed in log space over every k <= m (each row scaled by its largest
    term), so an entry is absent exactly when every term is.  The sum is
    not cut to a window around the binomial mode k ≈ pm: the tree factor
    decays like rho_F^k, which moves the largest terms below that mode, so
    a cut that holds whatever the factor columns are keeps about half of
    the triangle or more.  Each factor keeps a box of its levels and
    replays the rest (``ArrayPowers``).  Levels are not materialized.
    """

    engine_name = "radial-lattice"

    def __init__(self, descriptor, mu, depth):
        super().__init__(descriptor, mu)
        factors = _product_factors(descriptor, mu)
        if factors is None:
            raise PreconditionError(
                "measure is not a Cartesian mixture on free x lattice"
            )
        (mu_f, log_p), (mu_z, log_q) = factors
        self._tree = ArrayPowers(descriptor.left, mu_f, depth)
        self._lattice = ArrayPowers(descriptor.right, mu_z, depth)
        self._log_fact = np.array([math.lgamma(m + 1) for m in range(depth + 1)])
        self._log_wp = _log_weights(log_p, self._log_fact)
        self._log_wq = _log_weights(log_q, self._log_fact)

    def _mix(self, f, z) -> np.ndarray:
        """log Σ_k C(m,k) p^k q^(m-k) exp(f[k] + z[m-k]) for m < len(f),
        summed over blocks of rows of the (m, k) triangle."""
        n = len(f)
        a = f + self._log_wp[:n]
        # row m of ``b`` is b[m - k] for k = 0..n-1, -inf where k > m: a
        # reversed sliding window over b padded with n - 1 leading -inf
        padded = np.concatenate([np.full(n - 1, NEG_INF), z + self._log_wq[:n]])
        b = np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1]
        out = np.empty(n)
        for lo in range(0, n, _MIX_ROWS):
            hi = min(n, lo + _MIX_ROWS)
            terms = a[:hi] + b[lo:hi, :hi]
            peak = terms.max(axis=1)
            peak[peak == NEG_INF] = 0.0  # a row of absent terms sums to 0
            with np.errstate(divide="ignore"):
                out[lo:hi] = (peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
                              + self._log_fact[lo:hi])
        return out

    @property
    def depth(self):
        return self._tree.depth

    def column_key(self, g):
        w, v = g
        return self._tree.column_key(w), self._lattice.column_key(v)

    def _column_values(self, key):
        return self._mix(self._tree._key_column(key[0]),
                         self._lattice._key_column(key[1]))

    def _level_masses(self):
        logs = [np.array([math.log(x) if x > 0.0 else NEG_INF
                          for x in map(c.level_mass, range(self.depth + 1))])
                for c in (self._tree, self._lattice)]
        return np.exp(self._mix(*logs)).tolist()


# ---------------------------------------------------------------------------
# construction and (de)serialization
# ---------------------------------------------------------------------------

# the recipe engines, each fitting one kind of group: ArrayPowers serves
# the first two, CartesianPowers the third
_ARRAY_ENGINES = ("dense", "radial", "radial-lattice")


def pick_engine(descriptor: GroupDescriptor, mu: ScaledMeasure) -> str:
    """Fastest applicable engine for this (descriptor, measure) pair: the
    array engine for isotropic free-group and lattice walks, the product
    engine for Cartesian walks on F_s x Z^d with an isotropic tree factor,
    else the generic engine."""
    name = _array_engine_name(descriptor)
    if isinstance(descriptor, ProductGroup):
        factors = _product_factors(descriptor, mu)
        if factors is None:
            return "generic"
        descriptor, mu = descriptor.left, factors[0][0]
    if isinstance(descriptor, FreeGroup):
        try:
            radial_reduce(mu, descriptor)
        except IsotropyError:
            return "generic"
    return name if isinstance(descriptor, (FreeGroup, LatticeGroup)) else "generic"


def convolution_powers(descriptor: GroupDescriptor, mu: ScaledMeasure, depth: int,
                       engine: str = "auto",
                       support_cap: int = DEFAULT_SUPPORT_CAP,
                       memory_budget_mb=None, track=None) -> PowersCache:
    """Compute and retain mu^{*m} for m = 0..depth.

    ``engine`` is ``auto`` (``pick_engine``) or one engine name.  A
    ``radial`` or ``dense`` run keeps each level on a box around the
    origin and replays the build for a column outside it
    (``ArrayPowers``); a ``radial-lattice`` (product) run keeps its two
    factors that way.  Every level of every array cache stays queryable
    everywhere.  ``memory_budget_mb`` and ``track`` are accepted and
    ignored.  The generic engine is bounded by ``support_cap`` and by its
    int32 ids.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    name = pick_engine(descriptor, mu) if engine == "auto" else engine
    if name in _ARRAY_ENGINES:
        if name != _array_engine_name(descriptor):
            raise PreconditionError(
                f"engine {name!r} does not serve walks on {descriptor.spec_string()}"
            )
        cls = CartesianPowers if name == "radial-lattice" else ArrayPowers
        return cls(descriptor, mu, depth)
    if name == "generic":
        return GenericPowers(descriptor, mu, depth, support_cap=support_cap)
    raise ValueError(f"unknown engine {name!r}")


def export_cache_json(cache: PowersCache) -> str:
    """Serialize a cache: descriptor, measure, depth and, on the generic
    engine, every level.  An array cache is its recipe, so its payload is
    empty, whatever its box has widened to."""
    payload = cache.export_payload() if isinstance(cache, GenericPowers) else {}
    fmt = cache.descriptor.format
    mu_entries = [
        [fmt(g), float(v)] for g, v in sorted(
            cache.mu.support.items(),
            key=lambda gv: cache.descriptor.sort_key(gv[0]),
        )
    ]
    doc = {
        "format": "walkops-powers-cache",
        "version": ARTIFACT_VERSION,
        "descriptor": cache.descriptor.spec_string(),
        "engine": cache.engine_name,
        "depth": cache.depth,
        "complete": cache.complete,
        "budget_note": cache.budget_note,
        "measure": {
            "entries": mu_entries,
            "log_scale": cache.mu.log_scale,
        },
        "payload": payload,
    }
    return json.dumps(doc, sort_keys=True)


def import_cache_json(text: str) -> PowersCache:
    """Rebuild a cache from ``export_cache_json`` text: a generic cache from
    its payload, an array cache by one ``convolution_powers`` build, which
    always completes.

    Any malformed artifact (bad JSON, another format or version, missing or
    mistyped fields, an inconsistent payload) raises ValueError, which
    callers treat as a cache miss.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "walkops-powers-cache":
        raise ValueError("not a walkops powers-cache artifact")
    if doc.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"powers-cache artifact version {doc.get('version')!r}, "
            f"expected {ARTIFACT_VERSION}"
        )
    engine = doc.get("engine")
    if engine not in ("generic", *_ARRAY_ENGINES):
        raise ValueError(f"unknown engine {engine!r} in powers-cache artifact")
    try:
        descriptor = descriptor_from_string(doc["descriptor"])
        mu = ScaledMeasure(
            support={descriptor.parse(t): float(v) for t, v in doc["measure"]["entries"]},
            log_scale=float(doc["measure"]["log_scale"]),
        )
        payload, depth = doc["payload"], doc["depth"]
        if type(depth) is not int or depth < 0:
            raise ValueError(f"malformed powers-cache artifact: depth {depth!r}")
        if engine == "generic":
            cache = GenericPowers._from_payload(descriptor, mu, payload)
        elif payload != {}:
            raise ValueError("malformed powers-cache artifact: an array cache "
                             "is stored as its recipe, with an empty payload")
        else:
            cache = convolution_powers(descriptor, mu, depth, engine=engine)
        complete = doc["complete"]
        budget_note = doc.get("budget_note", "")
    except (LookupError, TypeError, AttributeError, WalkopsError) as exc:
        raise ValueError(f"malformed powers-cache artifact: {exc!r}") from exc
    if not isinstance(complete, bool) or not isinstance(budget_note, str):
        raise ValueError("malformed powers-cache artifact: bad complete/budget_note")
    if engine != "generic" and (not complete or budget_note):
        raise ValueError("malformed powers-cache artifact: an array build "
                         "always completes, with no budget note")
    if depth != cache.depth:
        raise ValueError(
            f"powers-cache artifact depth {depth!r} but {cache.depth} levels stored"
        )
    cache.complete = complete
    cache.budget_note = budget_note
    return cache
