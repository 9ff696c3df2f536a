"""Convolution-power caches: every level of mu^{*m} for m = 0..M.

Iterative powering (never binary) so that ratio sequences can read every
level.  Three engines share one query interface:

* ``radial``         isotropic free-group walks, O(m) radii per level
* lattice array      one array over (tree radius, lattice point) per level;
                     serves lattice walks as ``dense`` (a trivial tree, one
                     radius) and Cartesian (isotropic free) x (lattice)
                     walks as ``radial-lattice``
* ``generic``        anything else, interned-element scatter-add loops

An entry of mu^{*m} "exists" exactly when it is present/positive in the
level storage; zeros are never stored.  Each level keeps mantissas with a
shared log scale, so entry ratios within a level are exact float
quotients.

Retention is ``full`` (every level queryable everywhere) or ``tracked``
(every level queryable on a declared element set / region only, bounding
memory for deep caches).

The radial and array engines compute a level's mass on the first
``level_mass`` call and memoize it: ``log_radial_mass`` is an O(m) Python
loop per level, which no build needs.  A level keeps what its mass needs
(its radial values, or the per-radius row sums of its full array, also
where a tracked level keeps only part of that array).

``log_column(g)`` is the whole history of one entry: log mu^{*m}(g) for
m = 0..depth as a read-only float array, -inf where the entry is absent.
Each entry is computed exactly as ``log_value`` computes it, so the two
agree bit for bit, and the cache memoizes one column per key, built on
first request.  The key is what the entry depends on in each engine: the
tree radius ``len(g)`` on ``radial`` (so a ratio sequence there depends
only on |x^-1 y| and |y|), the (tree radius, lattice point) coordinates on
the array engine, and the element itself on ``generic`` (one
``searchsorted`` per level).  A tracked cache raises ``CoverageError`` for
an element outside its tracked set or region, as ``log_value`` does.  Scans
over levels (ratio sequences, bound constants, return ratios, Green sums,
the Fock window) read columns, never ``log_value`` level by level; the
period of the walk is read once per cache from the identity's column
(``aperiodicity``).

``export_cache_json`` writes a version-4 JSON artifact whose numbers are
packed arrays (``_pack``: dtype, shape and the base64 of the little-endian
bytes; integers as ``<i4`` where they fit, else ``<i8``, floats as ``<f8``,
so every bit survives).  Every engine stores its levels concatenated, with
per-level ``sizes`` (or ``shapes``) and ``log_scales``:

* ``generic``        the element table as the descriptor's
                     ``encode_elements`` arrays (elements in id order), one
                     ``ids`` array of sorted per-level ids into that table
                     and one ``vals`` array
* ``radial``         one ``values`` array of per-radius values
* lattice array      ``lat_lo`` (levels, d), ``shapes`` (levels, d + 1) and
                     the raveled level arrays as one ``values`` array

``import_cache_json`` rejects any other version and any malformed artifact
with ValueError: a packed array whose bytes do not fill its shape, or whose
dtype is not one of the three; elements that do not decode to canonical,
distinct elements with the identity at id 0; ids that are not strictly
increasing within a level or fall outside the table; stored values that
are not finite and positive (non-negative on the array and radial
engines); empty levels; log scales that are not finite.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import (
    BudgetExceededError,
    CoverageError,
    PreconditionError,
    WalkopsError,
)
from .groups import (
    FreeGroup,
    GroupDescriptor,
    LatticeGroup,
    ProductGroup,
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
    sphere_size,
)

DEFAULT_SUPPORT_CAP = 2_000_000
DEFAULT_MEMORY_BUDGET_MB = 512
# version 2: one array payload (lat_lo, (r, *lattice) values) for the
# dense and radial-lattice engines; version 3: the generic payload is an
# element table plus per-level id and value lists; version 4: every payload
# is packed arrays, the generic element table included
ARTIFACT_VERSION = 4
_PACKED_DTYPES = ("<i4", "<i8", "<f8")


class PowersCache:
    """Base cache: query interface over per-level storage."""

    engine_name = "abstract"

    def __init__(self, descriptor: GroupDescriptor, mu: ScaledMeasure):
        self.descriptor = descriptor
        self.mu = mu
        self.complete = True
        self.budget_note = ""
        self._columns: dict = {}     # column key -> read-only log column
        self._aperiodicity = None    # (aperiodic, period) over the whole cache

    # -- to be provided by engines ------------------------------------------

    @property
    def depth(self) -> int:
        raise NotImplementedError

    def log_value(self, m: int, g) -> float:
        """log mu^{*m}(g); -inf when the entry is absent (true zero)."""
        raise NotImplementedError

    def _column_key(self, g):
        """What log mu^{*m}(g) depends on here; CoverageError where a tracked
        cache does not keep g."""
        raise NotImplementedError

    def _column_values(self, key) -> list:
        """log mu^{*m} at ``key`` for m = 0..depth, as ``log_value`` computes
        each entry."""
        raise NotImplementedError

    def level_mass(self, m: int) -> float:
        raise NotImplementedError

    def level_log_scale(self, m: int) -> float:
        raise NotImplementedError

    # -- shared queries -------------------------------------------------------

    def _check_level(self, m: int):
        if not 0 <= m <= self.depth:
            raise CoverageError(f"level {m} outside cache depth {self.depth}")

    def log_column(self, g) -> np.ndarray:
        """log mu^{*m}(g) for m = 0..depth, -inf where absent; read-only and
        memoized per engine key, and equal to ``log_value`` bit for bit."""
        key = self._column_key(g)
        col = self._columns.get(key)
        if col is None:
            col = np.array(self._column_values(key), dtype=float)
            col.flags.writeable = False
            self._columns[key] = col
        return col

    def aperiodicity(self) -> tuple:
        """(aperiodic, period) of the walk over the whole cache, derived
        once by ``is_aperiodic``."""
        if self._aperiodicity is None:
            self._aperiodicity = is_aperiodic(self)
        return self._aperiodicity

    def value(self, m: int, g) -> float:
        lv = self.log_value(m, g)
        return math.exp(lv) if lv > NEG_INF else 0.0

    def has_value(self, m: int, g) -> bool:
        return self.log_value(m, g) > NEG_INF

    def log_transition(self, m: int, x, y) -> float:
        """log P^(m)_{x,y} = log mu^{*m}(x^-1 y)."""
        return self.log_value(m, self.descriptor.multiply(self.descriptor.inverse(x), y))

    def has_edge(self, m: int, x, y) -> bool:
        return self.log_transition(m, x, y) > NEG_INF

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

    def export_payload(self) -> dict:
        raise NotImplementedError

    def _setup(self):
        """Measure-derived state, shared by construction and import."""
        raise NotImplementedError

    def _load_payload(self, payload: dict):
        """Restore and check the levels of ``export_payload``; runs after
        ``_setup``."""
        raise NotImplementedError

    @classmethod
    def _from_payload(cls, descriptor, mu, payload):
        self = cls.__new__(cls)
        PowersCache.__init__(self, descriptor, mu)
        self._setup()
        self._load_payload(payload)
        return self


def transition(cache: PowersCache, n: int, x, y) -> float:
    """P^(n)_{x,y} as a plain float (0.0 when the edge is absent)."""
    lv = cache.log_transition(n, x, y)
    return math.exp(lv) if lv > NEG_INF else 0.0


def is_aperiodic(cache: PowersCache, probe_depth: int | None = None):
    """(aperiodic, period) from the gcd of return times within the cache.

    The gcd is folded along the identity's column and the scan stops once
    it is 1, so an aperiodic walk reads as many levels as its first coprime
    return times.  ``PowersCache.aperiodicity`` memoizes the full-depth
    answer.
    """
    col = cache.log_column(cache.descriptor.identity())
    top = cache.depth if probe_depth is None else min(probe_depth, cache.depth)
    period = 0
    for m in range(1, top + 1):
        if col[m] > NEG_INF:
            period = math.gcd(period, m)
            if period == 1:
                break
    if not period:
        raise PreconditionError(
            f"no return to identity within {top} steps; period undetectable"
        )
    return period == 1, period


def _log_entry(val, log_scale: float) -> float:
    """log of a stored entry (mantissa ``val`` under the level's log scale);
    -inf when the entry is absent (zero).  The one formula behind
    ``log_value`` and ``log_column`` on every engine."""
    return math.log(val) + log_scale if val > 0.0 else NEG_INF


def _pack(arr) -> dict:
    """A numeric array as JSON: dtype, shape and the base64 of its
    little-endian bytes.  Integers are stored as ``<i4`` where they fit,
    else ``<i8``; floats as ``<f8``, bit for bit."""
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        dtype = "<f8"
    elif arr.dtype.kind == "i":
        fits = not arr.size or (arr.min() >= -2**31 and arr.max() < 2**31)
        dtype = "<i4" if fits else "<i8"
    else:
        raise TypeError(f"cannot pack a {arr.dtype} array")
    data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(arr.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _unpack(doc) -> np.ndarray:
    """The read-only array of a ``_pack`` document; ValueError when the
    document is malformed or its bytes do not fill its shape."""
    dtype, shape, data = doc["dtype"], doc["shape"], doc["data"]
    if dtype not in _PACKED_DTYPES:
        raise ValueError(f"packed array dtype {dtype!r}, expected one of "
                         f"{_PACKED_DTYPES}")
    if not (isinstance(shape, list) and all(
            type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"packed array shape {shape!r}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, TypeError) as exc:
        raise ValueError(f"packed array data is not base64: {exc}") from exc
    dt = np.dtype(dtype)
    if len(raw) != math.prod(shape) * dt.itemsize:
        raise ValueError(
            f"packed array holds {len(raw)} bytes, shape {shape} of {dtype} "
            f"needs {math.prod(shape) * dt.itemsize}"
        )
    return np.frombuffer(raw, dtype=dt).reshape(shape)


def _unpack_values(doc, what: str, positive: bool = False) -> np.ndarray:
    """A packed 1-d float array of stored values, finite and non-negative
    (positive when ``positive``)."""
    vals = _unpack(doc)
    if (vals.dtype.kind != "f" or vals.ndim != 1 or not np.all(np.isfinite(vals))
            or not np.all(vals > 0.0 if positive else vals >= 0.0)):
        raise ValueError(
            f"{what}: values are not one 1-d array of finite "
            f"{'positive' if positive else 'non-negative'} floats"
        )
    return vals


def _level_bounds(payload, what: str, total: int, sizes: np.ndarray) -> tuple:
    """Where a concatenation of ``total`` level entries splits into levels
    of ``sizes`` entries (each at least 1, all entries used), and the
    payload's finite ``log_scales``, one per level, as Python floats."""
    log_scales = _unpack(payload["log_scales"])
    if (sizes.dtype.kind != "i" or sizes.ndim != 1 or np.any(sizes < 1)
            or int(sizes.sum(dtype=np.int64)) != total):
        raise ValueError(
            f"{what}: level sizes are not positive counts summing to {total}"
        )
    if (log_scales.dtype.kind != "f" or log_scales.shape != sizes.shape
            or not np.all(np.isfinite(log_scales))):
        raise ValueError(f"{what}: log_scales are not one finite float per level")
    return np.cumsum(sizes, dtype=np.int64)[:-1], log_scales.tolist()


def _radial_level_mass(row_values: np.ndarray, q: int, log_scale: float) -> float:
    """Mass of a level from its per-radius values (mantissa units)."""
    logs = log_radial_mass(row_values, q)
    return math.exp(logs + log_scale) if logs > NEG_INF else 0.0


# ---------------------------------------------------------------------------
# generic engine
# ---------------------------------------------------------------------------

class _Interner:
    """Stable element <-> integer-id table shared by all levels.

    The per-element work happens here, once per distinct element: a new
    element is checked when it enters, and the artifact stores the table
    once, as the descriptor's element arrays.
    """

    def __init__(self, descriptor):
        e = descriptor.identity()
        self._check = descriptor.check
        self.elements = [e]
        self.index = {e: 0}

    def intern(self, g) -> int:
        i = self.index.get(g)
        if i is None:
            self._check(g)
            i = len(self.elements)
            self.index[g] = i
            self.elements.append(g)
        return i

    def load(self, elements: list):
        """Replace the table by ``elements`` (decoded, hence canonical)."""
        index = {g: i for i, g in enumerate(elements)}
        if not elements or elements[0] != self.elements[0]:
            raise ValueError("generic payload: the identity is not element 0")
        if len(index) != len(elements):
            raise ValueError("generic payload: the element table repeats an element")
        self.elements = elements
        self.index = index

    def __len__(self):
        return len(self.elements)


@dataclass
class _Level:
    ids: np.ndarray       # sorted int64 interned ids with positive mass
    vals: np.ndarray      # mantissas, max 1
    log_scale: float
    mass: float


def _stored(level: _Level, i: int):
    """The mantissa of interned id ``i`` in ``level`` (one searchsorted),
    0.0 when the level does not hold it."""
    pos = int(np.searchsorted(level.ids, i))
    return level.vals[pos] if pos < len(level.ids) and level.ids[pos] == i else 0.0


class GenericPowers(PowersCache):
    """Keyed-support engine over interned ids; scatter-add hot loop."""

    engine_name = "generic"

    def __init__(self, descriptor, mu, depth, support_cap=DEFAULT_SUPPORT_CAP,
                 track=None):
        super().__init__(descriptor, mu)
        self._setup()
        if track is not None:
            self._track_set = set(track)
            self._track_set.add(descriptor.identity())
        self._push_level(np.array([0], dtype=np.int64), np.array([1.0]), 0.0)
        for m in range(1, depth + 1):
            try:
                self._step(support_cap)
            except BudgetExceededError as exc:
                self.complete = False
                self.budget_note = f"stopped at level {m - 1}: {exc}"
                break

    def _setup(self):
        items = sorted(self.mu.support.items(),
                       key=lambda gv: self.descriptor.sort_key(gv[0]))
        self._mu_elems = [g for g, _ in items]
        # the one check of the operands; products are checked as interned
        self.descriptor.check(*self._mu_elems)
        self._mu_vals = np.array([v for _, v in items])
        self._mu_ls = self.mu.log_scale
        self._interner = _Interner(self.descriptor)
        self._rows = np.full((256, len(self._mu_elems)), -1, dtype=np.int64)
        self._track_set = None
        self._levels: list = []
        self._tracked_levels: list = []

    def _push_level(self, ids, vals, log_scale):
        mass = math.exp(math.log(math.fsum(vals)) + log_scale)
        level = _Level(ids=ids, vals=vals, log_scale=log_scale, mass=mass)
        if self._track_set is None:
            self._levels.append(level)
        else:
            tracked = {}
            for g in self._track_set:
                i = self._interner.index.get(g)
                if i is not None:
                    pos = np.searchsorted(ids, i)
                    if pos < len(ids) and ids[pos] == i:
                        tracked[g] = float(vals[pos])
            self._tracked_levels.append((tracked, log_scale, mass))
            self._current = level

    def _ensure_rows(self, ids):
        inter = self._interner
        mul = self.descriptor._mul
        elems = inter.elements
        missing = ids[self._rows[ids, 0] < 0]
        for i in missing.tolist():
            g = elems[i]
            row = [inter.intern(mul(g, s)) for s in self._mu_elems]
            if len(inter) > self._rows.shape[0]:
                grown = np.full(
                    (max(2 * self._rows.shape[0], len(inter)), self._rows.shape[1]),
                    -1,
                    dtype=np.int64,
                )
                grown[: self._rows.shape[0]] = self._rows
                self._rows = grown
            self._rows[i] = row

    def _step(self, support_cap):
        level = self._levels[-1] if self._track_set is None else self._current
        self._ensure_rows(level.ids)
        acc = np.zeros(len(self._interner))
        _backend.scatter_add_outer(
            acc, np.ascontiguousarray(self._rows[level.ids]), level.vals, self._mu_vals
        )
        ids = np.flatnonzero(acc > 0.0).astype(np.int64)
        if len(ids) > support_cap:
            raise BudgetExceededError(
                f"support {len(ids)} exceeds cap {support_cap}"
            )
        vals = acc[ids]
        peak = vals.max()
        self._push_level(
            ids, vals / peak, level.log_scale + self._mu_ls + math.log(peak)
        )

    @property
    def depth(self):
        n = len(self._levels) if self._track_set is None else len(self._tracked_levels)
        return n - 1

    def log_value(self, m, g):
        self._check_level(m)
        if self._track_set is not None:
            if g not in self._track_set:
                raise CoverageError(
                    "element not in the tracked set of this cache"
                )
            tracked, ls, _ = self._tracked_levels[m]
            return _log_entry(tracked.get(g, 0.0), ls)
        i = self._interner.index.get(g)
        if i is None:
            return NEG_INF
        level = self._levels[m]
        return _log_entry(_stored(level, i), level.log_scale)

    def _column_key(self, g):
        if self._track_set is not None and g not in self._track_set:
            raise CoverageError("element not in the tracked set of this cache")
        return g

    def _column_values(self, g):
        if self._track_set is not None:
            return [_log_entry(tracked.get(g, 0.0), ls)
                    for tracked, ls, _ in self._tracked_levels]
        i = self._interner.index.get(g)
        if i is None:
            return [NEG_INF] * len(self._levels)
        return [_log_entry(_stored(level, i), level.log_scale) for level in self._levels]

    def level_mass(self, m):
        self._check_level(m)
        if self._track_set is not None:
            return self._tracked_levels[m][2]
        return self._levels[m].mass

    def level_log_scale(self, m):
        self._check_level(m)
        if self._track_set is not None:
            return self._tracked_levels[m][1]
        return self._levels[m].log_scale

    def level_measure(self, m):
        self._check_level(m)
        if self._track_set is not None:
            raise CoverageError("tracked cache cannot materialize full levels")
        level = self._levels[m]
        elems = self._interner.elements
        return ScaledMeasure(
            support={elems[i]: float(v) for i, v in zip(level.ids.tolist(), level.vals)},
            log_scale=level.log_scale,
            step_index=m,
        )

    def support_size(self, m):
        self._check_level(m)
        if self._track_set is not None:
            raise CoverageError("tracked cache does not keep full supports")
        return len(self._levels[m].ids)

    def export_payload(self):
        if self._track_set is not None:
            raise CoverageError("tracked caches are not exportable")
        arrays = self.descriptor.encode_elements(self._interner.elements)
        levels = self._levels
        return {
            "elements": {key: _pack(arr) for key, arr in arrays.items()},
            "sizes": _pack([len(level.ids) for level in levels]),
            "log_scales": _pack([level.log_scale for level in levels]),
            "ids": _pack(np.concatenate([level.ids for level in levels])),
            "vals": _pack(np.concatenate([level.vals for level in levels])),
        }

    def _load_payload(self, payload):
        arrays = {key: _unpack(doc) for key, doc in payload["elements"].items()}
        self._interner.load(self.descriptor.decode_elements(arrays))
        n = len(self._interner)
        ids = _unpack(payload["ids"])
        vals = _unpack_values(payload["vals"], "generic payload", positive=True)
        if ids.dtype.kind != "i" or ids.shape != vals.shape:
            raise ValueError("generic payload: ids and vals are not one id per value")
        bounds, log_scales = _level_bounds(payload, "generic payload", len(ids),
                                           _unpack(payload["sizes"]))
        id_levels = np.split(ids.astype(np.int64), bounds)
        if (len(ids) and (ids.min() < 0 or ids.max() >= n)) or any(
                np.any(level[1:] <= level[:-1]) for level in id_levels):
            raise ValueError(
                "generic payload: level ids are not strictly increasing "
                f"ids below {n}"
            )
        for level_ids, level_vals, log_scale in zip(
                id_levels, np.split(vals, bounds), log_scales):
            self._push_level(level_ids, level_vals, log_scale)


# ---------------------------------------------------------------------------
# radial free-group engine
# ---------------------------------------------------------------------------

class RadialFreePowers(PowersCache):
    """Isotropic walks on F_s: per-level per-element values by tree radius."""

    engine_name = "radial"

    def __init__(self, descriptor: FreeGroup, mu, depth):
        super().__init__(descriptor, mu)
        self._setup()
        self._levels.append((np.array([1.0]), 0.0))
        for _ in range(depth):
            self._step()

    def _setup(self):
        radial = radial_reduce(self.mu, self.descriptor)
        self.q = radial.tree_degree
        self._mu_vals = radial.values
        self._mu_ls = radial.log_scale
        # levels: (values, log_scale); masses are computed on first request
        self._levels = []
        self._masses: dict = {}

    def _step(self):
        vals, ls = self._levels[-1]
        out = radial_step(vals, self._mu_vals, self.q)
        peak = out.max()
        out /= peak
        self._levels.append((out, ls + self._mu_ls + math.log(peak)))

    @property
    def depth(self):
        return len(self._levels) - 1

    def log_value_at_radius(self, m, r):
        self._check_level(m)
        vals, ls = self._levels[m]
        return _log_entry(vals[r] if 0 <= r < len(vals) else 0.0, ls)

    def log_value(self, m, g):
        return self.log_value_at_radius(m, len(g))

    def _column_key(self, g):
        return len(g)

    def _column_values(self, r):
        return [_log_entry(vals[r] if r < len(vals) else 0.0, ls)
                for vals, ls in self._levels]

    def level_mass(self, m):
        self._check_level(m)
        if m not in self._masses:
            vals, ls = self._levels[m]
            self._masses[m] = _radial_level_mass(vals, self.q, ls)
        return self._masses[m]

    def level_log_scale(self, m):
        self._check_level(m)
        return self._levels[m][1]

    def level_radial(self, m) -> RadialMeasure:
        self._check_level(m)
        vals, ls = self._levels[m]
        return RadialMeasure(
            values=vals.copy(), log_scale=ls, tree_degree=self.q, step_index=m
        )

    def level_measure(self, m):
        raise CoverageError(
            "radial levels are not materialized per element; "
            "use level_radial or support_in_ball"
        )

    def export_payload(self):
        return {
            "sizes": _pack([len(vals) for vals, _ in self._levels]),
            "log_scales": _pack([ls for _, ls in self._levels]),
            "values": _pack(np.concatenate([vals for vals, _ in self._levels])),
        }

    def _load_payload(self, payload):
        values = _unpack_values(payload["values"], "radial payload")
        bounds, log_scales = _level_bounds(payload, "radial payload", len(values),
                                           _unpack(payload["sizes"]))
        self._levels = list(zip(np.split(values, bounds), log_scales))


# ---------------------------------------------------------------------------
# lattice and Cartesian (isotropic free) x (lattice) engine
# ---------------------------------------------------------------------------

def _cartesian_split(descriptor: GroupDescriptor, mu: ScaledMeasure):
    """Split a lattice or Cartesian free x lattice measure into radial tree
    values + lattice offsets.

    Returns (tree_values, lattice_offsets) in mantissa units, or None when
    the measure moves both coordinates at once (not a Cartesian mixture).
    Mass at the identity is carried by the tree part (either choice acts as
    the identity in the step); on a lattice, whose tree factor is trivial,
    that is all the tree part holds.
    """
    if isinstance(descriptor, LatticeGroup):
        zero = descriptor.identity()
        lat = {v: mass for v, mass in mu.support.items() if v != zero}
        return np.array([mu.support.get(zero, 0.0)]), lat
    if not isinstance(descriptor, ProductGroup):
        return None
    left, right = descriptor.left, descriptor.right
    if not isinstance(left, FreeGroup) or not isinstance(right, LatticeGroup):
        return None
    e_l, zero = left.identity(), right.identity()
    q = 2 * left.rank
    tree_elems: dict = {}
    lat: dict = {}
    for (w, v), mass in mu.support.items():
        if v == zero:
            tree_elems[w] = mass
        elif w == e_l:
            lat[v] = mass
        else:
            return None
    if not tree_elems:
        tree_vals = np.array([0.0])
    else:
        by_radius: dict = {}
        for w, mass in tree_elems.items():
            by_radius.setdefault(len(w), []).append(mass)
        values = np.zeros(max(by_radius) + 1)
        for r, masses in by_radius.items():
            if len(masses) != sphere_size(q, r):
                raise IsotropyError(
                    f"tree factor of the Cartesian measure misses sphere {r} elements"
                )
            lo, hi = min(masses), max(masses)
            if hi - lo > 1e-12 * hi:
                raise IsotropyError(
                    f"tree factor of the Cartesian measure is not isotropic at radius {r}"
                )
            values[r] = masses[0]
        tree_vals = values
    return tree_vals, lat


def _row_sums(arr: np.ndarray) -> np.ndarray:
    """Per-tree-radius sums of a (r, *lattice) level array."""
    return arr.reshape(arr.shape[0], -1).sum(axis=1)


def _cell(level, r, v):
    """The stored mantissa at (tree radius r, lattice point v) of an array
    level, 0.0 when the point lies outside its array."""
    lat_lo, arr, _, _ = level
    idx = (r,) + tuple(c - l for c, l in zip(v, lat_lo))
    return arr[idx] if all(0 <= i < n for i, n in zip(idx, arr.shape)) else 0.0


def _lattice_coords(v):
    return 0, v


def _product_coords(g):
    return len(g[0]), g[1]


class RadialLatticePowers(PowersCache):
    """Walks on Z^d, and Cartesian walks on F_s x Z^d with an isotropic
    tree factor.

    Level state: value per (tree radius, lattice point); the step is a
    radial tree move plus lattice shifted adds, both linear in the state.
    A lattice walk is the case of the trivial tree (degree 0, radius 0
    only); its engine name is ``dense``, a product's is ``radial-lattice``.
    """

    def __init__(self, descriptor, mu, depth,
                 memory_budget_mb=DEFAULT_MEMORY_BUDGET_MB, track=None):
        super().__init__(descriptor, mu)
        self._setup()
        d = len(self._lo_step)
        est = self._estimate_bytes(depth)
        if est > memory_budget_mb * 2**20:
            if track is None:
                raise BudgetExceededError(
                    f"full retention needs ~{est / 2**20:.0f} MiB "
                    f"(budget {memory_budget_mb} MiB); pass a track set"
                )
            pts = [self._coords(g) for g in list(track) + [descriptor.identity()]]
            self._track_region = (
                max(r for r, _ in pts),
                tuple(min(v[i] for _, v in pts) for i in range(d)),
                tuple(max(v[i] for _, v in pts) for i in range(d)),
            )
        self._current = ((0,) * d, np.ones((1,) * (d + 1)), 0.0, np.ones(1))
        self._levels.append(self._current)
        for _ in range(depth):
            self._step()

    def _setup(self):
        descriptor = self.descriptor
        split = _cartesian_split(descriptor, self.mu)
        if split is None:
            raise PreconditionError(
                "measure is not a Cartesian mixture on free x lattice"
            )
        self._tree_vals, lat = split
        if isinstance(descriptor, LatticeGroup):
            self.engine_name = "dense"
            self.q = 0
            lattice = descriptor
            self._coords = _lattice_coords
        else:
            self.engine_name = "radial-lattice"
            self.q = 2 * descriptor.left.rank
            lattice = descriptor.right
            self._coords = _product_coords
        # the order of the shifted adds fixes the summation order, hence the bits
        self._moves = sorted(lat.items(), key=lambda vm: lattice.sort_key(vm[0]))
        self._mu_ls = self.mu.log_scale
        d = lattice.dimension
        offs = list(lat) + [lattice.identity()]
        self._lo_step = tuple(min(o[i] for o in offs) for i in range(d))
        self._hi_step = tuple(max(o[i] for o in offs) for i in range(d))
        self._r_step = len(self._tree_vals) - 1
        self._track_region = None
        # levels: (lat_lo, array[(r, *lattice)], log_scale, row sums); the
        # row sums are those of the full level array, which a tracked level
        # does not keep, and give its mass on first request
        self._levels = []
        self._masses: dict = {}

    def _estimate_bytes(self, depth):
        total = 0
        width = tuple(h - l for l, h in zip(self._lo_step, self._hi_step))
        for m in range(depth + 1):
            cells = m * self._r_step + 1
            for w in width:
                cells *= m * w + 1
            total += cells * 8
        return total

    def _step(self):
        lat_lo, arr, ls, _ = self._current
        d = len(lat_lo)
        lo_new = tuple(l + s for l, s in zip(lat_lo, self._lo_step))
        hi_new = tuple(
            l + n - 1 + s
            for l, n, s in zip(lat_lo, arr.shape[1:], self._hi_step)
        )
        lat_shape = tuple(h - l + 1 for l, h in zip(lo_new, hi_new))
        out = np.zeros((arr.shape[0] + self._r_step,) + lat_shape)
        # tree-factor move (and the identity mass): radial step along axis 0,
        # lattice unchanged
        emb = tuple(
            slice(ol - nl, ol - nl + n)
            for ol, nl, n in zip(lat_lo, lo_new, arr.shape[1:])
        )
        out[(slice(None),) + emb] += radial_step(arr, self._tree_vals, self.q)
        # lattice-factor moves: shifted adds at fixed tree radius
        for v, mass in self._moves:
            start = tuple(ol + vc - nl for ol, vc, nl in zip(lat_lo, v, lo_new))
            sl = tuple(slice(s, s + n) for s, n in zip(start, arr.shape[1:]))
            out[(slice(0, arr.shape[0]),) + sl] += mass * arr
        peak = out.max()
        out /= peak
        ls_new = ls + self._mu_ls + math.log(peak)
        sums = _row_sums(out)
        full = (lo_new, out, ls_new, sums)
        self._current = full
        if self._track_region is None:
            self._levels.append(full)
        else:
            r_keep, tlo, thi = self._track_region
            clo = tuple(max(a, b) for a, b in zip(lo_new, tlo))
            chi = tuple(
                min(l + n - 1, b) for l, n, b in zip(lo_new, lat_shape, thi)
            )
            if any(a > b for a, b in zip(clo, chi)):
                self._levels.append((clo, np.zeros((0,) * (d + 1)), ls_new, sums))
            else:
                sl = tuple(slice(a - l, b - l + 1) for a, b, l in zip(clo, chi, lo_new))
                keep = out[(slice(0, min(r_keep + 1, out.shape[0])),) + sl].copy()
                self._levels.append((clo, keep, ls_new, sums))

    @property
    def depth(self):
        return len(self._levels) - 1

    def log_value(self, m, g):
        self._check_level(m)
        r, v = self._column_key(g)
        level = self._levels[m]
        return _log_entry(_cell(level, r, v), level[2])

    def _column_key(self, g):
        # a tracked level's array lies inside the tracked region, so a point
        # outside the region is outside every stored level
        r, v = self._coords(g)
        if self._track_region is not None and not self._inside_track(r, v):
            raise CoverageError("element outside the tracked region of this cache")
        return r, v

    def _column_values(self, key):
        r, v = key
        return [_log_entry(_cell(level, r, v), level[2]) for level in self._levels]

    def _inside_track(self, r, v):
        r_keep, tlo, thi = self._track_region
        return r <= r_keep and all(a <= c <= b for c, a, b in zip(v, tlo, thi))

    def level_mass(self, m):
        self._check_level(m)
        if m not in self._masses:
            _, _, ls, sums = self._levels[m]
            self._masses[m] = _radial_level_mass(sums, self.q, ls)
        return self._masses[m]

    def level_log_scale(self, m):
        self._check_level(m)
        return self._levels[m][2]

    def level_measure(self, m):
        """A lattice level as a measure.  On a product a tree radius stands
        for a whole sphere of elements, so product levels are not
        materialized (CoverageError)."""
        if self.q:
            return super().level_measure(m)
        self._check_level(m)
        if self._track_region is not None:
            raise CoverageError("tracked cache cannot materialize full levels")
        lat_lo, arr, ls, _ = self._levels[m]
        support = {}
        for idx in np.argwhere(arr[0] > 0.0):
            g = tuple(int(i + l) for i, l in zip(idx, lat_lo))
            support[g] = float(arr[(0,) + tuple(idx)])
        return ScaledMeasure(support=support, log_scale=ls, step_index=m)

    def export_payload(self):
        if self._track_region is not None:
            raise CoverageError("tracked caches are not exportable")
        levels = self._levels
        return {
            "lat_lo": _pack([lat_lo for lat_lo, _, _, _ in levels]),
            "shapes": _pack([arr.shape for _, arr, _, _ in levels]),
            "log_scales": _pack([ls for _, _, ls, _ in levels]),
            "values": _pack(np.concatenate([arr.ravel() for _, arr, _, _ in levels])),
        }

    def _load_payload(self, payload):
        what = f"{self.engine_name} payload"
        values = _unpack_values(payload["values"], what)
        lat_lo = _unpack(payload["lat_lo"])
        shapes = _unpack(payload["shapes"])
        d = len(self._lo_step)
        if (lat_lo.dtype.kind != "i" or shapes.dtype.kind != "i"
                or lat_lo.ndim != 2 or lat_lo.shape[1] != d
                or shapes.shape != (len(lat_lo), d + 1) or np.any(shapes < 1)):
            raise ValueError(
                f"{what}: lat_lo and shapes do not give one (r, *lattice) array "
                "per level"
            )
        bounds, log_scales = _level_bounds(payload, what, len(values),
                                           shapes.prod(axis=1, dtype=np.int64))
        for lo, shape, flat, ls in zip(lat_lo.tolist(), shapes.tolist(),
                                       np.split(values, bounds), log_scales):
            arr = flat.reshape(shape)
            self._current = (tuple(lo), arr, ls, _row_sums(arr))
            self._levels.append(self._current)


# ---------------------------------------------------------------------------
# construction and (de)serialization
# ---------------------------------------------------------------------------

_ENGINES = {
    "generic": GenericPowers,
    "dense": RadialLatticePowers,
    "radial": RadialFreePowers,
    "radial-lattice": RadialLatticePowers,
}


def pick_engine(descriptor: GroupDescriptor, mu: ScaledMeasure) -> str:
    """Fastest applicable engine for this (descriptor, measure) pair."""
    if isinstance(descriptor, LatticeGroup):
        return "dense"
    if isinstance(descriptor, FreeGroup):
        try:
            radial_reduce(mu, descriptor)
            return "radial"
        except IsotropyError:
            return "generic"
    if isinstance(descriptor, ProductGroup):
        try:
            if _cartesian_split(descriptor, mu) is not None:
                return "radial-lattice"
        except IsotropyError:
            pass
        return "generic"
    return "generic"


def convolution_powers(descriptor: GroupDescriptor, mu: ScaledMeasure, depth: int,
                       engine: str = "auto",
                       support_cap: int = DEFAULT_SUPPORT_CAP,
                       memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
                       track=None) -> PowersCache:
    """Compute and retain mu^{*m} for m = 0..depth.

    ``track`` declares elements that must stay queryable at every level if
    full retention would blow the memory budget (deep dense/product runs).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    name = pick_engine(descriptor, mu) if engine == "auto" else engine
    if name == "radial":
        return RadialFreePowers(descriptor, mu, depth)
    if name in ("dense", "radial-lattice"):
        return RadialLatticePowers(
            descriptor, mu, depth, memory_budget_mb=memory_budget_mb, track=track
        )
    if name == "generic":
        return GenericPowers(
            descriptor, mu, depth, support_cap=support_cap, track=track
        )
    raise ValueError(f"unknown engine {name!r}")


def export_cache_json(cache: PowersCache) -> str:
    """Serialize a fully retained cache (descriptor + measure + all levels)."""
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
        "payload": cache.export_payload(),
    }
    return json.dumps(doc, sort_keys=True)


def import_cache_json(text: str) -> PowersCache:
    """Rebuild a cache from ``export_cache_json`` text.

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
    cls = _ENGINES.get(engine) if isinstance(engine, str) else None
    if cls is None:
        raise ValueError(f"unknown engine {engine!r} in powers-cache artifact")
    try:
        descriptor = descriptor_from_string(doc["descriptor"])
        mu = ScaledMeasure(
            support={descriptor.parse(t): float(v) for t, v in doc["measure"]["entries"]},
            log_scale=float(doc["measure"]["log_scale"]),
            step_index=1,
        )
        cache = cls._from_payload(descriptor, mu, doc["payload"])
        complete = doc["complete"]
        budget_note = doc.get("budget_note", "")
        depth = doc["depth"]
    except (LookupError, TypeError, AttributeError, WalkopsError) as exc:
        raise ValueError(f"malformed powers-cache artifact: {exc!r}") from exc
    if not isinstance(complete, bool) or not isinstance(budget_note, str):
        raise ValueError("malformed powers-cache artifact: bad complete/budget_note")
    if depth != cache.depth:
        raise ValueError(
            f"powers-cache artifact depth {depth!r} but {cache.depth} levels stored"
        )
    cache.complete = complete
    cache.budget_note = budget_note
    return cache
