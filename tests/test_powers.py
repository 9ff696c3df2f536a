"""Convolution-power engines: cross-engine equality, invariants, budgets."""

import base64
import copy
import itertools
import json
import math
import random
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import walkops as w
from walkops import powers
from walkops.errors import CoverageError, DescriptorMismatchError, PreconditionError
from walkops.measures import log_radial_mass, radial_reduce, radial_step
from walkops.powers import _pack, _unpack

DATA = Path(__file__).parent / "data"


def test_engine_selection(lattice1, lattice2, free2, lamp1, lazy_z, lazy_z2,
                          iso_f2, lamp_mu):
    assert w.convolution_powers(lattice1, lazy_z, 4).engine_name == "dense"
    assert w.convolution_powers(free2, iso_f2, 4).engine_name == "radial"
    assert w.convolution_powers(lamp1, lamp_mu, 4).engine_name == "generic"
    aniso = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    assert w.convolution_powers(free2, aniso, 4).engine_name == "generic"
    # each of the three recipe engine names serves one kind of group
    for desc, mu, name in ((lattice1, lazy_z, "radial"), (free2, iso_f2, "dense"),
                           (lattice1, lazy_z, "radial-lattice")):
        with pytest.raises(PreconditionError):
            w.convolution_powers(desc, mu, 2, engine=name)


def test_level_zero_is_point_mass(lattice1, lazy_z):
    cache = w.convolution_powers(lattice1, lazy_z, 0)
    assert cache.depth == 0
    assert cache.log_value(0, (0,)) == 0.0
    assert cache.log_value(0, (1,)) == -math.inf


def test_transition_examples(lazy_z_cache):
    def p(n, x, y):
        return math.exp(lazy_z_cache.log_transition(n, x, y))

    assert p(0, (5,), (5,)) == 1.0
    assert p(2, (0,), (0,)) == pytest.approx(3 / 8, rel=1e-13)
    assert p(2, (0,), (2,)) == pytest.approx(1 / 16, rel=1e-13)
    # G-invariance is exact: computed from x^-1 y
    assert p(7, (3,), (5,)) == p(7, (0,), (2,))


def test_mass_conservation_all_engines(lattice1, free2, lamp1, lazy_z, iso_f2,
                                       lamp_mu):
    for desc, mu, depth in (
        (lattice1, lazy_z, 40),
        (free2, iso_f2, 40),
        (lamp1, lamp_mu, 12),
    ):
        cache = w.convolution_powers(desc, mu, depth)
        for m in range(depth + 1):
            assert cache.level_mass(m) == pytest.approx(1.0, rel=1e-9), (
                cache.engine_name, m,
            )


def test_symmetric_measure_symmetric_levels(lamp1, lamp_mu):
    cache = w.convolution_powers(lamp1, lamp_mu, 8)
    level = cache.level_measure(6)
    for g, v in level.items_values():
        assert math.exp(cache.log_value(6, lamp1.inverse(g))) == pytest.approx(v, rel=1e-12)


def test_chapman_kolmogorov_generic(lamp1, lamp_mu):
    cache = w.convolution_powers(lamp1, lamp_mu, 8)
    left = cache.level_measure(5)
    expected = w.convolve(cache.level_measure(2), cache.level_measure(3), lamp1)
    for g, v in left.items_values():
        assert expected.value(g) == pytest.approx(v, rel=1e-9)


def test_chapman_kolmogorov_dense(lattice2, lazy_z2):
    cache = w.convolution_powers(lattice2, lazy_z2, 8)
    left = cache.level_measure(6)
    expected = w.convolve(cache.level_measure(2), cache.level_measure(4), lattice2)
    for g, v in left.items_values():
        assert expected.value(g) == pytest.approx(v, rel=1e-9)


def test_chapman_kolmogorov_radial(f2_cache):
    lhs = f2_cache.level_radial(9)
    left, right = f2_cache.level_radial(4), f2_cache.level_radial(5)
    rhs = radial_step(left.values, right.values, lhs.tree_degree)
    scale = math.exp(left.log_scale + right.log_scale - lhs.log_scale)
    for r in range(10):
        assert rhs[r] * scale == pytest.approx(lhs.values[r], rel=1e-9, abs=1e-320)


def test_dense_vs_generic_equality(lattice1, lattice2, lazy_z, lazy_z2):
    up2_down1 = w.parse_measure("(2) 1/2\n(-1) 1/2", lattice1)
    for desc, mu in ((lattice1, lazy_z), (lattice1, up2_down1), (lattice2, lazy_z2)):
        dense = w.convolution_powers(desc, mu, 24, engine="dense")
        generic = w.convolution_powers(desc, mu, 24, engine="generic")
        for m in (0, 3, 11, 24):
            dl = dense.level_measure(m)
            gl = generic.level_measure(m)
            assert set(dl.support) == set(gl.support)
            for g, v in dl.items_values():
                assert gl.value(g) == pytest.approx(v, rel=1e-12)


def test_radial_vs_generic_equality(free2, iso_f2):
    radial = w.convolution_powers(free2, iso_f2, 8, engine="radial")
    generic = w.convolution_powers(free2, iso_f2, 8, engine="generic")
    for m in range(9):
        lvl = generic.level_measure(m)
        for g, v in lvl.items_values():
            assert math.exp(radial.log_value(m, g)) == pytest.approx(v, rel=1e-12)


def _radial_reference(desc, mu, depth):
    """(values, log scale) of every level, stepped as the free-group engine
    has always stepped: radial_step, divide by the peak, add the measure's
    log scale and log(peak)."""
    radial = radial_reduce(mu, desc)
    vals, ls = np.array([1.0]), 0.0
    levels = [(vals, ls)]
    for _ in range(depth):
        vals = radial_step(vals, radial.values, radial.tree_degree)
        peak = vals.max()
        vals = vals / peak
        ls = ls + radial.log_scale + math.log(peak)
        levels.append((vals, ls))
    return levels


def test_radial_levels_match_reference_step(free2, iso_f2):
    """The array engine's free-group case (a 1-d array over radii)
    reproduces the reference radial step bit for bit: a lazy isotropic F2
    walk and a non-lazy F3 walk."""
    f3 = w.FreeGroup(3)
    srw_f3 = w.parse_measure("a 1/6\nA 1/6\nb 1/6\nB 1/6\nc 1/6\nC 1/6", f3)
    for desc, mu, depth in ((free2, iso_f2, 400), (f3, srw_f3, 200)):
        cache = w.convolution_powers(desc, mu, depth)
        assert cache.engine_name == "radial"
        for m, (vals, ls) in enumerate(_radial_reference(desc, mu, depth)):
            level = cache.level_radial(m)
            assert level.values.dtype == vals.dtype
            assert level.values.tobytes() == vals.tobytes(), (desc, m)
            assert cache._log_scales[m] == ls, (desc, m)


def _dense_reference(desc, mu, depth):
    """(corner, array, log scale) of every level of a lattice walk, stepped
    by an explicit loop: each move adds the level, shifted by its offset,
    into a plain d-dim array over the box the walk reaches, the identity
    mass first and then the other moves in lattice order; then divide by
    the peak and add the measure's log scale and log(peak)."""
    zero = desc.identity()
    moves = sorted(mu.support.items(),
                   key=lambda vm: (vm[0] != zero, desc.sort_key(vm[0])))
    offsets = np.array(list(mu.support) + [zero])
    lo_step, hi_step = offsets.min(axis=0), offsets.max(axis=0)
    lo, arr, ls = np.zeros(desc.dimension, dtype=int), np.ones((1,) * desc.dimension), 0.0
    levels = [(tuple(lo.tolist()), arr, ls)]
    for _ in range(depth):
        out = np.zeros(tuple(np.array(arr.shape) + hi_step - lo_step))
        for v, mass in moves:
            start = np.array(v) - lo_step
            out[tuple(slice(s, s + n) for s, n in zip(start.tolist(), arr.shape))] += \
                mass * arr
        peak = out.max()
        arr = out / peak
        ls = ls + mu.log_scale + math.log(peak)
        lo = lo + lo_step
        levels.append((tuple(lo.tolist()), arr, ls))
    return levels


def _reference_column(levels, g):
    """log mu^{*m}(g) for every reference level, -inf where absent."""
    col = []
    for lo, arr, ls in levels:
        idx = tuple(c - l for c, l in zip(g, lo))
        inside = all(0 <= i < n for i, n in zip(idx, arr.shape))
        val = arr[idx] if inside else 0.0
        col.append(math.log(val) + ls if val > 0.0 else -math.inf)
    return np.array(col)


def _reference_support(lo, arr) -> dict:
    """A reference level's positive entries as {lattice point: mantissa}."""
    return {tuple(int(i + l) for i, l in zip(idx, lo)): float(arr[tuple(idx)])
            for idx in np.argwhere(arr > 0.0)}


def test_dense_levels_match_reference_step(lattice1, lattice2, lazy_z, lazy_z2):
    """The array engine's lattice case reproduces the reference dense step
    bit for bit on lazy Z to depth 300 and lazy Z^2 to depth 60: each
    level's corner and array bytes (stepped by the replay cursor), its log
    scale and its mass (the sum of the whole array under the level's log
    scale).  Row m of the cache's block is the reference array clipped to
    the default box of half-width 8 (zero where the level does not
    reach), and every column, inside the box and past it, and the levels
    level_measure replays in any order equal the reference's."""
    for desc, mu, depth in ((lattice1, lazy_z, 300), (lattice2, lazy_z2, 60)):
        ref = _dense_reference(desc, mu, depth)
        cache = w.convolution_powers(desc, mu, depth)
        assert cache.engine_name == "dense"
        tlo, thi = [-8] * desc.dimension, [8] * desc.dimension
        assert cache._box == (tuple(tlo), tuple(thi))
        box = list(itertools.product(*(range(a, b + 1) for a, b in zip(tlo, thi))))
        for m, (lo, arr, ls) in enumerate(ref):
            mass = math.exp(math.log(arr.sum()) + ls)
            c_lo, c_arr, c_ls = cache._level(m)
            assert c_lo == lo and c_ls == ls, (desc, m)
            assert c_arr.dtype == arr.dtype and c_arr.shape == arr.shape, (desc, m)
            assert c_arr.tobytes() == arr.tobytes(), (desc, m)
            clo = tuple(map(max, lo, tlo))
            chi = tuple(min(l + n - 1, b) for l, n, b in zip(lo, arr.shape, thi))
            row = np.zeros(tuple(b - a + 1 for a, b in zip(tlo, thi)))
            row[tuple(slice(a - t, b - t + 1) for a, b, t in zip(clo, chi, tlo))] = \
                arr[tuple(slice(a - l, b - l + 1) for a, b, l in zip(clo, chi, lo))]
            assert cache._block[m].tobytes() == row.tobytes(), (desc, m)
            assert cache._log_scales[m] == ls, (desc, m)
            assert cache.level_mass(m) == mass, (desc, m)
        far = [tuple(-depth - 1 if i == 0 else 0 for i in range(desc.dimension)),
               tuple(depth // 2 if i == 0 else 0 for i in range(desc.dimension))]
        for g in desc.ball(3) + box + far:
            assert cache.log_column(g).tobytes() == _reference_column(ref, g).tobytes(), \
                (desc, g)
        for m in (depth, 7, 0, depth - 1):
            lo, arr, ls = ref[m]
            level = cache.level_measure(m)
            assert level.log_scale == ls and level.support == _reference_support(lo, arr)


def test_array_caches_ignore_budget_and_track(free2, iso_f2, lattice2, lazy_z2,
                                              product_f2z, cartesian_mu):
    """Every array cache keeps a box and replays the rest, whatever
    ``memory_budget_mb`` and ``track`` ``convolution_powers`` is given:
    radial, dense and radial-lattice caches built with a budget of 0, with
    and without a track set, are complete, export the default cache's
    artifact, and their columns past the box, level masses and radial
    levels equal its bit for bit."""
    cases = [(free2, iso_f2, free2.ball(1), (1,) * 40),
             (lattice2, lazy_z2, [(3, 0), (-1, 2)], (20, -9)),
             (product_f2z, cartesian_mu, [((1, 2), (2,))], ((1,) * 40, (12,)))]
    for desc, mu, track, far in cases:
        default = w.convolution_powers(desc, mu, 60)
        for kwargs in ({"memory_budget_mb": 0}, {"memory_budget_mb": 0, "track": track}):
            cache = w.convolution_powers(desc, mu, 60, **kwargs)
            assert cache.complete and cache.engine_name == default.engine_name
            assert w.export_cache_json(cache) == w.export_cache_json(default)
            assert cache.log_column(far).tobytes() == default.log_column(far).tobytes()
            assert cache.level_mass(60) == default.level_mass(60)
            if cache.engine_name == "radial":
                assert cache.level_radial(60).values.tobytes() == \
                    default.level_radial(60).values.tobytes()


def _radial_reads(cache, queries) -> dict:
    """The bytes each query gives, asked in the order of ``queries``:
    ("radial", m) reads level_radial, ("mass", m) level_mass and ("column",
    r) log_column at radius r."""
    out = {}
    for kind, n in queries:
        if kind == "radial":
            level = cache.level_radial(n)
            out[kind, n] = (level.values.tobytes(), level.log_scale)
        elif kind == "mass":
            out[kind, n] = cache.level_mass(n)
        else:
            out[kind, n] = cache.log_column((1,) * n).tobytes()
    return out


def test_radial_column_past_block_replays_bit_for_bit(free2, iso_f2):
    """A column at a radius past the kept block (r = 100 at depth 400; the
    block starts at 32 radii) replays the build into a block of 128 radii.
    Asked before or after level_radial calls move the replay cursor, it and
    the columns at the block's edges equal the reference column bit for
    bit, and so do the levels read after the replays.  A radius past the
    top level reads -inf at every level and widens nothing."""
    depth = 400
    ref = [((0,), vals, ls) for vals, ls in _radial_reference(free2, iso_f2, depth)]
    radii = (100, 0, 31, 32, 127, 128, depth, depth + 1, 5000)
    for moves in ((), (250, 37, 400, 3)):
        cache = w.convolution_powers(free2, iso_f2, depth)
        for m in moves:
            cache.level_radial(m)
        for r in radii:
            col = cache.log_column((1,) * r)
            assert col.tobytes() == _reference_column(ref, (r,)).tobytes(), (moves, r)
            if r == 100:
                assert cache._block.shape == (depth + 1, 128)
        # widened for radius 400 to every radius of the top level, not 512
        assert cache._block.shape == (depth + 1, depth + 1)
        for m in (7, 399, 0, 400):
            assert cache.level_radial(m).values.tobytes() == ref[m][1].tobytes(), m


def test_radial_column_past_cap_keeps_block(free2, iso_f2, monkeypatch):
    """The widening cap holds on ``radial`` caches too: with no room for a
    wider block (``_BLOCK_BUDGET`` 0) a column past the 32 kept radii
    replays keeping only itself, the block stays 32 radii wide, and every
    column equals the reference column bit for bit."""
    depth = 200
    ref = [((0,), vals, ls) for vals, ls in _radial_reference(free2, iso_f2, depth)]
    monkeypatch.setattr(powers, "_BLOCK_BUDGET", 0)
    cache = w.convolution_powers(free2, iso_f2, depth)
    for r in (100, 0, 31, 32, depth, depth + 1):
        col = cache.log_column((1,) * r)
        assert col.tobytes() == _reference_column(ref, (r,)).tobytes(), r
        assert cache._block.shape == (depth + 1, 32), r


def test_radial_queries_agree_in_any_order(free2, iso_f2):
    """level_radial, level_mass and log_column give the same bits whatever
    order they are called in: every level and columns inside and past the
    block, read in build order, descending and shuffled on fresh caches.
    In build order they equal the reference levels and the eager masses."""
    depth = 150
    queries = [(kind, m) for m in range(depth + 1) for kind in ("radial", "mass")]
    queries += [("column", r) for r in (0, 5, 31, 40, 64, depth)]
    first = _radial_reads(w.convolution_powers(free2, iso_f2, depth), queries)
    for m, (vals, ls) in enumerate(_radial_reference(free2, iso_f2, depth)):
        assert first["radial", m] == (vals.tobytes(), ls), m
        logs = log_radial_mass(vals, 4)
        assert first["mass", m] == math.exp(logs + ls), m
    shuffled = list(queries)
    random.Random(3).shuffle(shuffled)
    for order in (queries[::-1], shuffled):
        assert _radial_reads(w.convolution_powers(free2, iso_f2, depth), order) == first


def test_radial_cache_keeps_a_block_not_every_level(free2, iso_f2):
    """A lazy F2 cache at depth 2000 keeps at most 1 MiB once built: the
    2001 x 32 block of mantissas (0.49 MiB), the log scales and the top
    level, where its 2,003,001 radii over every level would take 15.3 MiB."""
    cache, _, live = _traced(lambda: w.convolution_powers(free2, iso_f2, 2000))
    assert cache.depth == 2000
    assert live <= 2**20


def test_radial_replays_step_within_bounds(free2, iso_f2, monkeypatch):
    """The build takes one radial_step per level, and level_radial(depth)
    right after it takes none.  A level_mass sweep over every level, in
    ascending or descending order, takes at most 2·depth steps with the
    build: the first call computes every mass in one replay."""
    calls = []

    def counted(*args):
        calls.append(None)
        return radial_step(*args)

    monkeypatch.setattr(powers, "radial_step", counted)
    depth = 300
    for levels, bound in ((range(depth + 1), 2 * depth),
                          (range(depth, -1, -1), 2 * depth)):
        calls.clear()
        cache = w.convolution_powers(free2, iso_f2, depth)
        assert len(calls) == depth
        cache.level_radial(depth)
        assert len(calls) == depth
        for m in levels:
            cache.level_mass(m)
        assert len(calls) <= bound, len(calls)


def test_radial_lattice_vs_generic_equality():
    """The radial-lattice engine matches the generic engine on F2 x Z: a lazy
    Cartesian walk, and the degenerate products it also serves (tree moves
    only, lattice moves only with and without identity mass, tree moves
    without identity mass), whose missing part is a point-mass factor of
    weight 0.  Entries agree within 1e-12 relative, the same entries of
    ball(2) are absent, and every level has mass 1 within 1e-9."""
    desc = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    tree = "(a|(0)) 1/8\n(A|(0)) 1/8\n(b|(0)) 1/8\n(B|(0)) 1/8\n"
    for mu_text in (
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8",
        "(e|(0)) 1/2\n" + tree,                         # tree moves only
        "(e|(0)) 1/2\n(e|(1)) 1/4\n(e|(-1)) 1/4",       # lattice moves and identity
        "(e|(1)) 1/2\n(e|(-1)) 1/2",                     # lattice moves only
        tree + "(e|(1)) 1/4\n(e|(-1)) 1/4",              # no identity mass
    ):
        mu = w.parse_measure(mu_text, desc)
        fast = w.convolution_powers(desc, mu, 7)
        assert fast.engine_name == "radial-lattice", mu_text
        slow = w.convolution_powers(desc, mu, 7, engine="generic")
        for m in (1, 4, 7):
            lvl = slow.level_measure(m)
            for g, v in lvl.items_values():
                assert math.exp(fast.log_value(m, g)) == pytest.approx(v, rel=1e-12), \
                    (mu_text, m, g)
            assert ([fast.log_value(m, g) > -math.inf for g in desc.ball(2)]
                    == [g in lvl.support for g in desc.ball(2)]), (mu_text, m)
            assert fast.level_mass(m) == pytest.approx(1.0, abs=1e-9), (mu_text, m)


def test_zero_entries_are_absent(lazy_z_cache, f2_cache):
    # parity-unreachable entry at small m
    assert lazy_z_cache.log_value(1, (2,)) == -math.inf
    assert lazy_z_cache.log_value(2, (2,)) > -math.inf
    assert f2_cache.log_value(1, (1, 2)) == -math.inf
    assert f2_cache.log_value(2, (1, 2)) > -math.inf


def test_is_aperiodic(lattice1, lazy_z, free2):
    aper, period = w.is_aperiodic(w.convolution_powers(lattice1, lazy_z, 8))
    assert aper and period == 1
    srw = w.parse_measure("(1) 1/2\n(-1) 1/2", lattice1)
    aper, period = w.is_aperiodic(w.convolution_powers(lattice1, srw, 8))
    assert not aper and period == 2
    srw4 = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    aper, period = w.is_aperiodic(w.convolution_powers(free2, srw4, 8))
    assert not aper and period == 2


class _CountingCache:
    """Records the levels an is_aperiodic scan reads from a real cache."""

    def __init__(self, cache):
        self.cache = cache
        self.descriptor = cache.descriptor
        self.depth = cache.depth
        self.levels_read = []

    def log_column(self, g):
        return _RecordingColumn(self.cache.log_column(g), self.levels_read)


class _RecordingColumn:
    """A log column that records each level read from it."""

    def __init__(self, col, levels_read):
        self.col = col
        self.levels_read = levels_read

    def __getitem__(self, m):
        self.levels_read.append(m)
        return self.col[m]


def test_is_aperiodic_early_exit(lattice1, lazy_z):
    lazy = _CountingCache(w.convolution_powers(lattice1, lazy_z, 16))
    assert w.is_aperiodic(lazy) == (True, 1)
    assert lazy.levels_read == [1]
    # steps {+2, -1}: returns only at multiples of 3, so every level is read
    mu = w.parse_measure("(2) 1/2\n(-1) 1/2", lattice1)
    period3 = _CountingCache(w.convolution_powers(lattice1, mu, 16))
    assert w.is_aperiodic(period3) == (False, 3)
    assert period3.levels_read == list(range(1, 17))
    # steps {+-1, +-2}: first return at m = 2, gcd 1 only at m = 3
    mu = w.parse_measure("(1) 1/4\n(-1) 1/4\n(2) 1/4\n(-2) 1/4", lattice1)
    late = _CountingCache(w.convolution_powers(lattice1, mu, 16))
    assert w.is_aperiodic(late) == (True, 1)
    assert late.levels_read == [1, 2, 3]


def test_is_aperiodic_no_return(lattice1):
    mu = w.parse_measure("(3) 1/2\n(-1) 1/2", lattice1)
    with pytest.raises(PreconditionError, match="no return to identity within 3"):
        w.is_aperiodic(w.convolution_powers(lattice1, mu, 3))
    assert w.is_aperiodic(w.convolution_powers(lattice1, mu, 8)) == (False, 4)


def test_support_cap_keeps_complete_prefix(lamp1, lamp_mu):
    cache = w.convolution_powers(lamp1, lamp_mu, 12, engine="generic",
                                 support_cap=50)
    assert not cache.complete
    assert 0 < cache.depth < 12
    assert cache.level_mass(cache.depth) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(CoverageError):
        cache.log_value(cache.depth + 1, lamp1.identity())


def test_column_queries_reject_non_elements(lattice2, lazy_z2, free2, iso_f2, lamp1,
                                            lamp_mu, product_f2z, cartesian_mu):
    """log_value and log_column raise DescriptorMismatchError for anything
    that is not an element of the cache's group, on every engine: a lattice
    point of the wrong dimension, a free word that is not reduced or uses a
    letter past the rank, a word given as text, lamps out of order and a
    product pair with a bad factor.  None of them reads another element's
    column or -inf."""
    cases = [
        (w.convolution_powers(lattice2, lazy_z2, 6), "dense",
         [(1, 0, 0), (1,), (1.0, 0)]),
        (w.convolution_powers(free2, iso_f2, 6), "radial", [(1, -1), (3,), "ab"]),
        (w.convolution_powers(lamp1, lamp_mu, 6), "generic",
         [((0,), ((1,), (0,))), ((0,), ((0,), (0,))), (0,)]),
        (w.convolution_powers(product_f2z, cartesian_mu, 6), "radial-lattice",
         [((1, -1), (0,)), ((), (0, 0)), ((),)]),
    ]
    for cache, engine, bad in cases:
        assert cache.engine_name == engine
        for g in bad:
            with pytest.raises(DescriptorMismatchError):
                cache.log_value(2, g)
            with pytest.raises(DescriptorMismatchError):
                cache.log_column(g)
        assert not cache._columns, engine  # no column was built for them


@pytest.mark.parametrize("engine", ["radial", "dense", "radial-lattice", "generic"])
def test_transition_column(engine, lattice2, lazy_z2, free2, iso_f2, lamp1, lamp_mu,
                           product_f2z, cartesian_mu, monkeypatch):
    """transition_column(x, y) is the read-only column of x^-1 y, bit for
    bit, under transition_key(x, y); log_transition(m, x, y) is its entry
    m.  One call checks x and y once each on the cache's descriptor, and a
    foreign element raises DescriptorMismatchError."""
    desc, mu, foreign = {
        "radial": (free2, iso_f2, (1, -1)),
        "dense": (lattice2, lazy_z2, (1, 0, 0)),
        "radial-lattice": (product_f2z, cartesian_mu, ((1, -1), (0,))),
        "generic": (lamp1, lamp_mu, ((0,), ((1,), (0,)))),
    }[engine]
    cache = w.convolution_powers(desc, mu, 8)
    assert cache.engine_name == engine
    ball = desc.ball(2)
    for x in ball:
        for y in ball:
            g = desc.multiply(desc.inverse(x), y)
            col = cache.transition_column(x, y)
            assert col.tobytes() == cache.log_column(g).tobytes(), (x, y)
            assert not col.flags.writeable
            assert cache.transition_key(x, y) == cache.column_key(g)
            entries = [cache.log_transition(m, x, y) for m in range(cache.depth + 1)]
            assert np.array(entries).tobytes() == col.tobytes(), (x, y)

    checks = []
    check = desc.check
    monkeypatch.setattr(desc, "check", lambda *a: (checks.append(a), check(*a))[1])
    x, y = ball[-1], ball[-2]
    cache.transition_column(x, y)
    assert checks == [(x,), (y,)]  # two calls, each element checked once
    for call in (cache.transition_column, cache.transition_key,
                 lambda a, b: cache.log_transition(1, a, b)):
        for pair in ((foreign, y), (x, foreign)):
            with pytest.raises(DescriptorMismatchError):
                call(*pair)


def test_boxed_dense_steps_counted(lattice2, lazy_z2, monkeypatch):
    """A lattice(2) cache whose widened block may take 1 MiB
    (``_BLOCK_BUDGET``), counted in calls of the one step ``_next``: the
    build takes depth calls; a column inside the default box takes none; a
    column outside it takes one replay (depth calls) that widens only the
    bound it lies past, and a second column inside the widened box none; a
    column whose wider block would not fit the cap takes one replay and
    leaves the box as it is; a level_mass sweep in any order takes one
    replay, and level_measure at or above the cursor steps only forward.
    Every column equals the reference column bit for bit."""
    depth = 128
    ref = _dense_reference(lattice2, lazy_z2, depth)
    calls = []
    step = powers.ArrayPowers._next

    def counted(self, *args):
        calls.append(None)
        return step(self, *args)

    monkeypatch.setattr(powers, "_BLOCK_BUDGET", 2**20)
    monkeypatch.setattr(powers.ArrayPowers, "_next", counted)
    for levels in (range(depth + 1), range(depth, -1, -1)):
        calls.clear()
        cache = w.convolution_powers(lattice2, lazy_z2, depth)
        assert cache._box == ((-8, -8), (8, 8))
        assert len(calls) == depth
        cache.log_column((8, -8))
        assert len(calls) == depth
        cache.log_column((12, 0))
        assert len(calls) == 2 * depth and cache._box == ((-8, -8), (17, 8))
        cache.log_column((17, -8))
        assert len(calls) == 2 * depth
        cache.log_column((-60, 60))  # a block to (-71, 71) would not fit
        assert len(calls) == 3 * depth and cache._box == ((-8, -8), (17, 8))
        cache.log_column((-60, 60))
        cache.log_column((129, 0))  # no level reaches it
        assert len(calls) == 3 * depth
        for m in levels:
            cache.level_mass(m)
        assert len(calls) == 4 * depth
        cache.level_measure(10)
        cache.level_measure(12)
        assert len(calls) == 4 * depth + 12
        for g in ((8, -8), (12, 0), (17, -8), (-60, 60), (129, 0)):
            assert cache.log_column(g).tobytes() == _reference_column(ref, g).tobytes(), g


def test_far_column_keeps_boxed_cache_in_budget(lattice2, lazy_z2, monkeypatch):
    """A column far outside a lattice(2) cache's box, whose wider block
    would not fit a 1 MiB ``_BLOCK_BUDGET``, replays keeping only itself:
    the box stays, the traced size the cache keeps (its block, log scales,
    top level and columns) stays under 1 MiB, and the column equals the
    reference column."""
    monkeypatch.setattr(powers, "_BLOCK_BUDGET", 2**20)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = w.convolution_powers(lattice2, lazy_z2, 128)
        box = cache._box
        col = cache.log_column((100, 0))
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert cache._box == box and kept < 2**20
    ref = _dense_reference(lattice2, lazy_z2, 128)
    assert col.tobytes() == _reference_column(ref, (100, 0)).tobytes()


def _reference_product_column(cache, tree_ref, lattice_ref, g):
    """The column of ``g`` on a product cache mixed from the reference
    columns of its two factors."""
    word, v = g
    return cache._mix(_reference_column(tree_ref, (len(word),)),
                      _reference_column(lattice_ref, v))


def test_boxed_cache_equals_full(lattice1, lattice2, lazy_z, lazy_z2):
    """Caches on Z, Z^2, F2 x Z and F2 x Z^2 keep the default lattice box
    (a product in its lattice factor).  Their columns (inside the box, past
    it and past every level) equal the reference columns bit for bit, a
    product's mixed from its factors' reference columns; the lattice
    levels, log scales and masses, asked in descending order, equal the
    reference levels'.  Once far columns have widened the box, the cache
    exports, and its re-import reads the same bits."""
    f2z = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    f2z2 = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(2))
    walks = [
        (lattice1, lazy_z, 80, [(v,) for v in (0, 3, -8, 9, 30, -80, 81)]),
        (lattice2, lazy_z2, 30, [(0, 0), (8, -8), (9, 0), (0, -20), (30, 0), (31, 0)]),
        (f2z, w.parse_measure(
            "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
            "(e|(1)) 1/8\n(e|(-1)) 1/8", f2z), 60,
         [((), (0,)), ((1, 2), (8,)), ((1,), (-9,)), ((2,) * 5, (40,)), ((), (61,))]),
        (f2z2, w.parse_measure(
            "(e|(0,0)) 1/4\n(a|(0,0)) 1/8\n(A|(0,0)) 1/8\n(b|(0,0)) 1/8\n"
            "(B|(0,0)) 1/8\n(e|(1,0)) 1/16\n(e|(-1,0)) 1/16\n(e|(0,1)) 1/16\n"
            "(e|(0,-1)) 1/16", f2z2), 24,
         [((), (0, 0)), ((1,), (8, 8)), ((), (-9, 2)), ((1, 1), (0, 20)), ((), (25, 0))]),
    ]
    for desc, mu, depth, elems in walks:
        cache = w.convolution_powers(desc, mu, depth)
        lattice = getattr(cache, "_lattice", cache)
        assert lattice._box == tuple((s * 8,) * lattice.descriptor.dimension
                                     for s in (-1, 1))
        factors = powers._product_factors(desc, mu)
        ref = _dense_reference(lattice.descriptor, lattice.mu, depth)
        if factors:
            tree_ref = [((0,), vals, ls) for vals, ls in
                        _radial_reference(desc.left, factors[0][0], depth)]
            want = {g: _reference_product_column(cache, tree_ref, ref, g) for g in elems}
        else:
            want = {g: _reference_column(ref, g) for g in elems}
        for g in elems[::-1]:
            assert cache.log_column(g).tobytes() == want[g].tobytes(), (desc, g)
        levels = range(depth, -1, -3)
        assert [lattice.level_mass(m) for m in levels] == [
            math.exp(math.log(ref[m][1].sum()) + ref[m][2]) for m in levels]
        for m in levels:
            lo, arr, ls = ref[m]
            assert lattice._log_scales[m] == ls
            got = lattice.level_measure(m)
            assert (got.support, got.log_scale) == (_reference_support(lo, arr), ls)
        back = w.import_cache_json(w.export_cache_json(cache))
        for g in elems:
            assert back.log_column(g).tobytes() == want[g].tobytes(), (desc, g)
        assert [back.level_mass(m) for m in levels] == [cache.level_mass(m) for m in levels]


def test_tracked_dense_matches_full(lattice1, lazy_z):
    """A track set and a memory budget are ignored: a dense cache keeps
    the default box and answers inside it and past it ((9,) and (-20,)
    replay; (40,) no level reaches) exactly as a cache built without
    them."""
    full = w.convolution_powers(lattice1, lazy_z, 32)
    tracked = w.convolution_powers(lattice1, lazy_z, 32, engine="dense",
                                   memory_budget_mb=0, track=[(-3,), (3,)])
    assert tracked._box == ((-8,), (8,))
    for m in (1, 9, 32):
        for v in (*range(-3, 4), 9, -20, 40):
            assert tracked.log_value(m, (v,)) == full.log_value(m, (v,))


def test_tracked_radial_lattice_matches_full():
    desc = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    mu = w.parse_measure(
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8", desc)
    track = [((1, 1), (2,)), ((), (-2,))]
    full = w.convolution_powers(desc, mu, 10, engine="radial-lattice")
    tracked = w.convolution_powers(desc, mu, 10, engine="radial-lattice",
                                   memory_budget_mb=0, track=track)
    for m in (3, 10):
        for g in [((), (0,)), ((1,), (1,)), ((1, 2), (-2,))]:
            assert tracked.log_value(m, g) == full.log_value(m, g)


def test_product_needs_no_memory_budget(product_f2z, cartesian_mu):
    """A product cache keeps a box of each of its two factors, O(M) each,
    so the criterion-5 walk at M=500 builds complete with no track set,
    exports as a recipe under 1 KiB and re-imports with bit-identical
    columns."""
    cache = w.convolution_powers(product_f2z, cartesian_mu, 500)
    assert cache.complete and cache.depth == 500
    text = w.export_cache_json(cache)
    assert json.loads(text)["payload"] == {} and len(text) < 1024
    back = w.import_cache_json(text)
    for g in [(word, (v,)) for word in product_f2z.left.ball(2) for v in range(-3, 4)]:
        assert back.log_column(g).tobytes() == cache.log_column(g).tobytes(), g


def test_tracked_product_keeps_lattice_box():
    """On F2 x Z^2 the lattice factor keeps the default box whether or not
    a track set is given: columns there, and at points outside the box,
    which replay the lattice factor, equal a cache's built without one bit
    for bit.  Once they have widened the box, the cache exports, and its
    re-import reads the same columns."""
    desc = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(2))
    mu = w.parse_measure(
        "(e|(0,0)) 1/4\n(a|(0,0)) 1/8\n(A|(0,0)) 1/8\n(b|(0,0)) 1/8\n"
        "(B|(0,0)) 1/8\n(e|(1,0)) 1/16\n(e|(-1,0)) 1/16\n(e|(0,1)) 1/16\n"
        "(e|(0,-1)) 1/16", desc)
    full = w.convolution_powers(desc, mu, 24)
    tracked = w.convolution_powers(desc, mu, 24, memory_budget_mb=0,
                                   track=[((1, 2), (2, -1)), ((), (-1, 1))])
    assert tracked.engine_name == "radial-lattice"
    for word in desc.left.ball(2) + [(1,) * 9]:
        for v in itertools.product(range(-1, 3), range(-1, 2)):
            g = (word, v)
            assert tracked.log_column(g).tobytes() == full.log_column(g).tobytes(), g
    assert tracked._lattice._box == ((-8, -8), (8, 8))
    far = ((9, 0), (0, -12), (-10, 3), (30, 0))
    for v in far:
        assert tracked.log_column(((), v)).tobytes() == full.log_column(((), v)).tobytes()
        assert tracked.log_value(5, ((1,), v)) == full.log_value(5, ((1,), v))
    back = w.import_cache_json(w.export_cache_json(tracked))
    for g in [((), v) for v in far] + [((1, 2), (2, -1))]:
        assert back.log_column(g).tobytes() == tracked.log_column(g).tobytes(), g


def _eager_level_masses(cache):
    """Every level mass of a radial or dense cache computed eagerly from
    the reference levels of its walk, as the engines did at build time:
    log_radial_mass of the per-radius values (the radial values, or the
    one row sum of a lattice level array)."""
    desc, mu, depth = cache.descriptor, cache.mu, cache.depth
    if cache.engine_name == "radial":
        rows = _radial_reference(desc, mu, depth)
    else:
        rows = [(arr.reshape(1, -1).sum(axis=1), ls)
                for _, arr, ls in _dense_reference(desc, mu, depth)]
    out = []
    for values, ls in rows:
        logs = log_radial_mass(values, cache.q)
        out.append(math.exp(logs + ls) if logs > -math.inf else 0.0)
    return out


def test_lazy_level_mass_equals_eager(lattice1, lattice2, lazy_z, lazy_z2, free2,
                                      iso_f2):
    """level_mass, computed on first request, equals the eager log_radial_mass
    of every reference level bit for bit, and the stored log scales are
    unchanged: radial and dense caches and their re-imports.  A
    radial-lattice cache stores no levels: its two factor caches are
    checked the same way, and its own masses, fresh and re-imported, are
    equal and within 1e-12 of 1."""
    product = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    cartesian = w.parse_measure(
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8", product)
    srw_f2 = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    z_up = w.parse_measure("(1) 1/3\n(2) 2/3", lattice1)  # never returns to 0
    cases = [
        w.convolution_powers(free2, iso_f2, 400),
        w.convolution_powers(free2, srw_f2, 120),
        w.convolution_powers(lattice1, lazy_z, 64),
        w.convolution_powers(lattice1, z_up, 40),
        w.convolution_powers(lattice2, lazy_z2, 30),
    ]
    products = (w.convolution_powers(product, cartesian, 40),
                w.convolution_powers(product, cartesian, 40, engine="radial-lattice"))
    cases += [products[0]._tree, products[0]._lattice]
    masses = [products[0].level_mass(m) for m in range(41)]
    assert max(abs(x - 1.0) for x in masses) <= 1e-12
    for cache in (*products, w.import_cache_json(w.export_cache_json(products[0]))):
        assert [cache.level_mass(m) for m in range(40, -1, -1)] == masses[::-1]
    for fresh in cases:
        eager = _eager_level_masses(fresh)
        scales = list(fresh._log_scales)
        assert len(scales) == fresh.depth + 1
        back = w.import_cache_json(w.export_cache_json(fresh))
        for cache in (fresh, back):
            assert cache.depth == fresh.depth
            levels = range(cache.depth, -1, -1)  # first requests out of order
            assert [cache.level_mass(m) for m in levels] == eager[::-1]
            assert [cache.level_mass(m) for m in levels] == eager[::-1]
            assert list(cache._log_scales) == scales


def _column_cases(lattice1, lattice2, lazy_z, lazy_z2, free2, iso_f2, lamp1, lamp_mu):
    """(label, cache, elements to compare, the first build of a rebuilt
    cache or None)."""
    product = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    cartesian = w.parse_measure(
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8", product)
    srw_f2 = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    z_up = w.parse_measure("(1) 1/3\n(2) 2/3", lattice1)  # never returns to 0
    f2_skew = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    far_f2 = [(1,) * 12, (1, 2, 1, 2, 1, 2, 1, 2, 1)]
    full = [
        ("radial", w.convolution_powers(free2, iso_f2, 60), free2.ball(3) + far_f2),
        ("radial srw", w.convolution_powers(free2, srw_f2, 40), free2.ball(3) + far_f2),
        ("dense", w.convolution_powers(lattice1, lazy_z, 64),
         lattice1.ball(4) + [(70,), (-200,)]),
        ("dense z_up", w.convolution_powers(lattice1, z_up, 20),
         lattice1.ball(4) + [(45,)]),
        ("dense Z^2", w.convolution_powers(lattice2, lazy_z2, 24),
         lattice2.ball(3) + [(30, 0)]),
        ("radial-lattice", w.convolution_powers(product, cartesian, 30),
         product.ball(2) + [((1,) * 40, (0,)), ((), (31,))]),
        ("generic lamplighter", w.convolution_powers(lamp1, lamp_mu, 8, engine="generic"),
         lamp1.ball(3) + [((20,), ())]),
        ("generic F2", w.convolution_powers(free2, f2_skew, 7), free2.ball(3) + far_f2),
    ]
    cases = [(label, cache, elems, None) for label, cache, elems in full]
    cases += [(label + " re-imported", w.import_cache_json(w.export_cache_json(cache)),
               elems, None) for label, cache, elems in full]
    twins = {label: cache for label, cache, _ in full}
    cases += [
        ("dense rebuilt", w.convolution_powers(lattice1, lazy_z, 64, engine="dense"),
         [(v,) for v in range(-3, 4)] + [(8,), (-9,), (70,)], twins["dense"]),
        ("dense Z^2 rebuilt", w.convolution_powers(lattice2, lazy_z2, 24, engine="dense"),
         [(a, b) for a in range(0, 2) for b in range(-2, 3)] + [(9, 0), (0, -12), (30, 0)],
         twins["dense Z^2"]),
        ("radial-lattice rebuilt",
         w.convolution_powers(product, cartesian, 30, engine="radial-lattice"),
         [(word, (v,)) for word in product.left.ball(2) for v in range(-2, 3)]
         + [((1, 1, 1), (0,)), ((), (9,)), ((), (31,))],
         twins["radial-lattice"]),
    ]
    return cases


def test_log_column_matches_log_value(lattice1, lattice2, lazy_z, lazy_z2, free2,
                                      iso_f2, lamp1, lamp_mu):
    """log_column(g) equals [log_value(m, g) for m in 0..depth] bit for bit,
    absent entries (-inf) included, on every engine, fresh and re-imported,
    and on rebuilt dense and radial-lattice caches, whose columns inside
    the box, outside it (a replay) and past every level, asked in another
    order, also equal the first build's."""
    cases = _column_cases(lattice1, lattice2, lazy_z, lazy_z2, free2, iso_f2,
                          lamp1, lamp_mu)
    for label, cache, elems, full in cases:
        absent = 0
        for g in elems:
            ref = np.array([cache.log_value(m, g) for m in range(cache.depth + 1)])
            col = cache.log_column(g)
            assert col.dtype == np.float64 and col.shape == ref.shape, label
            assert col.tobytes() == ref.tobytes(), (label, g)
            assert cache.log_column(g) is col  # memoized
            assert not col.flags.writeable
            if full is not None:
                assert col.tobytes() == full.log_column(g).tobytes(), (label, g)
            absent += int(np.sum(col == -math.inf))
        assert absent, label  # every case covers absent entries


def test_log_column_keys(free2, iso_f2, product_f2z, cartesian_mu):
    """The radial engine keeps one column per radius and a product one per
    (radius, lattice point) pair: elements with equal keys share it."""
    radial = w.convolution_powers(free2, iso_f2, 20)
    assert radial.log_column((1, 2)) is radial.log_column((-2, -1))
    assert radial.log_column((1,)) is not radial.log_column((1, 2))
    product = w.convolution_powers(product_f2z, cartesian_mu, 20)
    assert product.log_column(((1, 2), (3,))) is product.log_column(((-1, -1), (3,)))
    assert product.log_column(((1, 2), (3,))) is not product.log_column(((1, 2), (2,)))


def test_support_in_ball(f2_cache, free2):
    items = f2_cache.support_in_ball(2, 2)
    assert len(items) == 17  # lazy isotropic walk reaches the whole 2-ball
    for g, lv in items:
        assert lv == f2_cache.log_value(2, g)


def test_reversed_product_uses_generic_engine(lattice1, free2):
    desc = w.ProductGroup(lattice1, free2)
    mu = w.parse_measure(
        "((0)|e) 0.35\n((0)|a) 1/10\n((0)|A) 1/10\n((0)|b) 1/10\n((0)|B) 1/10\n"
        "((1)|e) 1/8\n((-1)|e) 1/8", desc)
    assert w.convolution_powers(desc, mu, 3).engine_name == "generic"


def test_export_import_round_trip(lattice1, lamp1, free2, lazy_z, lamp_mu, iso_f2,
                                  product_f2z, cartesian_mu):
    """An import answers every query exactly as the exported cache.  An
    array artifact is its recipe: an empty payload, under 1 KiB, rebuilt bit
    for bit, also when the sphere masses of its free-group measure differ in
    the last bit and its support is listed in another order than the
    artifact's."""
    near_iso = w.ScaledMeasure(support={
        (2,): 0.2, (1,): 0.2000000000000001, (): 0.2, (-1,): 0.2, (-2,): 0.2})
    for desc, mu, depth in (
        (lattice1, lazy_z, 6),
        (lamp1, lamp_mu, 5),
        (free2, iso_f2, 6),
        (free2, near_iso, 40),
        (product_f2z, cartesian_mu, 5),
    ):
        cache = w.convolution_powers(desc, mu, depth)
        text = w.export_cache_json(cache)
        back = w.import_cache_json(text)
        assert back.engine_name == cache.engine_name
        assert back.depth == cache.depth
        ball = desc.ball(3)
        if cache.engine_name != "generic":
            assert json.loads(text)["payload"] == {} and len(text) < 1024
        for g in ball:
            assert back.log_column(g).tobytes() == cache.log_column(g).tobytes()
        for m in range(depth + 1):
            assert ([back.log_value(m, g) for g in ball]
                    == [cache.log_value(m, g) for g in ball])
            assert back.level_mass(m) == cache.level_mass(m)
            if cache.engine_name == "radial-lattice":
                with pytest.raises(CoverageError):
                    back.level_measure(m)
            elif cache.engine_name == "generic":
                assert back._levels[m].log_scale == cache._levels[m].log_scale
            else:
                assert back._log_scales[m] == cache._log_scales[m]
            if cache.engine_name in ("dense", "generic"):
                assert back.level_measure(m) == cache.level_measure(m)
        assert json.loads(text)["format"] == "walkops-powers-cache"


def test_export_keeps_budget_note(lamp1, lamp_mu):
    cache = w.convolution_powers(lamp1, lamp_mu, 12, support_cap=50)
    assert cache.budget_note.startswith("stopped at level")
    doc = json.loads(w.export_cache_json(cache))
    back = w.import_cache_json(json.dumps(doc))
    assert not back.complete and back.budget_note == cache.budget_note
    # artifacts written before the note was persisted read back with ""
    del doc["budget_note"]
    assert w.import_cache_json(json.dumps(doc)).budget_note == ""


LAMP_Z2 = ("((0,0),{}) 1/6\n((1,0),{}) 1/6\n((-1,0),{}) 1/6\n((0,1),{}) 1/6\n"
           "((0,-1),{}) 1/6\n((0,0),{(0,0)}) 1/6")
ANISO_F2 = "a 1/2\nA 1/6\nb 1/6\nB 1/6"


def test_generic_round_trip_exact(lamp1, lamp_mu, free2):
    """A re-imported generic cache answers every query exactly as the
    original: lamplighter over Z and Z^2 (nested parentheses in the element
    text), a non-isotropic F2 walk, and a support-capped cache whose element
    table runs past its last stored level."""
    lamp2 = w.LamplighterGroup(2)
    capped = w.convolution_powers(lamp1, lamp_mu, 12, engine="generic",
                                  support_cap=50)
    last_id = max(int(level.ids[-1]) for level in capped._levels)
    assert capped._table.size > last_id + 1
    caches = [
        w.convolution_powers(lamp1, lamp_mu, 8, engine="generic"),
        w.convolution_powers(lamp2, w.parse_measure(LAMP_Z2, lamp2), 5,
                             engine="generic"),
        w.convolution_powers(free2, w.parse_measure(ANISO_F2, free2), 8,
                             engine="generic"),
        capped,
    ]
    for cache in caches:
        back = w.import_cache_json(w.export_cache_json(cache))
        assert (back.depth, back.complete) == (cache.depth, cache.complete)
        ball = cache.descriptor.ball(3)
        for m in range(cache.depth + 1):
            assert ([back.log_value(m, g) for g in ball]
                    == [cache.log_value(m, g) for g in ball])
            assert back.level_mass(m) == cache.level_mass(m)
            assert back._levels[m].log_scale == cache._levels[m].log_scale
            assert back.support_size(m) == cache.support_size(m)
            assert back.level_measure(m).support == cache.level_measure(m).support


def _unpack_raw(doc):
    """The array of a packed array as versions 4 to 6 wrote it: the
    base64 of its raw little-endian bytes, not deflated."""
    raw = base64.b64decode(doc["data"], validate=True)
    return np.frombuffer(raw, dtype=doc["dtype"]).reshape(doc["shape"])


def _as_version_7(golden):
    """A version-4 generic artifact as version 7 writes it: every packed
    array repacked in its narrowest width (version 5) and deflated (version
    7), and each level's ids as deltas from the previous id, the first from
    -1 (version 6); the levels and the element table unchanged."""
    doc = json.loads(golden)
    assert doc["version"] == 4
    payload = doc["payload"]
    deltas = np.concatenate([
        np.diff(ids, prepend=-1) for ids in _golden_level_ids(doc)])
    payload["elements"] = {key: _pack(_unpack_raw(packed))
                           for key, packed in payload["elements"].items()}
    for key in ("sizes", "log_scales", "vals"):
        payload[key] = _pack(_unpack_raw(payload[key]))
    payload["ids"] = _pack(deltas)
    doc["version"] = 7
    return json.dumps(doc, sort_keys=True)


def _golden_level_ids(doc):
    """The per-level ids of a version-4 or version-5 generic artifact."""
    payload = doc["payload"]
    bounds = np.cumsum(_unpack_raw(payload["sizes"]))[:-1]
    return np.split(_unpack_raw(payload["ids"]).astype(np.int64), bounds)


def test_generic_artifacts_match_golden(lamp1, lamp_mu, free2):
    """The generic artifacts equal, byte for byte, those the engine wrote
    when it interned element tuples one product at a time (kept under
    tests/data as version 4, repacked here to version 7's widths, id deltas
    and zlib streams); the re-imported golden artifacts hold the golden
    level ids bit for bit and answer ``log_value`` on ball(3) exactly as a
    fresh build does."""
    for name, desc, mu, depth in (
            ("generic-lamp1-depth8-v4.json", lamp1, lamp_mu, 8),
            ("generic-aniso-f2-depth6-v4.json", free2,
             w.parse_measure(ANISO_F2, free2), 6)):
        v4 = (DATA / name).read_text(encoding="utf-8")
        golden = _as_version_7(v4)
        cache = w.convolution_powers(desc, mu, depth, engine="generic")
        assert w.export_cache_json(cache) == golden, name
        back = w.import_cache_json(golden)
        for level, ids in zip(back._levels, _golden_level_ids(json.loads(v4)),
                              strict=True):
            assert level.ids.dtype == np.int32
            assert level.ids.tolist() == ids.tolist(), name
        ball = desc.ball(3)
        for m in range(depth + 1):
            assert ([back.log_value(m, g) for g in ball]
                    == [cache.log_value(m, g) for g in ball]), (name, m)


@pytest.fixture(scope="module")
def generic_artifact(free2):
    cache = w.convolution_powers(free2, w.parse_measure(ANISO_F2, free2), 4,
                                 engine="generic")
    return json.loads(w.export_cache_json(cache))


def _edit(doc, fn):
    """Repack the packed array ``doc`` after ``fn`` edits a writable copy
    of it (integers widened to int64, so any edit fits), or with what
    ``fn`` returns in its place."""
    arr = _unpack(doc)
    arr = arr.astype(np.int64) if arr.dtype.kind == "i" else arr.copy()
    out = fn(arr)
    return _pack(arr if out is None else out)


def _edit_key(key, fn):
    def tamper(p):
        p[key] = _edit(p[key], fn)
    return tamper


def _level_entry(p, m, k):
    """Index into the concatenated ids/vals of entry ``k`` of level ``m``."""
    sizes = _unpack(p["sizes"]).tolist()
    return sum(sizes[:m]) + (k if k >= 0 else sizes[m] + k)


def _edit_level(key, m, k, value):
    def tamper(p):
        i = _level_entry(p, m, k)
        p[key] = _edit(p[key], lambda arr: arr.__setitem__(i, value))
    return tamper


def _edit_elements(fn):
    """Re-encode the F2 element table after ``fn`` edits the decoded list
    (encoding does not check canonical form)."""
    def tamper(p):
        elems = FREE2.decode_elements(
            {key: _unpack(doc) for key, doc in p["elements"].items()})
        fn(elems)
        p["elements"] = {key: _pack(arr)
                         for key, arr in FREE2.encode_elements(elems).items()}
    return tamper


def _swap(seq, i, j):
    seq[i], seq[j] = seq[j], seq[i]


def _edit_ids(m, fn):
    """Re-encode the id deltas after ``fn`` edits level ``m``'s ids."""
    def tamper(p):
        bounds = np.cumsum(_unpack(p["sizes"]))[:-1]
        levels = [np.cumsum(deltas, dtype=np.int64) - 1 for deltas in np.split(
            _unpack(p["ids"]), bounds)]
        fn(levels[m])
        p["ids"] = _pack(np.concatenate([np.diff(ids, prepend=-1) for ids in levels]))
    return tamper


def _swap_in_level(m):
    def tamper(p):
        _edit_ids(m, lambda ids: _swap(ids, 0, 1))(p)
        i = _level_entry(p, m, 0)
        p["vals"] = _edit(p["vals"], lambda arr: _swap(arr, i, i + 1))
    return tamper


def _edit_base64(key, i, char):
    """Insert ``char`` at position ``i`` of the base64 text of ``key``: a
    lenient decoder would skip it and read the same bytes."""
    def tamper(p):
        data = p[key]["data"]
        p[key]["data"] = data[:i] + char + data[i:]
    return tamper


def _table_size(p):
    return len(_unpack(p["elements"]["lengths"]))


FREE2 = w.FreeGroup(2)
TAMPERS = {
    "duplicate element": _edit_elements(lambda xs: xs.__setitem__(2, xs[1])),
    "non-reduced word": _edit_elements(lambda xs: xs.__setitem__(1, (1, -1))),
    "identity not at id 0": _edit_elements(lambda xs: _swap(xs, 0, 1)),
    "letter outside the rank": _edit_elements(lambda xs: xs.__setitem__(1, (3,))),
    "zero letter": _edit_elements(lambda xs: xs.__setitem__(1, (0,))),
    "word lengths past the letters": lambda p: p["elements"].__setitem__(
        "lengths", _edit(p["elements"]["lengths"],
                         lambda arr: arr.__setitem__(-1, arr[-1] + 1))),
    "unsorted ids": _swap_in_level(2),
    "id past the table": lambda p: _edit_ids(
        3, lambda ids: ids.__setitem__(-1, _table_size(p)))(p),
    "negative id": _edit_ids(1, lambda ids: ids.__setitem__(0, -1)),
    "zero id delta": _edit_level("ids", 2, 1, 0),
    "negative id delta": _edit_level("ids", 2, 1, -3),
    "id deltas past the table": lambda p: _edit_level("ids", 3, 0, _table_size(p))(p),
    "id deltas wrapping int32": _edit_key(
        "ids", lambda arr: arr.__setitem__(slice(1, 3), 2**31 - 1)),
    "id deltas wrapping int64": _edit_key(
        "ids", lambda arr: arr.__setitem__(slice(1, 5), 2**62)),
    "zero value": _edit_level("vals", 2, 0, 0.0),
    "negative value": _edit_level("vals", 2, 0, -0.5),
    "NaN value": _edit_level("vals", 2, 0, math.nan),
    "infinite value": _edit_level("vals", 2, 0, math.inf),
    "more vals than ids": _edit_key("vals", lambda arr: np.append(arr, 0.5)),
    "fewer vals than ids": _edit_key("vals", lambda arr: arr[:-1]),
    "float ids": _edit_key("ids", lambda arr: arr.astype(float)),
    "empty level": _edit_key(
        "sizes", lambda arr: arr.__setitem__(slice(1, 3), [0, arr[1] + arr[2]])),
    "sizes short of the ids": _edit_key(
        "sizes", lambda arr: arr.__setitem__(-1, arr[-1] - 1)),
    "infinite log_scale": _edit_key(
        "log_scales", lambda arr: arr.__setitem__(2, math.inf)),
    "one log_scale short": _edit_key("log_scales", lambda arr: arr[:-1]),
    "bad dtype": lambda p: p["ids"].__setitem__("dtype", ">i4"),
    "invalid base64": lambda p: p["vals"].__setitem__("data", "not base64!"),
    "base64 character outside the alphabet": _edit_base64("vals", 5, "*"),
    "non-ASCII base64 character": _edit_base64("vals", 5, "\u00e9"),
    "base64 with a line break": _edit_base64("vals", 8, "\n"),
    "shape past the data": lambda p: p["vals"].__setitem__(
        "shape", [p["vals"]["shape"][0] + 1]),
    "shape not a list": lambda p: p["vals"].__setitem__("shape", "7"),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_generic_tampered_artifact_rejected(generic_artifact, tamper):
    assert w.import_cache_json(json.dumps(generic_artifact)).depth == 4
    doc = copy.deepcopy(generic_artifact)
    TAMPERS[tamper](doc["payload"])
    with pytest.raises(ValueError):
        w.import_cache_json(json.dumps(doc))


def test_generic_lamplighter_tampered_lamps_rejected(lamp1, lamp_mu):
    """An element table whose lamps are not strictly increasing within an
    element is rejected at import."""
    cache = w.convolution_powers(lamp1, lamp_mu, 3, engine="generic")
    doc = json.loads(w.export_cache_json(cache))
    elements = doc["payload"]["elements"]
    counts = _unpack(elements["counts"])
    i = int(np.cumsum(counts)[np.argmax(counts >= 2)]) - 1  # last lamp of a pair
    elements["lamps"] = _edit(elements["lamps"],
                              lambda arr: arr.__setitem__(i, arr[i - 1]))
    with pytest.raises(ValueError, match="strictly increasing"):
        w.import_cache_json(json.dumps(doc))


def test_narrow_element_tables_rejected_as_wide(generic_artifact, lamp1, lamp_mu):
    """The import checks an element table at its packed width with the
    verdicts of int64: a free(2) table holding the letter -128 and a
    lamplighter table whose lamps run 127 then -128 inside one element
    (both still packed as <i1, where -(-128) and -128 - 127 would wrap) are
    rejected with the errors an int64 table gets."""
    doc = copy.deepcopy(generic_artifact)
    elements = doc["payload"]["elements"]
    elements["letters"] = _edit(elements["letters"],
                                lambda arr: arr.__setitem__(-1, -128))
    assert elements["letters"]["dtype"] == "<i1"
    with pytest.raises(ValueError, match="outside the rank-2 alphabet"):
        w.import_cache_json(json.dumps(doc))
    cache = w.convolution_powers(lamp1, lamp_mu, 3, engine="generic")
    doc = json.loads(w.export_cache_json(cache))
    elements = doc["payload"]["elements"]
    counts = _unpack(elements["counts"])
    i = int(np.cumsum(counts)[np.argmax(counts >= 2)]) - 1  # last lamp of a pair
    elements["lamps"] = _edit(
        elements["lamps"], lambda arr: arr.__setitem__(slice(i - 1, i + 1), [[127], [-128]]))
    assert elements["lamps"]["dtype"] == "<i1"
    with pytest.raises(ValueError, match="strictly increasing"):
        w.import_cache_json(json.dumps(doc))


ARRAY_ENGINES = ["radial", "dense", "radial-lattice"]


@pytest.fixture(scope="module")
def array_artifacts(lattice1, lazy_z, free2, iso_f2, product_f2z, cartesian_mu):
    caches = [
        w.convolution_powers(free2, iso_f2, 6),
        w.convolution_powers(lattice1, lazy_z, 6),
        w.convolution_powers(product_f2z, cartesian_mu, 5),
    ]
    assert [c.engine_name for c in caches] == ARRAY_ENGINES
    return {c.engine_name: json.loads(w.export_cache_json(c)) for c in caches}


def _former_levels(cache):
    """The levels of a cache of one of the ``array_artifacts`` walks (one
    tree radius and one lattice unit per step at most) as the former
    (tree radius x lattice) arrays, read off ``log_column`` on the grid
    they covered: radii 0..m on a tree, lattice points -m..m on each axis.
    Each level is (lat_lo, array scaled to its largest entry, log scale)."""
    desc = cache.descriptor
    name = cache.engine_name
    tree = name != "dense"
    lattice = desc if name == "dense" else desc.right if name == "radial-lattice" else None
    d = lattice.dimension if lattice else 0
    levels = []
    for m in range(cache.depth + 1):
        radii = range(m + 1) if tree else [0]
        points = list(itertools.product(range(-m, m + 1), repeat=d))
        elems = [((1,) * r, v) if tree and lattice else ((1,) * r if tree else v)
                 for r in radii for v in points]
        logs = np.array([cache.log_column(g)[m] for g in elems])
        logs = logs.reshape((len(radii),) + (2 * m + 1,) * d)
        ls = logs.max()
        levels.append(((-m,) * d, np.exp(logs - ls), ls))
    return levels


def _with_level_payload(doc):
    """The array artifact ``doc`` as version 4 wrote it before array
    artifacts became recipes: its levels in one packed payload."""
    doc = copy.deepcopy(doc)
    levels = _former_levels(w.import_cache_json(json.dumps(doc)))
    doc["payload"] = {
        "lat_lo": _pack(np.array([lo for lo, _, _ in levels], dtype=np.int64)
                        .reshape(len(levels), -1)),
        "shapes": _pack([arr.shape for _, arr, _ in levels]),
        "log_scales": _pack([ls for _, _, ls in levels]),
        "values": _pack(np.concatenate([arr.ravel() for _, arr, _ in levels])),
    }
    return doc


def _array_tampers():
    """Tampers for the former array payload (radial, dense and radial-lattice)."""
    return {
        "NaN value": _edit_key("values", lambda arr: arr.__setitem__(3, math.nan)),
        "negative value": _edit_key("values", lambda arr: arr.__setitem__(3, -0.25)),
        "infinite value": _edit_key("values", lambda arr: arr.__setitem__(3, math.inf)),
        "one value too many": _edit_key("values", lambda arr: np.append(arr, 0.5)),
        "values shape past the data": lambda p: p["values"].__setitem__(
            "shape", [p["values"]["shape"][0] + 1]),
        "integer values": _edit_key("values", lambda arr: arr.astype(np.int64)),
        "infinite log_scale": _edit_key(
            "log_scales", lambda arr: arr.__setitem__(1, math.inf)),
        "NaN log_scale": _edit_key(
            "log_scales", lambda arr: arr.__setitem__(1, math.nan)),
        "string log_scales": lambda p: p.__setitem__("log_scales", "0.0"),
        "integer log_scales": _edit_key(
            "log_scales", lambda arr: np.zeros(len(arr), dtype=np.int64)),
        "one log_scale short": _edit_key("log_scales", lambda arr: arr[:-1]),
        "bad dtype": lambda p: p["values"].__setitem__("dtype", "<f4"),
        "invalid base64": lambda p: p["values"].__setitem__("data", "@@@@"),
        # (1, 0) is level 1's radius count, there at every lattice width
        "empty level": _edit_key("shapes", lambda arr: arr.__setitem__((1, 0), 0)),
        "shapes past the values": _edit_key(
            "shapes", lambda arr: arr.__setitem__((-1, -1), arr[-1, -1] + 1)),
        # one more column; doubling an empty-width radial lat_lo would not widen it
        "lat_lo of the wrong width": _edit_key(
            "lat_lo", lambda arr: np.hstack([arr, np.zeros((len(arr), 1), arr.dtype)])),
        "float lat_lo": _edit_key("lat_lo", lambda arr: arr.astype(float)),
    }


@pytest.mark.parametrize("engine,tamper", [
    (engine, name) for engine in ARRAY_ENGINES for name in sorted(_array_tampers())])
def test_array_tampered_artifact_rejected(array_artifacts, engine, tamper):
    """An array artifact carrying a level payload, tampered or not, is
    malformed: the cache is rebuilt from its recipe, never read from levels
    an artifact supplies."""
    assert w.import_cache_json(json.dumps(array_artifacts[engine])).engine_name == engine
    doc = _with_level_payload(array_artifacts[engine])
    _array_tampers()[tamper](doc["payload"])
    with pytest.raises(ValueError, match="empty payload"):
        w.import_cache_json(json.dumps(doc))


def test_array_engine_relabel_rejected(array_artifacts):
    """An array artifact whose engine field names another array engine is
    malformed: the descriptor fixes which of the three names a cache
    has."""
    for engine in ARRAY_ENGINES:
        for label in ARRAY_ENGINES:
            if label == engine:
                continue
            doc = copy.deepcopy(array_artifacts[engine])
            doc["engine"] = label
            with pytest.raises(ValueError, match="engine"):
                w.import_cache_json(json.dumps(doc))


def test_old_radial_layout_rejected(array_artifacts):
    """A radial artifact in the layout of the former free-group engine
    (per-level ``sizes`` and one ``values`` array, no ``lat_lo`` or
    ``shapes``) is malformed for the array engine, so a cache reader
    rebuilds it."""
    doc = _with_level_payload(array_artifacts["radial"])
    payload = doc["payload"]
    payload["sizes"] = _pack(_unpack(payload.pop("shapes"))[:, 0])
    del payload["lat_lo"]
    with pytest.raises(ValueError, match="malformed"):
        w.import_cache_json(json.dumps(doc))


def test_packed_arrays_keep_every_bit():
    """Integers pack in the narrowest of <i1, <i2, <i4 and <i8 that holds
    them (<i1 when empty) and unpack in that dtype, every bit kept: widened
    back to their own dtype they are the packed array byte for byte; floats
    as <f8."""
    floats = np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308, math.pi])
    for arr, dtype in (
        (np.array([0, 127, -128]), "<i1"),
        (np.array([128]), "<i2"),
        (np.array([-129]), "<i2"),
        (np.array([[0, 32767], [-32768, 5]]), "<i2"),
        (np.array([32768]), "<i4"),
        (np.array([-32769]), "<i4"),
        (np.array([[0, -2**31], [2**31 - 1, 5]]), "<i4"),
        (np.array([2**31]), "<i8"),
        (np.array([-2**31 - 1]), "<i8"),
        (np.array([-2**63, 2**63 - 1]), "<i8"),
        (np.zeros((0, 3), dtype=np.int64), "<i1"),
        (np.zeros(0, dtype=np.int32), "<i1"),
        (floats, "<f8"),
    ):
        doc = _pack(arr)
        assert doc["dtype"] == dtype and doc["shape"] == list(arr.shape)
        back = _unpack(json.loads(json.dumps(doc)))
        assert back.shape == arr.shape and back.dtype == np.dtype(dtype)
        assert back.tobytes() == arr.astype(back.dtype).tobytes()
        assert back.astype(arr.dtype).tobytes() == arr.tobytes()
    assert _unpack(_pack(floats)).tobytes() == floats.tobytes()


def test_base64_decoding_is_strict():
    """Packed data is the base64 of its zlib stream, decoded as strictly
    as ``base64.b64decode(validate=True)``: a 74 KB stream encodes as one
    base64 text and decodes bit for bit, and a character outside the
    alphabet, a non-ASCII one or a line break (each inserted, so a lenient
    decoder would skip it and read the same bytes), padding in the middle
    or data that is not a str raise ValueError."""
    arr = np.arange(-2**40, -2**40 + 49_163, dtype=np.int64)
    doc = _pack(arr)
    stream = zlib.compress(arr.tobytes(), powers._DEFLATE_LEVEL)
    assert doc["data"] == base64.b64encode(stream).decode("ascii")
    assert _unpack(doc).tobytes() == arr.tobytes()
    data = doc["data"]
    for bad in (data[:5] + "*" + data[5:], data[:5] + "\u00e9" + data[5:],
                data[:8] + "\n" + data[8:], data[:4] + "=" + data[5:], 12, None):
        with pytest.raises(ValueError):
            _unpack({**doc, "data": bad})


def _with_stream(doc, stream):
    """The packed array ``doc`` with ``stream`` as its data's bytes."""
    return {**doc, "data": base64.b64encode(stream).decode("ascii")}


def _zero_bomb(mib):
    """One zlib stream of ``mib`` MiB of zeros, deflated 1 MiB at a time
    at level 9 (about 1 KiB of stream per MiB)."""
    deflater = zlib.compressobj(9)
    zeros = bytes(2**20)
    return b"".join([*(deflater.compress(zeros) for _ in range(mib)),
                     deflater.flush()])


def test_packed_stream_decoding_is_exact():
    """A packed array's data must be one zlib stream that ends exactly
    where its shape's bytes do, with nothing after it: a stream that
    inflates past its shape, a truncated stream, bytes after the stream's
    end, the raw, un-deflated base64 of version 6 and a shape past any
    buffer's size each raise ValueError naming the cause, and a stream of 64 MiB of zeros under a shape of 8
    floats is rejected with less than 1 MiB allocated (at most 65 bytes
    are inflated)."""
    arr = np.linspace(0.5, 1.0, 300)
    doc = _pack(arr)
    stream = zlib.compress(arr.tobytes(), powers._DEFLATE_LEVEL)
    assert _unpack(_with_stream(doc, stream)).tobytes() == arr.tobytes()
    for bad, cause in (
            ({**doc, "shape": [299]}, "inflates past"),
            (_with_stream(doc, stream[:-6]), "truncated"),
            (_with_stream(doc, stream + b"\0"), "bytes after"),
            (_with_stream(doc, arr.tobytes()), "not a zlib stream"),
            ({**doc, "shape": [301]}, "inflates to 2400 bytes"),
            ({**doc, "shape": [2**62, 4]}, f"shape needs {2**67} bytes")):
        with pytest.raises(ValueError, match=cause):
            _unpack(bad)
    bomb = _with_stream({"dtype": "<f8", "shape": [8]}, _zero_bomb(64))

    def reject():
        with pytest.raises(ValueError, match="inflates past the 64 bytes"):
            _unpack(bomb)

    _, peak, _ = _traced(reject)
    assert peak < 2**20, peak


def test_malformed_artifact_is_value_error(generic_artifact, array_artifacts):
    """Whatever is wrong with an artifact, import raises ValueError, the
    one error a cache reader treats as a miss."""
    for text in ("[]", "3", json.dumps({"format": "walkops-powers-cache",
                                        "version": powers.ARTIFACT_VERSION})):
        with pytest.raises(ValueError):
            w.import_cache_json(text)
    doc = copy.deepcopy(generic_artifact)
    doc["engine"] = "fast"
    with pytest.raises(ValueError, match="unknown engine"):
        w.import_cache_json(json.dumps(doc))
    for key in ("descriptor", "measure", "payload", "complete", "depth"):
        doc = copy.deepcopy(generic_artifact)
        del doc[key]
        with pytest.raises(ValueError):
            w.import_cache_json(json.dumps(doc))
    for key, bad in (("payload", []), ("measure", {"entries": 3}),
                     ("complete", "yes"), ("depth", 7)):
        doc = copy.deepcopy(generic_artifact)
        doc[key] = bad
        with pytest.raises(ValueError):
            w.import_cache_json(json.dumps(doc))
    # an array artifact is rebuilt to its depth, which must be a count
    for doc in array_artifacts.values():
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match="depth"):
                w.import_cache_json(json.dumps({**doc, "depth": bad}))


class _UnsortedLamplighter(w.LamplighterGroup):
    """A broken group law: lamps come back in reverse order, from the
    per-element law and from the batch law the generic engine steps with."""

    def _mul(self, a, b):
        pos, lamps = super()._mul(a, b)
        return pos, tuple(reversed(lamps))

    def mul_encoded(self, arrays, s):
        out = super().mul_encoded(arrays, s)
        counts = out["counts"]
        ends = np.cumsum(counts)
        owner = np.repeat(np.arange(len(counts)), counts)
        mirrored = 2 * ends[owner] - counts[owner] - 1 - np.arange(len(owner))
        return {**out, "lamps": out["lamps"][mirrored]}


def test_generic_checks_each_element_once(lamp1, lamp_mu):
    """The generic engine multiplies unchecked, so it checks the measure's
    support on setup and every product as it enters the element table."""
    unsorted = ((0,), ((1,), (0,)))
    assert not lamp1.contains(unsorted)
    mu = w.ScaledMeasure(support={lamp1.identity(): 1.0, unsorted: 1.0})
    with pytest.raises(DescriptorMismatchError):
        w.convolution_powers(lamp1, mu, 3, engine="generic")
    broken = _UnsortedLamplighter(1)
    with pytest.raises(DescriptorMismatchError):
        w.convolution_powers(broken, lamp_mu, 4, engine="generic")


def test_deep_levels_log_scaled(free2, iso_f2):
    cache = w.convolution_powers(free2, iso_f2, 1500)
    lv = cache.log_value(1500, free2.identity())
    # value ~ rho^1500 * poly: far below float underflow, fine in logs
    assert -400 < lv < -100
    assert math.exp(lv) >= 0.0


def _assert_matches_convolve(cache, desc, mu):
    """Every level of ``cache`` equals iterated ``measures.convolve``."""
    ref = w.ScaledMeasure.point_mass(desc)
    for m in range(cache.depth + 1):
        level = cache.level_measure(m)
        assert set(level.support) == set(ref.support), (desc, m)
        for g, v in ref.items_values():
            assert level.value(g) == pytest.approx(v, rel=1e-12), (desc, m, g)
        ref = w.convolve(ref, mu, desc)


def test_generic_matches_reference_convolve(lamp1, lamp_mu, free2):
    """Generic-engine levels equal iterated ``measures.convolve``, the
    keyed-collection reference, on a lamplighter and an anisotropic free walk."""
    aniso = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    for desc, mu in ((lamp1, lamp_mu), (free2, aniso)):
        _assert_matches_convolve(
            w.convolution_powers(desc, mu, 6, engine="generic"), desc, mu)


def test_generic_interning_resolves_hash_collisions(monkeypatch, lamp1, lamp_mu,
                                                    free2):
    """With the element hash cut to two bits nearly every lookup meets
    other elements of equal hash.  The levels still equal the
    ``measures.convolve`` reference, the artifact equals the full-hash
    engine's byte for byte and re-imports: ids come from comparing
    elements, not from trusting the hash."""
    cases = [(lamp1, lamp_mu), (free2, w.parse_measure(ANISO_F2, free2))]
    texts = [w.export_cache_json(w.convolution_powers(desc, mu, 6, engine="generic"))
             for desc, mu in cases]
    full_hash = powers._element_hashes
    monkeypatch.setattr(powers, "_element_hashes",
                        lambda desc, arrays: full_hash(desc, arrays) & 3)
    for (desc, mu), text in zip(cases, texts):
        cache = w.convolution_powers(desc, mu, 6, engine="generic")
        assert len(np.unique(powers._element_hashes(desc, cache._table.arrays))) == 4
        _assert_matches_convolve(cache, desc, mu)
        assert w.export_cache_json(cache) == text
        back = w.import_cache_json(text)
        ball = desc.ball(3)
        for m in range(cache.depth + 1):
            assert ([back.log_value(m, g) for g in ball]
                    == [cache.log_value(m, g) for g in ball])


def _reference_hashes(descriptor, arrays):
    """The element hash of ``powers._element_hashes`` written out on the
    whole batch at once: columns stacked, prefix sums over every run."""
    golden = np.uint64(0x9E3779B97F4A7C15)

    def mix(h):
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))

    def row_hashes(arr):
        rows = arr[:, None] if arr.ndim == 1 else arr
        h = np.zeros(len(arr), dtype=np.uint64)
        for col in np.ascontiguousarray(rows, dtype=np.int64).view(np.uint64).T:
            h = mix(h * golden + col)
        return h

    runs = descriptor.codec_runs()
    h = np.uint64(0)
    for key in sorted(arrays):
        arr = arrays[key]
        if key in runs:
            counts = arrays[runs[key]]
            ends = np.cumsum(counts)
            place = np.arange(len(arr)) - np.repeat(ends - counts, counts)
            items = row_hashes(np.column_stack([arr, place]))
            sums = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(items)])
            part = sums[ends] - sums[ends - counts]
        else:
            part = row_hashes(arr)
        h = mix(h * golden + part)
    return h.view(np.int64)


def test_element_hashes_match_reference_across_blocks(monkeypatch, lamp1, lamp_mu,
                                                     free2, lattice2):
    """Hashing block by block gives every element the hash of the
    whole-batch formula, bit for bit: blocks of 1, 3 and 7 elements cut
    the lamplighter batch next to and between lamp-less elements (one
    block has no lamps at all), a product's two run arrays are sliced by
    their own counts, and an empty batch hashes to an empty array."""
    lamps = ["(0,{})", "(1,{0})", "(-2,{-1,0,3})",
             "(0,{})", "(5,{})", "(-3,{})",
             "(-1,{})", "(1,{2})", "(3,{0,1})", "(2,{})"]
    lamp_batch = lamp1.encode_elements([lamp1.parse(text) for text in lamps])
    built = w.convolution_powers(lamp1, lamp_mu, 6, engine="generic")
    product = w.descriptor_from_string("product(free(2),lamplighter(1))")
    cases = [(lamp1, lamp_batch), (lamp1, built._table.arrays),
             (free2, free2.encode_elements(free2.ball(3))),
             (lattice2, lattice2.encode_elements(lattice2.ball(3))),
             (product, product.encode_elements(product.ball(2)))]
    cases += [(desc, desc.encode_elements([]))
              for desc in (lamp1, free2, lattice2, product)]
    assert len(set(product.codec_runs())) == 2
    for block in (1, 3, 7, 1 << 15):
        monkeypatch.setattr(powers, "_HASH_BLOCK", block)
        for desc, arrays in cases:
            got = powers._element_hashes(desc, arrays)
            want = _reference_hashes(desc, arrays)
            assert got.dtype == np.int64
            assert got.tobytes() == want.tobytes(), (desc.spec_string(), block)


def test_element_hashes_peak_is_bounded():
    """Hashing a 300,000-element lamplighter batch (about 1.35M lamps)
    allocates at most 16 MiB beyond its start, 2.3 MiB of it the hashes:
    the temporaries are bounded by the block, not by the batch."""
    rng = np.random.default_rng(5)
    n = 300_000
    counts = rng.integers(0, 10, size=n)
    arrays = {"pos": rng.integers(-40, 40, size=(n, 1)), "counts": counts,
              "lamps": rng.integers(-40, 40, size=(int(counts.sum()), 1))}
    desc = w.LamplighterGroup(1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        powers._element_hashes(desc, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 16 * 2**20


# perfbench/workloads.lamplighter_measure(7), copied
LAMP_SEED7 = "(0,{}) 6/17\n(1,{}) 3/17\n(-1,{}) 7/17\n(0,{0}) 1/17"


def _traced(fn):
    """``fn()``, the bytes it allocated at its peak and the bytes still
    allocated when it returned, both beyond what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start, live - start


@pytest.mark.parametrize("block", [1, 3, 7, 1 << 13])
def test_compact_positive_matches_flatnonzero(monkeypatch, block):
    """A level's ids, found a block at a time, equal ``np.flatnonzero(acc >
    0.0)`` as int32, and its values, moved to the accumulator's front, equal
    ``acc[ids]`` bit for bit: for accumulators of every length around the
    block size, with no, some and only positive entries."""
    monkeypatch.setattr(powers, "_HASH_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 2, 20_000):
        for density in (0.0, 0.3, 1.0):
            acc = rng.random(n) * (rng.random(n) < density)
            want = np.flatnonzero(acc > 0.0)
            vals = acc[want]
            ids = powers._compact_positive(acc)
            assert ids.dtype == np.int32 and ids.tolist() == want.tolist()
            assert acc[:len(ids)].tobytes() == vals.tobytes()


def test_generic_build_peak_is_bounded(lamp1):
    """Building lamplighter(1) to depth 20 (about 13.5 MiB kept) allocates
    at most 1.35x what the finished cache keeps: the frontier is multiplied
    and interned in blocks, the products are narrowed as they are made,
    lookups gather and compare a block of candidates at a time, the step
    table grows to the element table's size, not to double its capacity,
    and a level's ids are found a block at a time straight into int32 while
    its values move to the front of the accumulator, which then shrinks to
    them."""
    mu = w.parse_measure(LAMP_SEED7, lamp1)
    cache, peak, live = _traced(
        lambda: w.convolution_powers(lamp1, mu, 20, engine="generic"))
    assert cache.depth == 20 and cache.complete
    assert peak <= 1.35 * live, (peak, live)


def test_generic_round_trip_peak_is_bounded(lamp1):
    """The depth-18 lamplighter(1) round trip of the benchmark: export
    allocates at most what the cache keeps (each packed array is deflated
    before it is base64-encoded, so its text is about a fifth of its
    bytes, and the text is json.dumps(doc, sort_keys=True)), and import,
    with the text held by the caller, at most 1.35x what the imported cache
    keeps (each field is inflated to at most its shape's bytes, the ids are
    rebuilt from their deltas level by level, and the repeat check
    compares only equal hashes next to each other in the sorted index)."""
    mu = w.parse_measure(LAMP_SEED7, lamp1)
    cache, _, kept = _traced(
        lambda: w.convolution_powers(lamp1, mu, 18, engine="generic"))
    text, peak, _ = _traced(lambda: w.export_cache_json(cache))
    assert json.dumps(json.loads(text), sort_keys=True) == text
    assert peak <= kept, (peak, kept)
    back, peak, live = _traced(lambda: w.import_cache_json(text))
    assert peak <= 1.35 * live, (peak, live)
    assert w.export_cache_json(back) == text
    for m in range(cache.depth + 1):
        assert back._levels[m].ids.tobytes() == cache._levels[m].ids.tobytes(), m
        assert back._levels[m].vals.tobytes() == cache._levels[m].vals.tobytes(), m


def _counted_products(monkeypatch, desc):
    """A list that gets the number of elements of each batch handed to
    ``desc.mul_encoded``."""
    counts = []
    law, runs = desc.mul_encoded, desc.codec_runs()

    def counted(arrays, s):
        counts.append(len(next(arr for key, arr in arrays.items() if key not in runs)))
        return law(arrays, s)

    monkeypatch.setattr(desc, "mul_encoded", counted)
    return counts


def test_generic_fill_halves_the_products(monkeypatch):
    """On the benchmark's seed-7 lamplighter(1) walk to depth 18, whose
    support holds the identity and is closed under inverses, the step
    table's entries that the group axioms give are not multiplied: at most
    half of the 209,096 (source, support element) pairs reach the group
    law."""
    lamp = w.LamplighterGroup(1)
    counts = _counted_products(monkeypatch, lamp)
    cache = w.convolution_powers(lamp, w.parse_measure(LAMP_SEED7, lamp), 18,
                                 engine="generic")
    assert cache._table.size == 85_806
    assert sum(counts) <= 209_096 // 2, sum(counts)


@pytest.mark.parametrize("walk", ["no-identity-no-inverse", "symmetric-f2",
                                  "reversed-product"])
def test_generic_fill_keeps_levels_and_artifacts(monkeypatch, walk):
    """Levels equal the ``measures.convolve`` reference and the artifact
    round-trips, whether the group axioms fill nothing (a lamplighter(1)
    support with neither the identity nor an inverse pair: every pair of
    every source's row is multiplied, once) or part of the step table (a
    symmetric, non-lazy, anisotropic F2 walk and the reversed product walk
    of ``test_reversed_product_uses_generic_engine``: fewer products than
    pairs)."""
    lattice1, free2 = w.LatticeGroup(1), w.FreeGroup(2)
    desc, text, depth = {
        "no-identity-no-inverse": (w.LamplighterGroup(1), "(1,{}) 1/2\n(1,{0}) 1/2", 8),
        "symmetric-f2": (free2, "a 1/3\nA 1/3\nb 1/6\nB 1/6", 6),
        "reversed-product": (
            w.ProductGroup(lattice1, free2),
            "((0)|e) 0.35\n((0)|a) 1/10\n((0)|A) 1/10\n((0)|b) 1/10\n((0)|B) 1/10\n"
            "((1)|e) 1/8\n((-1)|e) 1/8", 4),
    }[walk]
    mu = w.parse_measure(text, desc)
    counts = _counted_products(monkeypatch, desc)
    cache = w.convolution_powers(desc, mu, depth, engine="generic")
    sources = np.unique(np.concatenate([level.ids for level in cache._levels[:-1]]))
    pairs = len(sources) * len(mu.support)
    if walk == "no-identity-no-inverse":
        assert sum(counts) == pairs
    else:
        assert sum(counts) < pairs
    _assert_matches_convolve(cache, desc, mu)
    text = w.export_cache_json(cache)
    back = w.import_cache_json(text)
    assert w.export_cache_json(back) == text
    for m in range(depth + 1):
        assert back.level_measure(m) == cache.level_measure(m), m
        assert back.level_mass(m) == cache.level_mass(m), m


def test_generic_import_keeps_packed_width(lamp1, lamp_mu):
    """The artifact packs small integers in 8 bits, and the element table,
    built or imported, keeps them at that width, while the table's ``take``
    widens every gathered row to int64, so the group law never computes in
    a narrow dtype: level ids are int32, and every level of the imported
    cache equals a fresh build's."""
    depth = 8
    fresh = w.convolution_powers(lamp1, lamp_mu, depth, engine="generic")
    text = w.export_cache_json(fresh)
    elements = json.loads(text)["payload"]["elements"]
    assert {doc["dtype"] for doc in elements.values()} == {"<i1"}
    back = w.import_cache_json(text)
    for cache in (fresh, back):
        assert {arr.dtype for arr in cache._table.arrays.values()} == {np.dtype(np.int8)}
    for m in range(depth + 1):
        ids = back._levels[m].ids
        assert ids.dtype == np.int32 and fresh._levels[m].ids.dtype == np.int32
        taken = back._table.take(ids)
        assert {arr.dtype for arr in taken.values()} == {np.dtype(np.int64)}
        assert back.level_measure(m) == fresh.level_measure(m), m


@pytest.mark.parametrize("step,width", [(100, np.int16), (2**40, np.int64)])
def test_generic_table_promotes_its_width(lattice1, step, width):
    """A lattice(1) walk with steps of +-100 or +-2^40 outgrows the int8 its
    element table starts in: the table promotes its coordinates (to int16,
    or at once to int64), every level equals the ``measures.convolve``
    reference, and the artifact round-trips bit for bit."""
    mu = w.parse_measure(f"(0) 1/2\n({step}) 1/4\n({-step}) 1/4", lattice1)
    cache = w.convolution_powers(lattice1, mu, 3, engine="generic")
    _assert_matches_convolve(cache, lattice1, mu)
    assert cache._table.arrays["coords"].dtype == width
    text = w.export_cache_json(cache)
    back = w.import_cache_json(text)
    assert w.export_cache_json(back) == text
    for m in range(cache.depth + 1):
        assert back.level_measure(m) == cache.level_measure(m), m
        assert back.level_mass(m) == cache.level_mass(m), m
        for g in cache.level_measure(m).support:
            assert back.log_column(g).tobytes() == cache.log_column(g).tobytes(), g


def test_generic_table_id_limit(monkeypatch, lamp1, lamp_mu):
    """Ids are int32, so an element table that would reach the id limit
    stops the build like the support cap does: an incomplete cache whose
    note names the limit, and whose levels equal a full build's."""
    monkeypatch.setattr(powers, "_ID_LIMIT", 40)
    capped = w.convolution_powers(lamp1, lamp_mu, 8, engine="generic")
    assert not capped.complete and capped._table.size < 40
    assert "int32 ids" in capped.budget_note
    full = w.convolution_powers(lamp1, lamp_mu, capped.depth, engine="generic")
    for m in range(capped.depth + 1):
        assert capped.level_measure(m) == full.level_measure(m), m


def test_determinism_same_inputs(lamp1, lamp_mu):
    c1 = w.convolution_powers(lamp1, lamp_mu, 10)
    c2 = w.convolution_powers(lamp1, lamp_mu, 10)
    l1 = c1.level_measure(10)
    l2 = c2.level_measure(10)
    assert l1.support == l2.support
    assert l1.log_scale == l2.log_scale
