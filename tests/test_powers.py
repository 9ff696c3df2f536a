"""Convolution-power engines: cross-engine equality, invariants, budgets."""

import copy
import json
import math

import numpy as np
import pytest

import walkops as w
from walkops.errors import CoverageError, DescriptorMismatchError, PreconditionError
from walkops.measures import log_radial_mass
from walkops.powers import GenericPowers, _pack, _unpack


def test_engine_selection(lattice1, lattice2, free2, lamp1, lazy_z, lazy_z2,
                          iso_f2, lamp_mu):
    assert w.convolution_powers(lattice1, lazy_z, 4).engine_name == "dense"
    assert w.convolution_powers(free2, iso_f2, 4).engine_name == "radial"
    assert w.convolution_powers(lamp1, lamp_mu, 4).engine_name == "generic"
    aniso = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    assert w.convolution_powers(free2, aniso, 4).engine_name == "generic"


def test_level_zero_is_point_mass(lattice1, lazy_z):
    cache = w.convolution_powers(lattice1, lazy_z, 0)
    assert cache.depth == 0
    assert cache.value(0, (0,)) == 1.0
    assert not cache.has_value(0, (1,))


def test_transition_examples(lazy_z_cache):
    assert w.transition(lazy_z_cache, 0, (5,), (5,)) == 1.0
    assert w.transition(lazy_z_cache, 2, (0,), (0,)) == pytest.approx(3 / 8, rel=1e-13)
    assert w.transition(lazy_z_cache, 2, (0,), (2,)) == pytest.approx(1 / 16, rel=1e-13)
    # G-invariance is exact: computed from x^-1 y
    assert w.transition(lazy_z_cache, 7, (3,), (5,)) == w.transition(
        lazy_z_cache, 7, (0,), (2,)
    )


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
        assert cache.value(6, lamp1.inverse(g)) == pytest.approx(v, rel=1e-12)


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
    rhs = w.radial_convolve(f2_cache.level_radial(4), f2_cache.level_radial(5))
    for r in range(10):
        assert rhs.value_at_radius(r) == pytest.approx(
            lhs.value_at_radius(r), rel=1e-9, abs=1e-320
        )


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
            assert radial.value(m, g) == pytest.approx(v, rel=1e-12)


def test_radial_lattice_vs_generic_equality():
    desc = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    mu_text = (
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8"
    )
    mu = w.parse_measure(mu_text, desc)
    fast = w.convolution_powers(desc, mu, 7)
    assert fast.engine_name == "radial-lattice"
    slow = w.convolution_powers(desc, mu, 7, engine="generic")
    for m in (1, 4, 7):
        lvl = slow.level_measure(m)
        for g, v in lvl.items_values():
            assert fast.value(m, g) == pytest.approx(v, rel=1e-12), (m, g)
        assert fast.level_mass(m) == pytest.approx(1.0, rel=1e-9)


def test_zero_entries_are_absent(lazy_z_cache, f2_cache):
    # parity-unreachable entry at small m
    assert not lazy_z_cache.has_value(1, (2,))
    assert lazy_z_cache.has_value(2, (2,))
    assert not f2_cache.has_value(1, (1, 2))
    assert f2_cache.has_value(2, (1, 2))


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
    cache = w.convolution_powers(lattice1, mu, 8)
    with pytest.raises(PreconditionError, match="no return to identity within 3"):
        w.is_aperiodic(cache, probe_depth=3)
    assert w.is_aperiodic(cache) == (False, 4)


def test_support_cap_keeps_complete_prefix(lamp1, lamp_mu):
    cache = w.convolution_powers(lamp1, lamp_mu, 12, engine="generic",
                                 support_cap=50)
    assert not cache.complete
    assert 0 < cache.depth < 12
    assert cache.level_mass(cache.depth) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(CoverageError):
        cache.log_value(cache.depth + 1, lamp1.identity())


def test_tracked_generic_matches_full(lamp1, lamp_mu):
    track = lamp1.ball(2)
    full = w.convolution_powers(lamp1, lamp_mu, 8)
    tr = GenericPowers(lamp1, lamp_mu, 8, track=track)
    assert tr._track_set is not None
    for m in (2, 5, 8):
        for g in track:
            assert tr.log_value(m, g) == full.log_value(m, g)
    with pytest.raises(CoverageError):
        tr.log_value(3, ((7,), ()))


def test_tracked_dense_matches_full(lattice1, lazy_z):
    full = w.convolution_powers(lattice1, lazy_z, 32)
    tracked = w.convolution_powers(lattice1, lazy_z, 32, engine="dense",
                                   memory_budget_mb=0, track=[(-3,), (3,)])
    for m in (1, 9, 32):
        for v in range(-3, 4):
            assert tracked.log_value(m, (v,)) == full.log_value(m, (v,))
    with pytest.raises(CoverageError):
        tracked.log_value(2, (9,))


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


def _eager_level_masses(cache):
    """Every level mass computed eagerly from the engine's stored levels, as
    the engines did at build time: log_radial_mass of the per-radius values
    (the radial values, or the row sums of a full level array)."""
    if cache.engine_name == "radial":
        rows = [(cache.level_radial(m).values, cache.level_log_scale(m))
                for m in range(cache.depth + 1)]
    else:
        rows = [(arr.reshape(arr.shape[0], -1).sum(axis=1), ls)
                for _, arr, ls, _ in cache._levels]
    out = []
    for values, ls in rows:
        logs = log_radial_mass(values, cache.q)
        out.append(math.exp(logs + ls) if logs > -math.inf else 0.0)
    return out


def test_lazy_level_mass_equals_eager(lattice1, lattice2, lazy_z, lazy_z2, free2,
                                      iso_f2):
    """level_mass, computed on first request, equals the eager log_radial_mass
    of every level bit for bit, and level_log_scale is unchanged: radial,
    dense and radial-lattice caches, full and tracked, and re-imports."""
    product = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    cartesian = w.parse_measure(
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8", product)
    srw_f2 = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    z_up = w.parse_measure("(1) 1/3\n(2) 2/3", lattice1)  # never returns to 0
    cases = [  # (full cache, tracked twin or None)
        (w.convolution_powers(free2, iso_f2, 400), None),
        (w.convolution_powers(free2, srw_f2, 120), None),
        (w.convolution_powers(lattice1, lazy_z, 64),
         w.convolution_powers(lattice1, lazy_z, 64, engine="dense",
                              memory_budget_mb=0, track=[(-3,), (3,)])),
        (w.convolution_powers(lattice1, z_up, 40), None),
        (w.convolution_powers(lattice2, lazy_z2, 30),
         w.convolution_powers(lattice2, lazy_z2, 30, engine="dense",
                              memory_budget_mb=0, track=[(1, -2), (0, 2)])),
        (w.convolution_powers(product, cartesian, 40),
         w.convolution_powers(product, cartesian, 40, engine="radial-lattice",
                              memory_budget_mb=0, track=[((1, 1), (2,)), ((), (-2,))])),
    ]
    for full, tracked in cases:
        eager = _eager_level_masses(full)
        scales = [full.level_log_scale(m) for m in range(full.depth + 1)]
        back = w.import_cache_json(w.export_cache_json(full))
        for cache in (full, back, tracked):
            if cache is None:
                continue
            assert cache.depth == full.depth
            levels = range(cache.depth, -1, -1)  # first requests out of order
            assert [cache.level_mass(m) for m in levels] == eager[::-1]
            assert [cache.level_mass(m) for m in levels] == eager[::-1]
            assert [cache.level_log_scale(m) for m in levels] == scales[::-1]


def _column_cases(lattice1, lattice2, lazy_z, lazy_z2, free2, iso_f2, lamp1, lamp_mu):
    """(label, cache, elements to compare, elements outside a tracked cache)."""
    product = w.ProductGroup(w.FreeGroup(2), w.LatticeGroup(1))
    cartesian = w.parse_measure(
        "(e|(0)) 0.35\n(a|(0)) 1/10\n(A|(0)) 1/10\n(b|(0)) 1/10\n(B|(0)) 1/10\n"
        "(e|(1)) 1/8\n(e|(-1)) 1/8", product)
    srw_f2 = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    z_up = w.parse_measure("(1) 1/3\n(2) 2/3", lattice1)  # never returns to 0
    f2_skew = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    far_f2 = [(1,) * 12, (1, 2, 1, 2, 1, 2, 1, 2, 1)]
    lamp_track = [((0,), ()), ((1,), ((0,),)), ((-1,), ((0,), (1,)))]
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
    cases = [(label, cache, elems, []) for label, cache, elems in full]
    cases += [(label + " re-imported", w.import_cache_json(w.export_cache_json(cache)),
               elems, []) for label, cache, elems in full]
    cases += [
        ("dense tracked",
         w.convolution_powers(lattice1, lazy_z, 64, engine="dense",
                              memory_budget_mb=0, track=[(-3,), (3,)]),
         [(v,) for v in range(-3, 4)], [(4,), (-9,)]),
        ("dense Z^2 tracked",
         w.convolution_powers(lattice2, lazy_z2, 24, engine="dense",
                              memory_budget_mb=0, track=[(1, -2), (0, 2)]),
         [(a, b) for a in range(0, 2) for b in range(-2, 3)], [(2, 0), (0, 3)]),
        ("radial-lattice tracked",
         w.convolution_powers(product, cartesian, 30, engine="radial-lattice",
                              memory_budget_mb=0, track=[((1, 1), (2,)), ((), (-2,))]),
         [(word, (v,)) for word in product.left.ball(2) for v in range(-2, 3)],
         [((1, 1, 1), (0,)), ((), (3,))]),
        ("generic tracked",
         w.convolution_powers(lamp1, lamp_mu, 8, engine="generic", track=lamp_track),
         lamp_track + [lamp1.identity()], [((1,), ()), ((20,), ())]),
    ]
    return cases


def test_log_column_matches_log_value(lattice1, lattice2, lazy_z, lazy_z2, free2,
                                      iso_f2, lamp1, lamp_mu):
    """log_column(g) equals [log_value(m, g) for m in 0..depth] bit for bit,
    absent entries (-inf) included, on every engine, full, tracked and
    re-imported; an element a tracked cache does not keep raises
    CoverageError from both calls."""
    cases = _column_cases(lattice1, lattice2, lazy_z, lazy_z2, free2, iso_f2,
                          lamp1, lamp_mu)
    for label, cache, elems, outside in cases:
        absent = 0
        for g in elems:
            ref = np.array([cache.log_value(m, g) for m in range(cache.depth + 1)])
            col = cache.log_column(g)
            assert col.dtype == np.float64 and col.shape == ref.shape, label
            assert col.tobytes() == ref.tobytes(), (label, g)
            assert cache.log_column(g) is col  # memoized
            assert not col.flags.writeable
            absent += int(np.sum(col == -math.inf))
        assert absent, label  # every case covers absent entries
        for g in outside:
            with pytest.raises(CoverageError):
                cache.log_value(0, g)
            with pytest.raises(CoverageError):
                cache.log_column(g)


def test_log_column_keys(free2, iso_f2, product_f2z, cartesian_mu):
    """The radial engine keeps one column per radius and the array engine
    one per (radius, lattice point): elements with equal keys share it."""
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
    for desc, mu, depth in (
        (lattice1, lazy_z, 6),
        (lamp1, lamp_mu, 5),
        (free2, iso_f2, 6),
        (product_f2z, cartesian_mu, 5),
    ):
        cache = w.convolution_powers(desc, mu, depth)
        text = w.export_cache_json(cache)
        back = w.import_cache_json(text)
        assert back.engine_name == cache.engine_name
        assert back.depth == cache.depth
        ball = desc.ball(3)
        for m in range(depth + 1):
            assert ([back.log_value(m, g) for g in ball]
                    == [cache.log_value(m, g) for g in ball])
            assert back.level_mass(m) == cache.level_mass(m)
            assert back.level_log_scale(m) == cache.level_log_scale(m)
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
    assert len(capped._interner) > last_id + 1
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
            assert back.level_log_scale(m) == cache.level_log_scale(m)
            assert back.support_size(m) == cache.support_size(m)
            assert back.level_measure(m).support == cache.level_measure(m).support


@pytest.fixture(scope="module")
def generic_artifact(free2):
    cache = w.convolution_powers(free2, w.parse_measure(ANISO_F2, free2), 4,
                                 engine="generic")
    return json.loads(w.export_cache_json(cache))


def _edit(doc, fn):
    """Repack the packed array ``doc`` after ``fn`` edits a writable copy
    of it, or with what ``fn`` returns in its place."""
    arr = _unpack(doc).copy()
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


def _swap_in_level(m):
    def tamper(p):
        i = _level_entry(p, m, 0)
        for key in ("ids", "vals"):
            p[key] = _edit(p[key], lambda arr: _swap(arr, i, i + 1))
    return tamper


def _table_size(p):
    return len(_unpack(p["elements"]["lengths"]))


def _empty_level_1(sizes):
    sizes[2] += sizes[1]
    sizes[1] = 0


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
    "id past the table": lambda p: _edit_level("ids", 3, -1, _table_size(p))(p),
    "negative id": _edit_level("ids", 1, 0, -1),
    "zero value": _edit_level("vals", 2, 0, 0.0),
    "negative value": _edit_level("vals", 2, 0, -0.5),
    "NaN value": _edit_level("vals", 2, 0, math.nan),
    "infinite value": _edit_level("vals", 2, 0, math.inf),
    "more vals than ids": _edit_key("vals", lambda arr: np.append(arr, 0.5)),
    "fewer vals than ids": _edit_key("vals", lambda arr: arr[:-1]),
    "float ids": _edit_key("ids", lambda arr: arr.astype(float)),
    "empty level": _edit_key("sizes", _empty_level_1),
    "sizes short of the ids": _edit_key(
        "sizes", lambda arr: arr.__setitem__(-1, arr[-1] - 1)),
    "infinite log_scale": _edit_key(
        "log_scales", lambda arr: arr.__setitem__(2, math.inf)),
    "one log_scale short": _edit_key("log_scales", lambda arr: arr[:-1]),
    "bad dtype": lambda p: p["ids"].__setitem__("dtype", "<i2"),
    "invalid base64": lambda p: p["vals"].__setitem__("data", "not base64!"),
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


def _array_tampers(sizes_key):
    """Tampers for the radial ("sizes") and array ("shapes") payloads."""
    common = {
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
    }
    if sizes_key == "sizes":
        common["empty level"] = _edit_key("sizes", _empty_level_1)
        common["sizes past the values"] = _edit_key(
            "sizes", lambda arr: arr.__setitem__(-1, arr[-1] + 1))
    else:
        common["empty level"] = _edit_key(
            "shapes", lambda arr: arr.__setitem__((1, 1), 0))
        common["shapes past the values"] = _edit_key(
            "shapes", lambda arr: arr.__setitem__((-1, -1), arr[-1, -1] + 1))
        common["lat_lo of the wrong width"] = _edit_key(
            "lat_lo", lambda arr: np.hstack([arr, arr]))
        common["float lat_lo"] = _edit_key("lat_lo", lambda arr: arr.astype(float))
    return common


ARRAY_CASES = [
    ("radial", "sizes"), ("dense", "shapes"), ("radial-lattice", "shapes")]


@pytest.fixture(scope="module")
def array_artifacts(lattice1, lazy_z, free2, iso_f2, product_f2z, cartesian_mu):
    caches = [
        w.convolution_powers(free2, iso_f2, 6),
        w.convolution_powers(lattice1, lazy_z, 6),
        w.convolution_powers(product_f2z, cartesian_mu, 5),
    ]
    assert [c.engine_name for c in caches] == [e for e, _ in ARRAY_CASES]
    return {c.engine_name: json.loads(w.export_cache_json(c)) for c in caches}


@pytest.mark.parametrize("engine,tamper", [
    (engine, name) for engine, key in ARRAY_CASES
    for name in sorted(_array_tampers(key))])
def test_array_tampered_artifact_rejected(array_artifacts, engine, tamper):
    """The radial, dense and radial-lattice payloads are checked at import
    as the generic one is."""
    assert w.import_cache_json(json.dumps(array_artifacts[engine])).engine_name == engine
    doc = copy.deepcopy(array_artifacts[engine])
    key = dict(ARRAY_CASES)[engine]
    _array_tampers(key)[tamper](doc["payload"])
    with pytest.raises(ValueError):
        w.import_cache_json(json.dumps(doc))


def test_packed_arrays_keep_every_bit():
    """Integers pack as <i4 where they fit, else <i8; floats as <f8."""
    floats = np.array([0.1, -0.0, 5e-324, 1.7976931348623157e308, math.pi])
    for arr, dtype in (
        (np.array([[0, -2**31], [2**31 - 1, 5]]), "<i4"),
        (np.array([2**31]), "<i8"),
        (np.array([-2**31 - 1]), "<i8"),
        (np.zeros((0, 3), dtype=np.int64), "<i4"),
        (floats, "<f8"),
    ):
        doc = _pack(arr)
        assert doc["dtype"] == dtype and doc["shape"] == list(arr.shape)
        back = _unpack(json.loads(json.dumps(doc)))
        assert back.shape == arr.shape and back.dtype.kind == arr.dtype.kind
        assert back.tobytes() == arr.astype(back.dtype).tobytes()
    assert _unpack(_pack(floats)).tobytes() == floats.tobytes()


def test_malformed_artifact_is_value_error(generic_artifact):
    """Whatever is wrong with an artifact, import raises ValueError, the
    one error a cache reader treats as a miss."""
    for text in ("[]", "3", '{"format": "walkops-powers-cache", "version": 4}'):
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


class _UnsortedLamplighter(w.LamplighterGroup):
    """A broken group law: lamps come back in reverse order."""

    def _mul(self, a, b):
        pos, lamps = super()._mul(a, b)
        return pos, tuple(reversed(lamps))


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


def test_generic_matches_reference_convolve(lamp1, lamp_mu, free2):
    """Generic-engine levels equal iterated ``measures.convolve``, the
    keyed-collection reference, on a lamplighter and an anisotropic free walk."""
    aniso = w.parse_measure("a 1/2\nA 1/6\nb 1/6\nB 1/6", free2)
    for desc, mu in ((lamp1, lamp_mu), (free2, aniso)):
        cache = w.convolution_powers(desc, mu, 6, engine="generic")
        ref = w.ScaledMeasure.point_mass(desc)
        for m in range(7):
            level = cache.level_measure(m)
            assert set(level.support) == set(ref.support), (desc, m)
            for g, v in ref.items_values():
                assert level.value(g) == pytest.approx(v, rel=1e-12), (desc, m, g)
            ref = w.convolve(ref, mu, desc)


def test_determinism_same_inputs(lamp1, lamp_mu):
    c1 = w.convolution_powers(lamp1, lamp_mu, 10)
    c2 = w.convolution_powers(lamp1, lamp_mu, 10)
    l1 = c1.level_measure(10)
    l2 = c2.level_measure(10)
    assert l1.support == l2.support
    assert l1.log_scale == l2.log_scale
