"""Ratio-limit kernel, radical, metrics, traces and the identity checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

import walkops as w
from walkops.errors import CoverageError, PreconditionError, RadiusExhaustedError
from walkops.sequences import richardson_harmonic

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# ratio sequences
# ---------------------------------------------------------------------------

def test_ratio_sequence_identity_row(lazy_z_cache):
    ms, ls = w.log_ratio_sequence(lazy_z_cache, (0,), (5,))
    assert np.all(ls == 0.0)


def test_ratio_sequence_lazy_z_trend(lazy_z_cache):
    ms, ls = w.log_ratio_sequence(lazy_z_cache, (1,), (0,))
    rs = np.exp(ls)
    # exact DP: ratios pull toward 1 with the expected monotone trend
    tail = rs[ms >= 200]
    assert abs(tail[-1] - 1.0) < abs(rs[9] - 1.0)
    assert abs(tail[-1] - 1.0) <= 0.01


def test_ratio_sequence_rejects_periodic(lattice1):
    srw = w.parse_measure("(1) 1/2\n(-1) 1/2", lattice1)
    cache = w.convolution_powers(lattice1, srw, 32)
    with pytest.raises(PreconditionError):
        w.log_ratio_sequence(cache, (1,), (0,))


def test_ratio_sequence_unreached(lazy_z_cache):
    with pytest.raises(CoverageError):
        w.log_ratio_sequence(lazy_z_cache, (1,), (500,))


def test_ratio_tail_in_bound_constants(f2_cache, f2_spectral):
    # c_x <= mu^{*m}(x^-1 y)/mu^{*m}(y) <= C_x for large m
    bc = w.bound_constants(f2_cache, (1,), f2_spectral.rho_hat)
    assert 0 < bc.c <= bc.C
    ms, ls = w.log_ratio_sequence(f2_cache, (1,), ())
    tail = np.exp(ls[ms >= 100])
    assert np.all(tail <= bc.C * (1 + 1e-9))
    assert np.all(tail >= bc.c * (1 - 1e-9))


def test_bound_constants_identity(f2_cache, f2_spectral):
    bc = w.bound_constants(f2_cache, (), f2_spectral.rho_hat)
    assert bc.c == bc.C == 1.0
    assert bc.n_plus == bc.n_minus == 0


def test_bound_constants_lazy_z(lazy_z_cache, lazy_z_spectral):
    bc = w.bound_constants(lazy_z_cache, (1,), lazy_z_spectral.rho_hat)
    assert bc.n_plus == 1
    assert bc.C == pytest.approx(lazy_z_spectral.rho_hat / 0.25, rel=1e-12)
    assert bc.c == pytest.approx(0.25 / lazy_z_spectral.rho_hat, rel=1e-12)


# ---------------------------------------------------------------------------
# kernel estimates and the closed form
# ---------------------------------------------------------------------------

def test_estimate_H_identity_row_exact(lazy_z_cache):
    entry = w.estimate_H(lazy_z_cache, (0,), (3,))
    assert entry.estimate == entry.lo == entry.hi == 1.0


def test_closed_form_values():
    F2 = w.FreeGroup(2)
    a, ab = F2.parse("a"), F2.parse("ab")
    for y in [(), (1,), (1, 2), (2, -1)]:
        assert w.closed_form_H_free_isotropic(2, (), y) == 1.0
    assert w.closed_form_H_free_isotropic(2, a, a) == pytest.approx(
        (1.0 / 1.5) * SQRT3, rel=1e-15
    )
    assert w.closed_form_H_free_isotropic(2, a, ab) == pytest.approx(
        (1.5 / 2.0) * SQRT3, rel=1e-15
    )


def test_estimate_H_matches_closed_form(f2_table, free2):
    """1% closed-form agreement on the 2-ball at depth 2000 (it is far
    tighter in practice)."""
    ball = free2.ball(2)
    for x in ball:
        for y in ball:
            entry = f2_table.get(x, y)
            exact = w.closed_form_H_free_isotropic(2, x, y)
            assert abs(entry.estimate - exact) <= 0.01 * exact, (x, y)
            assert entry.estimate > 0


def test_estimate_H_avez_target(lazy_z2_table, lattice2):
    # amenable symmetric aperiodic: H constant 1
    ball = lattice2.ball(3)
    for x in ball:
        for y in ball:
            entry = lazy_z2_table.get(x, y)
            assert abs(entry.estimate - 1.0) <= 0.05


def test_kernel_entry_bookkeeping(f2_table):
    entry = f2_table.get((1,), (1, 2))
    assert entry.accelerated
    assert entry.lo <= entry.estimate <= entry.hi
    assert entry.m_window[1] == 2000
    assert entry.lo > 0
    # the accelerated window spans the ladder: depth // 16 up to the depth
    assert entry.m_window == (125, 2000)


def test_kernel_table_entries_match_fresh_estimates(f2_cache, f2_spectral, free2):
    """Entries shared per pair of column keys carry the numbers a fresh
    estimate_H gives for the caller's own (x, y), and name that x and y."""
    table = w.KernelTable(f2_cache, rho_hat=f2_spectral.rho_hat)
    ball = free2.ball(2)
    for x in ball:
        for y in ball:
            entry = table.get(x, y)
            fresh = w.estimate_H(f2_cache, x, y)
            assert (entry.x, entry.y) == (x, y)
            for name in ("estimate", "lo", "hi", "m_window", "accelerated"):
                assert getattr(entry, name) == getattr(fresh, name), (x, y, name)
            assert entry == fresh
            assert table.get(x, y) is entry


def test_kernel_table_identity_entry_kept_apart(f2_cache, f2_spectral):
    """x = e is the exact 1 entry; x = ab, y = a has the key pair of
    (e, a) but still goes through the ladder, in either order."""
    e, a, ab = (), (1,), (1, 2)
    for order in ((e, ab), (ab, e)):
        table = w.KernelTable(f2_cache, rho_hat=f2_spectral.rho_hat)
        got = {x: table.get(x, a) for x in order}
        exact = got[e]
        assert [exact.lo, exact.hi] == [1.0, 1.0] and exact.estimate == 1.0
        assert not exact.accelerated and exact.m_window == (0, f2_cache.depth)
        ladder = got[ab]
        assert ladder.accelerated
        assert ladder.m_window == (f2_cache.depth // 16, f2_cache.depth)


def test_kernel_table_identity_entry_on_tracked_cache(lattice1, lazy_z):
    """The x = e entry reads no column, so a cache over its memory budget
    answers it for a y outside its box; an x != e entry there replays the
    box and equals the fully retained cache's entry bit for bit."""
    cache = w.convolution_powers(lattice1, lazy_z, 32, engine="dense", memory_budget_mb=0)
    full_cache = w.convolution_powers(lattice1, lazy_z, 32)
    rho = w.spectral_radius(full_cache).rho_hat
    table = w.KernelTable(cache, rho_hat=rho)
    full = w.KernelTable(full_cache, rho_hat=rho)
    assert table.get((0,), (9,)).estimate == 1.0
    got, want = table.get((1,), (9,)), full.get((1,), (9,))
    assert (got.estimate, got.lo, got.hi) == (want.estimate, want.lo, want.hi)
    got_seq = w.log_ratio_sequence(cache, (1,), (9,))
    want_seq = w.log_ratio_sequence(full_cache, (1,), (9,))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got_seq, want_seq))


def test_kernel_table_entry_shared_per_key_pair(f2_cache, f2_spectral):
    table = w.KernelTable(f2_cache, rho_hat=f2_spectral.rho_hat)
    entry = table.get((1,), (1, 2))
    # (abb, ab) has the key pair of (a, ab): the same numbers, its own x
    other = table.get((1, 2, 2), (1, 2))
    assert (other.x, other.y) == ((1, 2, 2), (1, 2))
    assert replace(other, x=entry.x) == entry


def test_kernel_table_one_ratio_sequence_per_key_pair(f2_cache, f2_spectral, free2,
                                                     monkeypatch):
    desc, key_of = f2_cache.descriptor, f2_cache.column_key
    seen = []
    real = w.ratiolimit.log_ratio_sequence

    def counted(cache, x, y):
        seen.append((key_of(desc.multiply(desc.inverse(x), y)), key_of(y)))
        return real(cache, x, y)

    monkeypatch.setattr(w.ratiolimit, "log_ratio_sequence", counted)
    table = w.KernelTable(f2_cache, rho_hat=f2_spectral.rho_hat)
    ball = free2.ball(2)
    for x in ball:
        for y in ball:
            table.get(x, y)
    assert len(table.entries()) == len(ball) ** 2
    assert len(seen) == len(set(seen)) <= 15


def test_bound_constant_shared_per_key_pair(f2_cache, f2_spectral, monkeypatch):
    real = w.ratiolimit.bound_constants
    calls = []

    def counted(cache, x, rho_hat):
        calls.append(x)
        return real(cache, x, rho_hat)

    monkeypatch.setattr(w.ratiolimit, "bound_constants", counted)
    table = w.KernelTable(f2_cache, rho_hat=f2_spectral.rho_hat)
    for x in ((1,), (-2,), (1, 2)):
        assert table.bound_constant(x) == real(f2_cache, x, f2_spectral.rho_hat)
    # a and B share the key pair of two radius-1 columns
    assert calls == [(1,), (1, 2)]


def test_kernel_table_rejects_periodic(lattice1):
    srw = w.parse_measure("(1) 1/2\n(-1) 1/2", lattice1)
    cache = w.convolution_powers(lattice1, srw, 32)
    with pytest.raises(PreconditionError):
        w.KernelTable(cache, rho_hat=1.0)


# ---------------------------------------------------------------------------
# tail oscillation: evidence for the strong ratio limit property (SRLP)
# ---------------------------------------------------------------------------

def _worst_oscillation(table, ball):
    """The widest kernel-entry window over ball x ball."""
    return max(table.get(x, y).hi - table.get(x, y).lo for x in ball for y in ball)


def test_srlp_lazy_z_consistent(lazy_z_table, lattice1):
    assert _worst_oscillation(lazy_z_table, lattice1.ball(3)) <= 0.02


def test_srlp_f2_consistent(f2_table, free2):
    assert _worst_oscillation(f2_table, free2.ball(2)) <= 0.01


# ---------------------------------------------------------------------------
# radical detection
# ---------------------------------------------------------------------------

def test_radical_identity_always_flagged(f2_table):
    rep = w.detect_radical(f2_table, ball_radius=1, probe_radius=1)
    assert () in rep.flagged


def test_radical_f2_trivial(f2_table, free2):
    rep = w.detect_radical(f2_table, ball_radius=2, probe_radius=1)
    assert rep.flags_only_identity(free2.identity())


def test_radical_lazy_z2_everything(lazy_z2_table, lattice2):
    rep = w.detect_radical(lazy_z2_table, ball_radius=3, probe_radius=1)
    assert rep.flags_all(lattice2.ball(3))
    # closure residuals stay within 3x the detection band
    for res in rep.product_residuals.values():
        assert res <= 3.0 * max(rep.tol_used.values())
    for res in rep.inverse_residuals.values():
        assert res <= 3.0 * max(rep.tol_used.values())


# ---------------------------------------------------------------------------
# ratio metric
# ---------------------------------------------------------------------------

def test_ratio_metric_zero_distance(f2_table):
    mv = w.ratio_metric(f2_table, (1,), (1,), 2)
    assert mv.value == 0.0
    assert mv.tail_bound == 2.0 ** (-17)


def test_ratio_metric_separates_f2(f2_table):
    mv = w.ratio_metric(f2_table, (1,), (2,), 2)
    assert mv.value > mv.uncertainty > 0.0


def test_ratio_metric_pseudometric_axioms(f2_table):
    pts = [(1,), (2,), (1, 2), ()]
    for y in pts:
        for z in pts:
            d_yz = w.ratio_metric(f2_table, y, z, 2)
            d_zy = w.ratio_metric(f2_table, z, y, 2)
            assert d_yz.value == d_zy.value
            for t in pts:
                d_yt = w.ratio_metric(f2_table, y, t, 2)
                d_tz = w.ratio_metric(f2_table, t, z, 2)
                assert d_yz.value <= d_yt.value + d_tz.value + 1e-12


def test_ratio_metric_lazy_z_single_coset(lazy_z_table, lattice1):
    # amenable symmetric walk: true distance 0 for every pair, and the
    # estimate stays within its own uncertainty + tail budget
    for y in lattice1.ball(3):
        for z in lattice1.ball(3):
            mv = w.ratio_metric(lazy_z_table, y, z, 3)
            assert mv.value <= mv.uncertainty + mv.tail_bound, (y, z)


# ---------------------------------------------------------------------------
# boundary traces
# ---------------------------------------------------------------------------

def test_boundary_trace_constant_sequence(f2_table):
    # residual = 0 + tail bound 2^-17, so any tolerance above that passes
    rep = w.boundary_trace(f2_table, [(1, 2)] * 4, probe_radius=1,
                           metric_ball_radius=2, tol=1e-4)
    assert rep.passed and rep.verdict == "converging"
    col = rep.extra["traces"]["a"]
    assert all(v == col[0] for v in col)


def test_boundary_trace_ray_converges(f2_table, free2):
    seq = [(1,) * k for k in range(6, 13)]
    rep = w.boundary_trace(f2_table, seq, probe_radius=2,
                           metric_ball_radius=2, tol=0.01)
    assert rep.passed
    # limit along the a-ray approaches the closed-form boundary value
    lim = rep.extra["limits"]["a"]
    assert lim == pytest.approx(SQRT3, rel=0.02)


def test_boundary_trace_word_length_fallback(f2_table, monkeypatch):
    """A sequence element whose word length lies past the descriptor's BFS
    radius (``word_length`` raises RadiusExhaustedError, as on a lamplighter
    group) is placed at its position in the sequence; any other error from
    ``word_length`` propagates."""
    seq = [(1,) * k for k in range(6, 13)]

    def trace():
        return w.boundary_trace(f2_table, seq, probe_radius=1,
                                metric_ball_radius=2, tol=0.01)

    ref = trace()

    def exhausted(a):
        raise RadiusExhaustedError("word length exceeds the BFS radius")

    monkeypatch.setattr(f2_table.descriptor, "word_length", exhausted)
    rep = trace()
    assert rep.extra["traces"] == ref.extra["traces"]
    for x, tr in rep.extra["traces"].items():
        by_position = float(richardson_harmonic(list(range(1, len(seq) + 1)), tr)[-1])
        assert rep.extra["limits"][x] == by_position, x

    def broken(a):
        raise KeyError("a fault inside word_length")

    monkeypatch.setattr(f2_table.descriptor, "word_length", broken)
    with pytest.raises(KeyError, match="a fault inside word_length"):
        trace()


def test_boundary_trace_equal_word_lengths(lazy_z2_table):
    """Points of equal word length earlier in the sequence ((1,0) and
    (0,1), both of length 1) do not enter the limit: it is the Richardson
    step on the last two points alone, with no division by zero (a
    RuntimeWarning, an error under the test settings)."""
    seq = [(1, 0), (0, 1), (2, 0)]
    rep = w.boundary_trace(lazy_z2_table, seq, probe_radius=1,
                           metric_ball_radius=1, tol=1.0)
    extrapolated = 0
    for x, tr in rep.extra["traces"].items():
        if len(set(tr)) > 1:
            extrapolated += 1
            assert rep.extra["limits"][x] == (2 * tr[2] - 1 * tr[1]) / (2 - 1), x
        else:
            assert rep.extra["limits"][x] == tr[-1], x
    assert extrapolated > 0


def test_boundary_trace_rejects_empty_sequence(f2_table):
    """An empty sequence has no trace to extrapolate: a precondition
    failure, not an IndexError from reading its last point."""
    with pytest.raises(PreconditionError, match="nonempty sequence"):
        w.boundary_trace(f2_table, [], probe_radius=1, metric_ball_radius=2,
                         tol=0.01)


def test_boundary_trace_alternating_not_cauchy(f2_table):
    seq = []
    for k in range(4, 8):
        seq.append((1,) * k)
        seq.append((2,) * k)
    rep = w.boundary_trace(f2_table, seq, probe_radius=1,
                           metric_ball_radius=2, tol=0.01)
    assert not rep.passed
    assert rep.verdict == "not Cauchy"


# ---------------------------------------------------------------------------
# the cocycle identity H(x,gy) H(g^-1,y) = H(g^-1 x, y), rho-harmonicity
# sum_{x'} P_{x,x'} H(x',y) = rho H(x,y), and the Martin kernel
# ---------------------------------------------------------------------------

def test_cocycle_identity_element(f2_table):
    # g = e: H(e,y) = 1 exactly, so both sides are the entry H(x,y)
    h = f2_table.get((1,), (2,)).estimate
    assert h * f2_table.get((), (2,)).estimate - h == 0.0


def test_cocycle_closed_form_exact(free2):
    def h(x, y):
        return w.closed_form_H_free_isotropic(2, x, y)

    for g, x, y in [((1,), (2,), (1, 2)), ((2, 1), (1,), (2,)),
                    ((-1,), (1, 2), ())]:
        ginv = free2.inverse(g)
        lhs = h(x, free2.multiply(g, y)) * h(ginv, y)
        assert abs(lhs - h(free2.multiply(ginv, x), y)) <= 1e-12


def test_cocycle_estimates_within_allowance(lazy_z2_table):
    a = lazy_z2_table.get((0, 1), (2, 1))    # H(x, gy), g = (1, 0)
    b = lazy_z2_table.get((-1, 0), (1, 1))   # H(g^-1, y)
    c = lazy_z2_table.get((-1, 1), (1, 1))   # H(g^-1 x, y)
    residual = abs(a.estimate * b.estimate - c.estimate)
    allowance = 3.0 * (a.uncertainty * abs(b.estimate)
                       + b.uncertainty * abs(a.estimate) + c.uncertainty)
    assert residual <= max(allowance, 0.01)


def test_rho_harmonicity_closed_form(free2, iso_f2):
    # exact rho for the lazy isotropic walk; closed form is rho-harmonic
    rho = 0.2 + 0.8 * (SQRT3 / 2.0)
    for x, y in [((1,), (1, 2, 1)), ((2,), (1,) * 5), ((), (2, 2))]:
        total = sum(p * w.closed_form_H_free_isotropic(2, free2.multiply(x, s), y)
                    for s, p in iso_f2.items_values())
        assert abs(total - rho * w.closed_form_H_free_isotropic(2, x, y)) <= 1e-6


def test_rho_harmonicity_estimates(f2_table, iso_f2, f2_spectral, free2):
    x, y = (1,), (1, 2, 1)
    rho, total, allowance = f2_spectral.rho_hat, 0.0, 0.0
    for s, p in iso_f2.items_values():
        entry = f2_table.get(free2.multiply(x, s), y)
        total += p * entry.estimate
        allowance += p * entry.uncertainty
    center = f2_table.get(x, y)
    allowance += rho * center.uncertainty + f2_spectral.spread * abs(center.estimate)
    assert abs(total - rho * center.estimate) <= 3.0 * allowance


def test_martin_vs_ratio_base_point(f2_cache, f2_spectral, f2_table):
    alpha = w.local_limit_exponent(f2_cache, f2_spectral)
    mt = w.MartinTable(f2_cache, f2_spectral.rho_hat, alpha)
    # both kernels are exactly 1 at the base point
    assert mt.get((), (1,) * 6).estimate == f2_table.get((), (1,) * 6).estimate == 1.0
