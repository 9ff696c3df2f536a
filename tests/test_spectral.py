"""Spectral radius, Green values and the Martin kernel."""

import math

import pytest

import walkops as w
from walkops.errors import PreconditionError
from walkops.spectral import (
    MartinTable,
    green,
    local_limit_exponent,
    martin_kernel,
)

SQRT3 = math.sqrt(3.0)
# lazy isotropic walk on F_2: mixes 1/5 holding with 4/5 of the SRW,
# whose norm on the 4-regular tree is sqrt(3)/2
RHO_F2 = 0.2 + 0.8 * (SQRT3 / 2.0)


def test_rho_lazy_z_near_one(lazy_z_spectral):
    assert abs(lazy_z_spectral.rho_hat - 1.0) <= 0.02
    assert lazy_z_spectral.period == 1
    assert lazy_z_spectral.spread >= 0.0


def test_rho_trivial_point_mass(lattice1):
    mu = w.ScaledMeasure.from_values({(0,): 1.0}, lattice1)
    cache = w.convolution_powers(lattice1, mu, 16)
    est = w.spectral_radius(cache)
    assert est.rho_hat == 1.0


def test_rho_f2_lazy(f2_spectral):
    assert f2_spectral.rho_hat == pytest.approx(RHO_F2, abs=1e-4)


def test_rho_srw_f2_even_subsequence(free2):
    srw = w.parse_measure("a 1/4\nA 1/4\nb 1/4\nB 1/4", free2)
    cache = w.convolution_powers(free2, srw, 2000)
    est = w.spectral_radius(cache)
    assert est.method == "even-subsequence"
    assert est.period == 2
    assert est.rho_hat == pytest.approx(SQRT3 / 2.0, abs=0.01)


def test_rho_srw_z_period_two(lattice1):
    srw = w.parse_measure("(1) 1/2\n(-1) 1/2", lattice1)
    cache = w.convolution_powers(lattice1, srw, 512)
    est = w.spectral_radius(cache)
    assert est.period == 2
    assert est.rho_hat == pytest.approx(1.0, abs=0.02)


def test_rho_lamplighter_generic_engine(lamp1, lamp_mu):
    # amenable group, so rho = 1, but return probabilities decay like a
    # stretched exponential and the ratio tail climbs slowly; at depth 14
    # the estimate is a loose lower approximation with a reported spread
    cache = w.convolution_powers(lamp1, lamp_mu, 14)
    est = w.spectral_radius(cache)
    assert 0.9 < est.rho_hat <= 1.0 + 1e-9
    assert est.spread > 0.0


def test_local_limit_exponents(lazy_z_cache, lazy_z_spectral, lazy_z2_cache,
                               lazy_z2_spectral, f2_cache, f2_spectral):
    assert local_limit_exponent(lazy_z_cache, lazy_z_spectral) == pytest.approx(
        0.5, abs=0.05)
    assert local_limit_exponent(lazy_z2_cache, lazy_z2_spectral) == pytest.approx(
        1.0, abs=0.05)
    assert 1.2 <= local_limit_exponent(f2_cache, f2_spectral) <= 1.8


def test_green_z_zero(lazy_z_cache, lazy_z_spectral):
    rho = lazy_z_spectral.rho_hat
    gv = green(lazy_z_cache, (0,), (0,), 0.0, rho, 0.5)
    assert gv.value == 1.0 and gv.truncation_bound == 0.0
    gv = green(lazy_z_cache, (0,), (1,), 0.0, rho, 0.5)
    assert gv.value == 0.0


def test_green_rejects_negative_z(lazy_z_cache, lazy_z_spectral):
    with pytest.raises(PreconditionError):
        green(lazy_z_cache, (0,), (0,), -0.5, lazy_z_spectral.rho_hat, 0.5)


def test_green_partial_sums_monotone_and_converged(lattice1, lazy_z, lazy_z_cache,
                                                   lazy_z_spectral):
    """A Green sum to t terms is the sum on the depth-t cache, whose column
    is the first t + 1 entries of the deeper cache's column, bit for bit."""
    rho = lazy_z_spectral.rho_hat
    caches = {t: w.convolution_powers(lattice1, lazy_z, t) for t in range(1, 101)}
    for t in (1, 64, 100):
        assert (caches[t].log_column((0,)).tobytes()
                == lazy_z_cache.log_column((0,))[: t + 1].tobytes())
    values = [green(caches[t], (0,), (0,), 0.5, rho, 0.5).value for t in range(1, 101)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    g100 = green(caches[100], (0,), (0,), 0.5, rho, 0.5)
    # exact value for the lazy walk: G(0,0|1/2) of SRW at z' = z/(2-z)
    assert g100.truncation_bound <= 1e-8
    g_more = green(w.convolution_powers(lattice1, lazy_z, 200), (0,), (0,), 0.5, rho, 0.5)
    assert abs(g_more.value - g100.value) <= g100.truncation_bound


def test_green_invariance(lattice1, lazy_z, lazy_z_spectral):
    rho = lazy_z_spectral.rho_hat
    cache = w.convolution_powers(lattice1, lazy_z, 64)
    a = green(cache, (2,), (3,), 0.4, rho, 0.5)
    b = green(cache, (0,), (1,), 0.4, rho, 0.5)
    assert a.value == b.value  # exact: both read the same cache entries


def test_green_unreliable_past_radius(free2, iso_f2, f2_spectral):
    gv = green(w.convolution_powers(free2, iso_f2, 500), (), (), 1.5,
               f2_spectral.rho_hat, 1.5)
    assert not gv.reliable and gv.truncation_bound == math.inf


def test_martin_kernel_base_point(f2_cache, f2_spectral):
    alpha = local_limit_exponent(f2_cache, f2_spectral)
    entry = martin_kernel(f2_cache, (), (1, 1), f2_spectral.rho_hat, alpha)
    assert entry.estimate == 1.0
    assert entry.method == "at-radius"


def test_martin_kernel_diagonal_inverse_relation(f2_cache, f2_spectral):
    # K(x,x) = 1 / F(e,x|1/rho), F(e,x) = G(e,x)/G(x,x) at the radius
    alpha = local_limit_exponent(f2_cache, f2_spectral)
    x = (1,)
    entry = martin_kernel(f2_cache, x, x, f2_spectral.rho_hat, alpha)
    kw = dict(z=1.0 / f2_spectral.rho_hat, rho_hat=f2_spectral.rho_hat, alpha=alpha)
    f_ex = green(f2_cache, (), x, **kw).value / green(f2_cache, x, x, **kw).value
    assert entry.estimate == pytest.approx(1.0 / f_ex, rel=1e-9)


def test_martin_kernel_free_group_tree_formula(f2_cache, f2_spectral):
    """Independent oracle: for isotropic walks on the 4-regular tree the
    critical first-passage weight is 1/sqrt(3), so K(x,y) at the radius is
    sqrt(3)^(d(e,y) - d(x,y)).  Partial sums to M=2000 land within ~3%."""
    alpha = local_limit_exponent(f2_cache, f2_spectral)
    a, a6 = (1,), (1,) * 6
    aa = (1, 1)
    k1 = martin_kernel(f2_cache, a, a6, f2_spectral.rho_hat, alpha)
    assert k1.estimate == pytest.approx(SQRT3, rel=0.03)
    k2 = martin_kernel(f2_cache, aa, a6, f2_spectral.rho_hat, alpha)
    assert k2.estimate == pytest.approx(3.0, rel=0.05)
    assert k1.lo <= k1.estimate <= k1.hi


def test_martin_kernel_positive_and_bounded(f2_cache, f2_spectral, free2):
    # for fixed x the kernel stays positive, finite, and within a broad
    # band around the walk's bound constants across the test ball
    alpha = local_limit_exponent(f2_cache, f2_spectral)
    table = MartinTable(f2_cache, f2_spectral.rho_hat, alpha)
    for x in free2.ball(1):
        bc = w.bound_constants(f2_cache, x, f2_spectral.rho_hat)
        for y in free2.ball(2):
            est = table.get(x, y).estimate
            assert 0.0 < est < math.inf
            assert 0.5 * bc.c <= est <= 2.0 * bc.C, (x, y, est)


def test_martin_table_shared_per_key_pair(f2_cache, f2_spectral, free2, monkeypatch):
    """Martin entries are computed once per key pair of their two Green
    sums, with the numbers of a fresh martin_kernel and the caller's x, y."""
    alpha = local_limit_exponent(f2_cache, f2_spectral)
    rho = f2_spectral.rho_hat
    real = w.spectral.martin_kernel
    calls = []

    def counted(cache, x, y, *args, **kw):
        calls.append((x, y))
        return real(cache, x, y, *args, **kw)

    monkeypatch.setattr(w.spectral, "martin_kernel", counted)
    table = MartinTable(f2_cache, rho, alpha)
    pairs = [((1,), (1, 1)), ((2,), (2, 2)), ((), (1, 2)), ((1, 1), (1, 2))]
    for x, y in pairs:
        entry = table.get(x, y)
        assert (entry.x, entry.y) == (x, y)
        assert entry == real(f2_cache, x, y, rho, alpha)
    # (b, bb) repeats the keys of (a, aa), and (aa, ab) those of (e, ab)
    # (|x^-1 y| = 1 and 2 against |y| = 2)
    assert calls == [((1,), (1, 1)), ((), (1, 2))]


def test_martin_kernel_ladder_path(lazy_z_cache, lazy_z_spectral):
    # alpha = 1/2 <= 1 forces the ladder with Aitken; K(x,y) exists and is
    # positive for the lazy line walk
    entry = martin_kernel(lazy_z_cache, (1,), (2,), lazy_z_spectral.rho_hat, 0.5)
    assert entry.method == "ladder"
    assert entry.estimate > 0.0
