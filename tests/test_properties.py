"""Standalone property suites: metric axioms, identity residuals, bounds,
and the radial-vs-generic oracle.  Runnable on its own:

    pytest tests/test_properties.py
"""

import random

import numpy as np
import pytest

import walkops as w
from walkops.measures import radial_step


def _f2_points():
    return [(), (1,), (2,), (-1,), (1, 2), (2, 2), (1, -2)]


# ---------------------------------------------------------------------------
# pseudometric axioms (exact by construction; checked on samples)
# ---------------------------------------------------------------------------

def test_ratio_metric_axioms_exact(f2_table):
    pts = _f2_points()
    rng = random.Random(5)
    for _ in range(30):
        y, z, t = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        d_yz = w.ratio_metric(f2_table, y, z, 2).value
        assert d_yz >= 0.0
        assert d_yz == w.ratio_metric(f2_table, z, y, 2).value
        d_yt = w.ratio_metric(f2_table, y, t, 2).value
        d_tz = w.ratio_metric(f2_table, t, z, 2).value
        assert d_yz <= d_yt + d_tz + 1e-12
    for y in pts:
        assert w.ratio_metric(f2_table, y, y, 2).value == 0.0


def test_metric_separates_non_radical_elements(f2_table):
    # rays through a and b stay apart beyond propagated uncertainty
    mv = w.ratio_metric(f2_table, (1,), (2,), 2)
    assert mv.value > mv.uncertainty + mv.tail_bound


# ---------------------------------------------------------------------------
# identity residuals against propagated uncertainty
# ---------------------------------------------------------------------------

def _cocycle(table, g, x, y, slack):
    """(residual, allowance) of H(x,gy) H(g^-1,y) = H(g^-1 x, y)."""
    desc = table.descriptor
    ginv = desc.inverse(g)
    a = table.get(x, desc.multiply(g, y))
    b = table.get(ginv, y)
    c = table.get(desc.multiply(ginv, x), y)
    residual = abs(a.estimate * b.estimate - c.estimate)
    allowance = slack * (a.uncertainty * abs(b.estimate)
                         + b.uncertainty * abs(a.estimate) + c.uncertainty)
    return residual, allowance


def _harmonicity(table, mu, rho_hat, x, y, rho_spread):
    """(residual, allowance) of sum_{x'} P_{x,x'} H(x',y) = rho H(x,y),
    x' over x * supp(mu)."""
    desc = table.descriptor
    total = allowance = 0.0
    for s, p in mu.items_values():
        entry = table.get(desc.multiply(x, s), y)
        total += p * entry.estimate
        allowance += p * entry.uncertainty
    center = table.get(x, y)
    allowance += rho_hat * center.uncertainty + rho_spread * abs(center.estimate)
    return abs(total - rho_hat * center.estimate), max(allowance, 1e-15)


def test_cocycle_residuals_within_3x_uncertainty(f2_table, lazy_z2_table):
    f2 = w.FreeGroup(2)
    rng = random.Random(3)
    pts = _f2_points()
    for _ in range(15):
        g, x, y = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        residual, allowance = _cocycle(f2_table, g, x, y, slack=3.0)
        assert residual <= allowance, (g, x, y, residual, allowance)
    z2 = w.LatticeGroup(2)
    zpts = z2.ball(1)
    for _ in range(10):
        g, x, y = rng.choice(zpts), rng.choice(zpts), rng.choice(zpts)
        residual, allowance = _cocycle(lazy_z2_table, g, x, y, slack=3.0)
        assert residual <= allowance, (g, x, y, residual, allowance)


def test_rho_harmonicity_within_combined_uncertainty(
    f2_table, f2_spectral, iso_f2, lazy_z2_table, lazy_z2_spectral, lazy_z2
):
    rng = random.Random(17)
    pts = _f2_points()
    for _ in range(10):
        x, y = rng.choice(pts), rng.choice(pts)
        residual, allowance = _harmonicity(
            f2_table, iso_f2, f2_spectral.rho_hat, x, y,
            rho_spread=f2_spectral.spread,
        )
        assert residual <= allowance, (x, y, residual, allowance)
    zpts = w.LatticeGroup(2).ball(1)
    for _ in range(8):
        x, y = rng.choice(zpts), rng.choice(zpts)
        residual, allowance = _harmonicity(
            lazy_z2_table, lazy_z2, lazy_z2_spectral.rho_hat, x, y,
            rho_spread=lazy_z2_spectral.spread,
        )
        assert residual <= allowance, (x, y, residual, allowance)


# ---------------------------------------------------------------------------
# bound-constant containment
# ---------------------------------------------------------------------------

def test_bound_constant_containment(f2_cache, f2_spectral, free2):
    for x in free2.ball(2):
        bc = w.bound_constants(f2_cache, x, f2_spectral.rho_hat)
        assert 0.0 < bc.c <= bc.C
        for y in [(), (1,), (2, 1)]:
            ms, ls = w.log_ratio_sequence(f2_cache, x, y)
            tail = np.exp(ls[ms >= max(bc.n_plus, bc.n_minus) + 50])
            assert np.all(tail <= bc.C * (1 + 1e-9)), (x, y)
            assert np.all(tail >= bc.c * (1 - 1e-9)), (x, y)


# ---------------------------------------------------------------------------
# radial vs generic oracle (exact)
# ---------------------------------------------------------------------------

def test_radial_generic_oracle_equality(free2, iso_f2):
    radial = w.radial_reduce(iso_f2, free2)
    values, log_scale = radial.values, radial.log_scale
    acc_generic = iso_f2
    for m in range(2, 9):
        values = radial_step(values, radial.values, radial.tree_degree)
        log_scale += radial.log_scale
        acc_generic = w.convolve(acc_generic, iso_f2, free2)
        for g, v in acc_generic.items_values():
            assert values[len(g)] * np.exp(log_scale) == pytest.approx(v, rel=1e-12), (m, g)
