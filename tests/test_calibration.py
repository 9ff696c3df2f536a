"""One calibration table: printed values scored against closed forms.

Each row names a walk (a cache fixture), a quantity with its exact value
and what it must meet: the share of intervals that hold the exact value,
a cap on the largest relative width and a cap on the largest relative
error.  A point value carries no interval, so its row needs no coverage,
only the error cap.  No cap is raised to make a row pass, so widening an
interval cannot buy coverage.  A row that fails today is a strict xfail
naming the ROADMAP item that mends it.
"""

import math
from dataclasses import dataclass
from typing import Callable

import pytest

import walkops as w

# Kesten: the lazy isotropic F2 walk mixes 1/5 holding with 4/5 of the
# simple walk, whose norm on the 4-regular tree is sqrt(3)/2
RHO_LAZY_F2 = 1 / 5 + (4 / 5) * (math.sqrt(3) / 2)
# drift Z, (0) 1/4, (1) 1/2, (-1) 1/4: min over t of 1/4 + e^t/2 + e^-t/4
RHO_DRIFT_Z = 1 / 4 + 2 * math.sqrt(1 / 8)
# a symmetric walk on an amenable group (Kesten's criterion)
RHO_LAZY_Z2 = 1.0
# the F2 x Z walk of criterion 5 is P = 0.35 I + 0.4 A_F (x) I + 0.25 I (x) A_Z
# with commuting factors, the simple walk on each: ||A_F|| = sqrt(3)/2 by
# Kesten and ||A_Z|| = 1
RHO_CARTESIAN_F2Z = 0.35 + 0.4 * (math.sqrt(3) / 2) + 0.25


@pytest.fixture(scope="module")
def drift_z_cache(lattice1):
    mu = w.parse_measure("(0) 1/4\n(1) 1/2\n(-1) 1/4", lattice1)
    return w.convolution_powers(lattice1, mu, 2000)


@pytest.fixture(scope="module")
def lazy_z_deep_cache(lattice1, lazy_z):
    return w.convolution_powers(lattice1, lazy_z, 2000)


def _rho(exact):
    """The spectral estimate as one interval rho_hat +- spread."""
    def values(cache):
        est = w.spectral_radius(cache)
        return [(est.rho_hat, est.rho_hat - est.spread, est.rho_hat + est.spread, exact)]
    return values


def _ray_log_values(cache):
    """log mu^{*m}(a^m) = m log(1/5) on the lazy isotropic F2 walk: the only
    path to a^m takes the step a m times.  A level keeps one log scale,
    with about 708 nats of double range below its peak, so the ray's end
    is 2.6e-6 relative off at m = 500 and reads absent (-inf) at m = 600."""
    out = []
    for m in (500, 600, 1000, 2000):
        v = cache.log_value(m, (1,) * m)
        out.append((v, v, v, m * math.log(1 / 5)))
    return out


def _level_masses(cache):
    """mu^{*m}(G) = 1 on every level of a probability measure; every tenth
    level is read (2000 and 1570, where the error first passes 1e-10,
    among them).  The level's far tail falls below its one log scale's
    double range and is lost, 8.9e-3 of the mass at m = 2000."""
    return [(mass, mass, mass, 1.0)
            for mass in map(cache.level_mass, range(0, cache.depth + 1, 10))]


def _lazy_z_log_values(cache):
    """log mu^{*m}((m,)) = m log(1/4) on the lazy Z walk, (0) 1/2, (+-1) 1/4:
    the only path to (m,) steps +1 m times.  Exact to 1.6e-16 at m = 500;
    at m = 600 the entry is absent (-inf), as on the F2 ray."""
    out = []
    for m in (100, 500, 600, 1000, 2000):
        v = cache.log_value(m, (m,))
        out.append((v, v, v, m * math.log(1 / 4)))
    return out


def _H(exact):
    """Every H(x, y) entry over x, y in ball(2) with its interval, against
    ``exact(x, y)``; the kernel table reads the spectral estimate of rho,
    as the CLI's does.  An x = e entry is exactly 1 and holds it."""
    def values(cache):
        table = w.KernelTable(cache, rho_hat=w.spectral_radius(cache).rho_hat)
        ball = cache.descriptor.ball(2)
        entries = [table.get(x, y) for x in ball for y in ball]
        return [(e.estimate, e.lo, e.hi, exact(e.x, e.y)) for e in entries]
    return values


def _martin_ray_values(cache):
    """The at-radius Martin kernel K(x, a^k) for x in ball(2) and k = 6..10,
    against the tree's K(x, y) = sqrt(3)^(d(e,y) - d(x,y)); the table reads
    the spectral estimate of rho and the fitted local-limit exponent."""
    est = w.spectral_radius(cache)
    table = w.MartinTable(cache, est.rho_hat, w.local_limit_exponent(cache, est),
                          policy="at-radius")
    desc = cache.descriptor
    out = []
    for k in range(6, 11):
        y = (1,) * k
        for x in desc.ball(2):
            e = table.get(x, y)
            d_xy = len(desc.multiply(desc.inverse(x), y))
            out.append((e.estimate, e.lo, e.hi, math.sqrt(3) ** (k - d_xy)))
    return out


def _cartesian_H_values(cache):
    """Criterion 5's grid: H((w1, v1), (w2, v2)) for w1, w2 in the F2 ball(2)
    and v1, v2 in -2..2, against the F2 factor's closed form H1(w1, w2); the
    symmetric Z factor's H2 is 1."""
    table = w.KernelTable(cache, rho_hat=w.spectral_radius(cache).rho_hat)
    grid = [(word, (v,)) for word in cache.descriptor.left.ball(2) for v in range(-2, 3)]
    entries = [table.get(x, y) for x in grid for y in grid]
    return [(e.estimate, e.lo, e.hi, w.closed_form_H_free_isotropic(2, e.x[0], e.y[0]))
            for e in entries]


@dataclass(frozen=True)
class Row:
    cache: str                # fixture that builds the walk's cache
    values: Callable          # cache -> [(estimate, lo, hi, exact)]
    coverage: float           # share of intervals that must hold the exact value
    width_cap: float          # largest relative width (hi - lo) / |exact|
    error_cap: float          # largest relative error |estimate - exact| / |exact|
    item: int | None = None   # the ROADMAP item a failing row waits for


ROWS = {
    "rho-lazy-f2-M2000": Row("f2_cache", _rho(RHO_LAZY_F2), 1.0, 1e-5, math.inf, item=15),
    "rho-drift-z-M2000": Row("drift_z_cache", _rho(RHO_DRIFT_Z), 1.0, 1e-12, math.inf,
                             item=15),
    "rho-lazy-z2-M256": Row("lazy_z2_cache", _rho(RHO_LAZY_Z2), 1.0, 1e-12, math.inf,
                            item=15),
    "rho-cartesian-f2z-M500": Row("cartesian_cache", _rho(RHO_CARTESIAN_F2Z), 1.0, 1e-5,
                                  math.inf, item=15),
    "ray-log-lazy-f2-M2000": Row("f2_cache", _ray_log_values, 0.0, 0.0, 1e-12, item=1),
    "level-mass-lazy-f2-M2000": Row("f2_cache", _level_masses, 0.0, 0.0, 1e-10, item=1),
    "ray-log-lazy-z-M2000": Row("lazy_z_deep_cache", _lazy_z_log_values, 0.0, 0.0, 1e-12,
                                item=1),
    # the tree local limit's ratio-limit kernel
    "H-lazy-f2-M2000": Row("f2_cache", _H(lambda x, y: w.closed_form_H_free_isotropic(2, x, y)),
                           1.0, 1e-3, math.inf, item=3),
    # e^(theta* x) with theta* = log(1/2)/2, the tilt minimizing the step's
    # exponential moment
    "H-drift-z-M2000": Row("drift_z_cache", _H(lambda x, y: 0.5 ** (x[0] / 2)),
                           1.0, 1e-3, math.inf, item=3),
    # a symmetric walk on Z^2: theta* = 0
    "H-lazy-z2-M256": Row("lazy_z2_cache", _H(lambda x, y: 1.0), 1.0, 1e-3, math.inf,
                          item=3),
    "H-cartesian-f2z-M500": Row("cartesian_cache", _cartesian_H_values, 1.0, 1e-3, math.inf,
                                item=3),
    # the Martin kernel at the radius
    "K-ray-lazy-f2-M2000": Row("f2_cache", _martin_ray_values, 1.0, 0.01, math.inf, item=11),
}


def score(values):
    """(coverage, largest relative width, largest relative error)."""
    held = sum(lo <= exact <= hi for _, lo, hi, exact in values)
    width = max((hi - lo) / abs(exact) if hi != lo else 0.0
                for _, lo, hi, exact in values)
    error = max(abs(est - exact) / abs(exact) for est, _, _, exact in values)
    return held / len(values), width, error


@pytest.mark.parametrize("row", [
    pytest.param(row, id=name, marks=[] if row.item is None else pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item {row.item}"))
    for name, row in ROWS.items()
])
def test_calibration(request, row):
    coverage, width, error = score(row.values(request.getfixturevalue(row.cache)))
    assert coverage >= row.coverage, (coverage, width, error)
    assert width <= row.width_cap, (coverage, width, error)
    assert error <= row.error_cap, (coverage, width, error)


def test_score_reads_coverage_width_and_error():
    values = [(1.0, 0.5, 1.5, 1.0), (2.1, 2.05, 2.15, 2.0), (-3.0, -3.0, -3.0, -3.0)]
    assert score(values) == pytest.approx((2 / 3, 1.0, 0.05))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 22")
def test_radical_anisotropic_f2_M10(free2):
    """On the symmetric anisotropic F2 walk e 1/5, a 3/10, A 3/10, b 1/10,
    B 1/10 (the generic engine) at M = 10, the radical of a free group is
    {e}: ``detect_radical(table, 1, 2)`` may flag no other element unless
    its verdict says the question is undetermined.  Today the shallow
    table flags every element of ball(1), with no verdict field at all."""
    mu = w.parse_measure("e 1/5\na 3/10\nA 3/10\nb 1/10\nB 1/10", free2)
    cache = w.convolution_powers(free2, mu, 10, engine="generic")
    table = w.KernelTable(cache, rho_hat=w.spectral_radius(cache).rho_hat)
    report = w.detect_radical(table, 1, 2)
    wrong = [y for y in report.flagged if y != free2.identity()]
    assert not wrong or "undetermined" in getattr(report, "verdict", ""), wrong
