"""Acceleration helpers: exactness on their model sequences."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import walkops as w

from walkops.sequences import (
    aitken_step,
    fit_harmonic,
    halving_ladder,
    richardson_harmonic,
)


def _aitken(seq):
    """aitken_step over consecutive triples, as the kernel estimators call it."""
    return [aitken_step(*seq[i:i + 3]) for i in range(len(seq) - 2)]


def test_aitken_exact_on_geometric():
    # s_k = L + c q^k converges; Aitken lands on L exactly
    L, c, q = 2.0, 0.7, 0.5
    seq = [L + c * q**k for k in range(6)]
    acc = _aitken(seq)
    assert acc == pytest.approx([L] * len(acc), abs=1e-12)


def test_aitken_guard_on_constant():
    assert aitken_step(1.0, 1.0, 1.0) == 1.0


def test_richardson_exact_on_harmonic():
    ms = np.array([8, 16, 24, 40])
    rs = 3.0 + 5.0 / ms
    extr = richardson_harmonic(ms, rs)
    assert extr == pytest.approx([3.0] * 3, abs=1e-12)


def test_fit_harmonic():
    ms = np.arange(10, 40)
    rs = 0.9 - 2.0 / ms
    a, b = fit_harmonic(ms, rs)
    assert a == pytest.approx(0.9, abs=1e-12)
    assert b == pytest.approx(-2.0, abs=1e-10)


def _exact_harmonic_fit(ms, rs):
    """The least-squares (a, b) of r = a + b x, x = 1/m, in exact rational
    arithmetic on the same floats x and r that ``fit_harmonic`` reads."""
    x = [Fraction(v) for v in (1.0 / np.asarray(ms, dtype=float)).tolist()]
    r = [Fraction(v) for v in np.asarray(rs, dtype=float).tolist()]
    x_bar, r_bar = sum(x) / len(x), sum(r) / len(r)
    b = (sum((xi - x_bar) * (ri - r_bar) for xi, ri in zip(x, r))
         / sum((xi - x_bar) ** 2 for xi in x))
    return r_bar - b * x_bar, b


def _within_ulps(got: float, exact: Fraction, ulps: int) -> bool:
    return abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(float(exact)))


def test_fit_harmonic_matches_exact_on_free2_ratio_tail(f2_cache, f2_spectral):
    """On the deepest half of the lazy isotropic F2 return-ratio tail, the
    tail local_limit_exponent fits, a and b are within 2 ulps of the exact
    least-squares solution, and so is alpha = -b / (a * period)."""
    ms, rs = f2_spectral.ratios
    half = np.searchsorted(ms, ms[-1] // 2)
    ms, rs = ms[half:], rs[half:]
    a, b = fit_harmonic(ms, rs)
    exact_a, exact_b = _exact_harmonic_fit(ms, rs)
    assert _within_ulps(a, exact_a, 2) and _within_ulps(b, exact_b, 2), (a, b)
    exact_alpha = -exact_b / (exact_a * f2_spectral.period)
    alpha = w.local_limit_exponent(f2_cache, f2_spectral)
    assert _within_ulps(alpha, exact_alpha, 2), (alpha, float(exact_alpha))


@pytest.mark.parametrize("seed", range(30))
def test_fit_harmonic_matches_exact_on_noisy_data(seed):
    """Seeded a + b/m samples with relative noise, on index ranges like a
    ratio tail's (period 1 or 2): the fit is within 2 ulps of the exact
    least-squares solution."""
    rng = random.Random(seed)
    lo = rng.randint(3, 1000)
    ms = np.arange(lo, lo + rng.randint(3, 1000), rng.choice([1, 2]))
    a0, b0, noise = rng.uniform(0.1, 1.0), rng.uniform(-3.0, 3.0), 10.0 ** -rng.randint(3, 12)
    rs = [a0 + b0 / m + noise * rng.gauss(0.0, 1.0) for m in ms.tolist()]
    a, b = fit_harmonic(ms, rs)
    exact_a, exact_b = _exact_harmonic_fit(ms, rs)
    assert _within_ulps(a, exact_a, 2) and _within_ulps(b, exact_b, 2), (a, b)


def test_halving_ladder():
    assert halving_ladder(256, 16) == [16, 32, 64, 128, 256]
    assert halving_ladder(2000, 125) == [125, 250, 500, 1000, 2000]
    assert halving_ladder(10, 40) == []


def test_geometric_aitken_cancels_harmonic_log():
    # log r_m = L + c/m sampled on a doubling ladder is geometric in the
    # ladder index, so the log-domain Aitken recovers exp(L) exactly
    ms = [32, 64, 128, 256]
    logs = [-1.0 + 17.0 / m for m in ms]
    acc = np.exp(_aitken(logs))
    assert acc == pytest.approx([np.exp(-1.0)] * 2, rel=1e-12)
