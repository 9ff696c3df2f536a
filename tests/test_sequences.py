"""Acceleration helpers: exactness on their model sequences."""

import numpy as np
import pytest

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
