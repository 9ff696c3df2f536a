"""Sequence acceleration for slowly converging ratio tails.

Ratio sequences of convolution powers converge with O(1/m) corrections
(local limit theorems).  Aitken's delta-squared cancels such a correction
exactly when the sequence is sampled at geometrically spaced indices,
because c/m becomes a geometric transient along m, 2m, 4m; Richardson
extrapolation cancels it on consecutive indices.  Both are used here on
noise-free DP data, so no damping or outlier handling is needed.
"""

from __future__ import annotations

import numpy as np

AITKEN_GUARD = 1e-14


def aitken_step(s0: float, s1: float, s2: float) -> float:
    """One Aitken delta-squared step; falls back to s2 on a flat triple."""
    d2 = s2 - 2.0 * s1 + s0
    scale = max(abs(s0), abs(s1), abs(s2), 1.0)
    if abs(d2) <= AITKEN_GUARD * scale:
        return s2
    return s2 - (s2 - s1) ** 2 / d2


def richardson_harmonic(ms, rs) -> np.ndarray:
    """Eliminate an a + b/m correction from consecutive samples.

    For r_m = a + b/m the two-point extrapolant
    (m_j r_j - m_i r_i) / (m_j - m_i) equals a exactly; general spacings
    (period-2 subsequences etc.) are supported.
    """
    ms = np.asarray(ms, dtype=float)
    rs = np.asarray(rs, dtype=float)
    num = ms[1:] * rs[1:] - ms[:-1] * rs[:-1]
    return num / (ms[1:] - ms[:-1])


def fit_harmonic(ms, rs) -> tuple[float, float]:
    """Least-squares fit r_m = a + b/m; returns (a, b)."""
    ms = np.asarray(ms, dtype=float)
    rs = np.asarray(rs, dtype=float)
    x = 1.0 / ms
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, rs, rcond=None)
    return float(coef[0]), float(coef[1])


def halving_ladder(top: int, floor: int, max_points: int = 5) -> list[int]:
    """Indices top, top/2, top/4, ... (>= floor), returned increasing."""
    out = []
    h = top
    while h >= max(floor, 1) and len(out) < max_points:
        out.append(h)
        h //= 2
    out.reverse()
    return out

