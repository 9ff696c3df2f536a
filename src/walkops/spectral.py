"""Spectral radius, the Green kernel and the Martin kernel.

All estimates come with explicit error accounting: the spectral radius
reports the oscillation of its extrapolated tail, Green values carry a
rigorous truncation bound from a geometric/polynomial tail model, and
Martin kernel entries carry an interval propagated from those bounds (or
from ladder spread when evaluation at the radius is not justified).

Green and Martin values are fixed by the cache and the walk's spectral
data: every Green series sums all levels 0..M of the cache, and takes
rho_hat and the local-limit exponent alpha from its caller (a Martin
table passes its own).  A shorter sum is the sum on a shallower cache,
whose columns are prefixes of the deeper cache's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError
from .measures import NEG_INF
from .powers import PowersCache
from .sequences import fit_harmonic, richardson_harmonic, aitken_step


@dataclass
class SpectralEstimate:
    rho_hat: float
    method: str               # "extrapolated" | "even-subsequence" | "successive-ratio"
    m_range: tuple
    spread: float
    period: int = 1
    ratios: list = field(default_factory=list)  # raw (m, ratio) tail, for plots/audit

    def as_dict(self):
        return {
            "rho_hat": self.rho_hat,
            "method": self.method,
            "m_range": list(self.m_range),
            "spread": self.spread,
            "period": self.period,
        }


def _return_ratio_tail(cache: PowersCache, period: int):
    """(m, mu^{*(m+p)}(e)/mu^{*m}(e)) over the levels where both returns exist."""
    col = cache.log_column(cache.descriptor.identity())
    ms = np.flatnonzero((col[:-period] > NEG_INF) & (col[period:] > NEG_INF))
    rs = np.array([math.exp(d) for d in (col[ms + period] - col[ms]).tolist()])
    return ms, rs


def spectral_radius(cache: PowersCache) -> SpectralEstimate:
    """Estimate rho from return-probability ratios.

    Aperiodic walks use successive ratios mu^{*(m+1)}(e)/mu^{*m}(e);
    period-p walks the p-step subsequence (ratio -> rho^p).  A Richardson
    step removes the 1 + c/m correction; the reported spread is the
    oscillation of the extrapolated tail.
    """
    aperiodic, period = cache.aperiodicity()
    ms, rs = _return_ratio_tail(cache, period)
    if len(ms) < 2:
        raise PreconditionError("cache too shallow for spectral-radius ratios")
    half = np.searchsorted(ms, ms[-1] // 2)
    tail_ms, tail_rs = ms[half:], rs[half:]
    raw = list(zip(ms.tolist(), rs.tolist()))
    if len(tail_ms) < 2:
        tail_ms, tail_rs = ms, rs
    if len(tail_ms) == 1 or tail_ms[-1] < 8:
        rho = float(tail_rs[-1]) ** (1.0 / period)
        return SpectralEstimate(
            rho_hat=rho,
            method="successive-ratio" if aperiodic else "even-subsequence",
            m_range=(int(ms[0]), int(ms[-1])),
            spread=float(tail_rs.max() - tail_rs.min()),
            period=period,
            ratios=raw,
        )
    extr = richardson_harmonic(tail_ms, tail_rs)
    window = max(4, len(extr) // 4)
    view = extr[-window:]
    rho_p = float(extr[-1])
    rho = rho_p ** (1.0 / period)
    spread = float(view.max() - view.min()) / period
    return SpectralEstimate(
        rho_hat=rho,
        method="extrapolated" if aperiodic else "even-subsequence",
        m_range=(int(tail_ms[0]), int(tail_ms[-1])),
        spread=spread,
        period=period,
        ratios=raw,
    )


def local_limit_exponent(cache: PowersCache, estimate: SpectralEstimate):
    """Fit alpha in mu^{*m}(e) ~ C rho^m m^{-alpha} from the ratio tail.

    Fits r_m = a + b/m on the deepest half of the return-ratio sequence;
    alpha = -b / (a * period).  Used by truncation-error models and by the
    decision to evaluate Green series at the radius.
    """
    period = estimate.period
    ms, rs = _return_ratio_tail(cache, period)
    half = np.searchsorted(ms, ms[-1] // 2)
    ms, rs = ms[half:], rs[half:]
    if len(ms) < 3:
        raise PreconditionError("cache too shallow to fit a local-limit exponent")
    a, b = fit_harmonic(ms, rs)
    return -b / (a * period)


# ---------------------------------------------------------------------------
# Green kernel
# ---------------------------------------------------------------------------

@dataclass
class GreenValue:
    value: float
    truncation_bound: float
    terms_used: int
    z: float
    reliable: bool = True


def green(cache: PowersCache, x, y, z: float, rho_hat: float,
          alpha: float) -> GreenValue:
    """Partial sum of G(x,y|z) = sum_n P^(n)_{x,y} z^n, n = 0..M (the
    cache depth), with a tail bound.

    The bound uses the geometric model t_{T+j} <= t_T (z rho)^j, tightened
    by the fitted polynomial factor when summing at the radius z rho = 1
    (needs alpha > 1); flagged unreliable past the radius of convergence.
    """
    if z < 0:
        raise PreconditionError("Green kernel is evaluated for z >= 0 only")
    top = cache.depth
    col = cache.transition_column(x, y)
    if z == 0.0:
        # only the n = 0 term survives
        total = math.exp(col[0]) if col[0] > NEG_INF else 0.0
        return GreenValue(value=total, truncation_bound=0.0, terms_used=top, z=z)
    # absent entries contribute nothing; presence may resume later
    ns = np.flatnonzero(col > NEG_INF)
    # n * log z is 0.0 at n = 0, so that term is exp(log mu^{*0}(g))
    ts = [math.exp(v) for v in (col[ns] + ns * math.log(z)).tolist()]
    total = 0.0
    for t in ts:  # left to right, in the order of the series
        total += t
    tail_terms = [t for n, t in zip(ns.tolist(), ts) if n > top - 6 and t > 0.0]
    if total == 0.0:
        # y not reached within the summed terms: nothing to anchor a tail
        # model on, so the partial sum bounds nothing
        return GreenValue(value=0.0, truncation_bound=math.inf, terms_used=top,
                          z=z, reliable=False)
    t_ref = max(tail_terms) if tail_terms else 0.0
    if t_ref == 0.0:
        return GreenValue(value=total, truncation_bound=0.0, terms_used=top, z=z)
    w = z * rho_hat
    if w < 1.0 - 1e-12:
        bound = t_ref * w / (1.0 - w)
        reliable = True
    elif w <= 1.0 + 1e-9 and alpha > 1.0:
        bound = t_ref * top / (alpha - 1.0)
        reliable = True
    else:
        bound = math.inf
        reliable = False
    return GreenValue(value=total, truncation_bound=bound, terms_used=top,
                      z=z, reliable=reliable)


# ---------------------------------------------------------------------------
# Martin kernel
# ---------------------------------------------------------------------------

@dataclass
class MartinEntry:
    x: object
    y: object
    estimate: float
    lo: float
    hi: float
    method: str          # "at-radius" | "ladder"
    converged: bool = True

    @property
    def uncertainty(self) -> float:
        return max(self.hi - self.estimate, self.estimate - self.lo)


def martin_kernel(cache: PowersCache, x, y, rho_hat: float, alpha: float,
                  policy: str = "auto") -> MartinEntry:
    """K(x,y) = lim_{z -> 1/rho} G(x,y|z) / G(e,y|z), base point e.

    Evaluation policy: with ``auto``, the ratio is evaluated directly at
    the radius when the fitted local-limit exponent exceeds 1 (the series
    converges there), with the interval propagated from the two truncation
    bounds; otherwise along the ladder z_k = (1 - 2^-k)/rho with Aitken
    extrapolation (eight rungs, k = 2..9) and the ladder spread as the
    interval.  ``at-radius`` and ``ladder`` force one branch.
    """
    e = cache.descriptor.identity()
    if policy not in ("auto", "at-radius", "ladder"):
        raise PreconditionError(f"unknown martin_kernel policy {policy!r}")
    at_radius = alpha > 1.0 if policy == "auto" else policy == "at-radius"
    if at_radius:
        z = 1.0 / rho_hat
        g1 = green(cache, x, y, z, rho_hat, alpha)
        g2 = green(cache, e, y, z, rho_hat, alpha)
        est = g1.value / g2.value
        lo = g1.value / (g2.value + g2.truncation_bound)
        hi = (g1.value + g1.truncation_bound) / g2.value
        return MartinEntry(x=x, y=y, estimate=est, lo=lo, hi=hi, method="at-radius",
                           converged=g1.reliable and g2.reliable)
    vals = []
    for k in range(2, 10):
        z = (1.0 - 2.0 ** (-k)) / rho_hat
        g1 = green(cache, x, y, z, rho_hat, alpha)
        g2 = green(cache, e, y, z, rho_hat, alpha)
        vals.append(g1.value / g2.value)
    acc = [aitken_step(vals[i], vals[i + 1], vals[i + 2]) for i in range(len(vals) - 2)]
    tail = acc[-3:]
    est = tail[-1]
    lo, hi = min(tail), max(tail)
    spread = hi - lo
    return MartinEntry(x=x, y=y, estimate=est, lo=lo, hi=hi, method="ladder",
                       converged=spread <= 0.05 * max(abs(est), 1e-30))


class MartinTable:
    """Lazy table of Martin-kernel entries over one cache.

    An entry reads only the Green sums of x^-1 y and y, so it is computed
    once per pair of their column keys (``cache.transition_key(x, y)`` and
    ``cache.column_key(y)``) and named after each caller's x and y.
    """

    def __init__(self, cache: PowersCache, rho_hat: float, alpha: float,
                 policy: str = "auto"):
        self.cache = cache
        self.rho_hat = rho_hat
        self.alpha = alpha
        self.policy = policy
        self._entries: dict = {}

    def get(self, x, y) -> MartinEntry:
        cache = self.cache
        key = (cache.transition_key(x, y), cache.column_key(y))
        base = self._entries.get(key)
        if base is None:
            base = self._entries[key] = martin_kernel(
                self.cache, x, y, self.rho_hat, self.alpha, policy=self.policy,
            )
        return replace(base, x=x, y=y)

    def provenance(self) -> dict:
        return {
            "kernel": "martin",
            "M": self.cache.depth,
            "rho_hat": self.rho_hat,
            "alpha": self.alpha,
            "terms": self.cache.depth,
            "policy": self.policy,
        }
