"""Ratio-limit kernel estimation, the radical, the metric and boundary traces.

The central object is the kernel H(x,y) = lim_m mu^{*m}(x^-1 y)/mu^{*m}(y),
estimated from DP ratio tails with geometric-ladder Aitken acceleration in
the log domain (which cancels the O(1/m) local-limit correction exactly on
a doubling ladder).  The ladder is fixed by the cache: at most
``LADDER_POINTS`` (5) levels, halving down from the deepest defined level
to a floor of max(4, depth // 16).  Every entry carries an interval taken
over the accelerated window; the raw tail is retained so estimates can be
re-audited.

On top of the kernel table: the detected radical subgroup, the ratio-limit
pseudometric with rigorous tail bounds and boundary-ray traces.  The
free-group closed form is the exact kernel the ``kernel`` job compares
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CoverageError, PreconditionError, RadiusExhaustedError
from .groups import FreeGroup
from .measures import NEG_INF
from .powers import PowersCache
from .reports import DiagnosticsReport
from .sequences import LADDER_POINTS, aitken_step, halving_ladder


# ---------------------------------------------------------------------------
# ratio sequences and kernel entries
# ---------------------------------------------------------------------------

def ratio_sequence(cache: PowersCache, x, y):
    """(ms, rs) with r_m = mu^{*m}(x^-1 y) / mu^{*m}(y) where both exist.

    Ratios are exact mantissa quotients (shared level log-scale cancels).
    Requires an aperiodic walk; gaps (levels where the denominator entry is
    absent) are simply skipped.  Both entries are read from their cache
    columns.
    """
    aperiodic, period = cache.aperiodicity()
    if not aperiodic:
        raise PreconditionError(
            f"ratio sequences need an aperiodic walk (period {period} detected)"
        )
    ln = cache.transition_column(x, y)[1:]
    ld = cache.log_column(y)[1:]
    both = (ln > NEG_INF) & (ld > NEG_INF)
    ms = np.flatnonzero(both) + 1
    if not len(ms):
        raise CoverageError("y never reached within the cache depth")
    rs = np.array([math.exp(d) for d in (ln[both] - ld[both]).tolist()])
    return ms, rs


@dataclass
class KernelEntry:
    x: object
    y: object
    estimate: float
    lo: float
    hi: float
    m_window: tuple
    accelerated: bool
    # rows (m, r_m) of the ratio tail from level depth // 4 on
    raw_tail: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)),
                                 repr=False, compare=False)

    @property
    def uncertainty(self) -> float:
        return max(self.hi - self.estimate, self.estimate - self.lo)


def estimate_H(cache: PowersCache, x, y) -> KernelEntry:
    """Accelerated tail estimate of H(x,y) with a [min, max] window interval.

    The ratio tail is sampled on a doubling ladder of levels ending at the
    cache depth, floored at max(4, depth // 16); Aitken runs on the
    log-ratios of consecutive ladder triples.  The interval spans all
    accelerated values (coarse triples are less accurate, so the window is
    a conservative error band); with fewer than three ladder points the raw
    tail value is reported unaccelerated.
    """
    desc = cache.descriptor
    if x == desc.identity():
        return KernelEntry(x=x, y=y, estimate=1.0, lo=1.0, hi=1.0,
                           m_window=(0, cache.depth), accelerated=False)
    ms, rs = ratio_sequence(cache, x, y)
    depth = int(ms[-1])
    floor = max(4, depth // 16, int(ms[0]))
    # each rung moves up to the first defined level within 3 above it
    # (past parity/presence gaps); a rung with none there is dropped
    rungs = np.array(halving_ladder(depth, floor), dtype=np.intp)
    at = np.searchsorted(ms, rungs)
    found = at < len(ms)
    at, rungs = at[found], rungs[found]
    at = np.unique(at[ms[at] < rungs + 4])
    tail_from = np.searchsorted(ms, max(1, depth // 4))
    raw_tail = np.column_stack((ms[tail_from:], rs[tail_from:]))
    if len(at) < 3:
        vals = rs[tail_from:] if tail_from < len(rs) else rs
        return KernelEntry(x=x, y=y, estimate=float(rs[-1]),
                           lo=float(vals.min()), hi=float(vals.max()),
                           m_window=(int(ms[0]), depth), accelerated=False,
                           raw_tail=raw_tail)
    logs = [math.log(r) for r in rs[at].tolist()]
    acc = [math.exp(aitken_step(logs[i], logs[i + 1], logs[i + 2]))
           for i in range(len(logs) - 2)]
    return KernelEntry(
        x=x, y=y,
        estimate=float(acc[-1]),
        lo=float(min(acc)),
        hi=float(max(acc)),
        m_window=(int(ms[at[0]]), int(ms[at[-1]])),
        accelerated=True,
        raw_tail=raw_tail,
    )


@dataclass
class BoundConstants:
    x: object
    c: float
    C: float
    n_plus: int   # minimal n with mu^{*n}(x) > 0
    n_minus: int  # minimal n' with mu^{*n'}(x^-1) > 0


def bound_constants(cache: PowersCache, x, rho_hat: float) -> BoundConstants:
    """C_x = rho^n / mu^{*n}(x), c_x = mu^{*n'}(x^-1) / rho^{n'} at the
    minimal levels where x (resp. x^-1) is first reached."""
    desc = cache.descriptor
    inv = desc.inverse(x)
    col_x = cache.log_column(x)
    col_inv = cache.log_column(inv)
    reach_x = np.flatnonzero(col_x > NEG_INF)
    reach_inv = np.flatnonzero(col_inv > NEG_INF)
    if not len(reach_x) or not len(reach_inv):
        raise CoverageError(
            f"{desc.format(x)} or its inverse unreachable within depth {cache.depth}"
        )
    n_plus, n_minus = int(reach_x[0]), int(reach_inv[0])
    big = math.exp(n_plus * math.log(rho_hat) - float(col_x[n_plus]))
    small = math.exp(float(col_inv[n_minus]) - n_minus * math.log(rho_hat))
    return BoundConstants(x=x, c=small, C=big, n_plus=n_plus, n_minus=n_minus)


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------

class KernelTable:
    """Lazy (x, y) -> KernelEntry table over one powers cache.

    An entry reads only the columns of x^-1 y and y, so its numbers are
    computed once per pair of column keys (``cache.transition_key(x, y)``
    and ``cache.column_key(y)``) and shared by every (x, y) with that
    pair, the read-only raw tail included; each entry still names its own
    x and y.  Entries with x = e are exactly 1 and share one result of
    their own.  Bound constants are likewise
    computed once per key pair of x and x^-1.
    """

    def __init__(self, cache: PowersCache, rho_hat: float):
        aperiodic, period = cache.aperiodicity()
        if not aperiodic:
            raise PreconditionError(
                f"kernel estimation needs an aperiodic walk (period {period})"
            )
        self.cache = cache
        self.descriptor = cache.descriptor
        self.rho_hat = rho_hat
        self._entries: dict = {}     # (x, y) -> KernelEntry
        self._computed: dict = {}    # key pair, or None for x = e -> KernelEntry
        self._bounds: dict = {}      # key pair of (x, x^-1) -> BoundConstants

    def get(self, x, y) -> KernelEntry:
        entry = self._entries.get((x, y))
        if entry is None:
            cache = self.cache
            # the exact x = e entry is checked first: no column key is read
            # for it, and it never shares a result with a key pair
            key = None if x == self.descriptor.identity() else (
                cache.transition_key(x, y), cache.column_key(y))
            base = self._computed.get(key)
            if base is None:
                base = estimate_H(self.cache, x, y)
                base.raw_tail.flags.writeable = False
                self._computed[key] = base
            entry = self._entries[(x, y)] = replace(base, x=x, y=y)
        return entry

    def bound_constant(self, x) -> BoundConstants:
        key_of = self.cache.column_key
        key = (key_of(x), key_of(self.descriptor.inverse(x)))
        base = self._bounds.get(key)
        if base is None:
            base = self._bounds[key] = bound_constants(self.cache, x, self.rho_hat)
        return replace(base, x=x)

    def entries(self) -> dict:
        return dict(self._entries)

    def provenance(self) -> dict:
        return {
            "kernel": "ratio-limit",
            "M": self.cache.depth,
            "rho_hat": self.rho_hat,
            "acceleration": "aitken-log-halving-ladder",
            "ladder_points": LADDER_POINTS,
            "engine": self.cache.engine_name,
        }


def closed_form_H_free_isotropic(s: int, x, y) -> float:
    """Ratio-limit kernel of an isotropic lazy walk on F_s, from the
    tree local limit: a rational-in-distance prefactor times a power of
    2s-1.  x, y are reduced words; purely combinatorial.
    """
    desc = FreeGroup(s)
    dxy = len(desc.multiply(desc.inverse(x), y))
    dey = len(y)
    pref = (1.0 + (s - 1.0) / s * dxy) / (1.0 + (s - 1.0) / s * dey)
    return pref * (2.0 * s - 1.0) ** ((dey - dxy) / 2.0)


# ---------------------------------------------------------------------------
# radical detection
# ---------------------------------------------------------------------------

@dataclass
class RadicalReport:
    ball_radius: int
    probe_radius: int
    flagged: list
    deviations: dict
    tol_used: dict
    product_residuals: dict
    inverse_residuals: dict

    def flags_all(self, ball) -> bool:
        flagged = set(self.flagged)
        return all(g in flagged for g in ball)

    def flags_only_identity(self, identity) -> bool:
        return self.flagged == [identity]


def detect_radical(table, ball_radius: int, probe_radius: int,
                   tol: float | None = None) -> RadicalReport:
    """Elements y of the ball with H(x,y) = H(x,e) across the probe ball.

    With estimates, equality is a band: the default tolerance per y is 3x
    the propagated kernel uncertainty.  Product/inverse closure residuals
    of the flagged set evidence the subgroup property.
    """
    desc = table.descriptor
    e = desc.identity()
    ball = desc.ball(ball_radius)
    probe = desc.ball(probe_radius)
    deviations = {}
    tol_used = {}
    flagged = []
    for y in ball:
        dev = 0.0
        unc = 0.0
        for x in probe:
            ey = table.get(x, y)
            ee = table.get(x, e)
            dev = max(dev, abs(ey.estimate - ee.estimate))
            unc = max(unc, ey.uncertainty + ee.uncertainty)
        deviations[y] = dev
        t = tol if tol is not None else 3.0 * unc
        tol_used[y] = t
        if dev <= t:
            flagged.append(y)
    ball_set = set(ball)
    product_residuals = {}
    inverse_residuals = {}
    for y in flagged:
        inv = desc.inverse(y)
        if inv in ball_set:
            inverse_residuals[y] = max(
                abs(table.get(x, inv).estimate - table.get(x, e).estimate)
                for x in probe
            )
        for z in flagged:
            yz = desc.multiply(y, z)
            if yz in ball_set and (y, z) != (e, e):
                product_residuals[(y, z)] = max(
                    abs(table.get(x, yz).estimate - table.get(x, e).estimate)
                    for x in probe
                )
    return RadicalReport(
        ball_radius=ball_radius,
        probe_radius=probe_radius,
        flagged=flagged,
        deviations=deviations,
        tol_used=tol_used,
        product_residuals=product_residuals,
        inverse_residuals=inverse_residuals,
    )


# ---------------------------------------------------------------------------
# the ratio-limit pseudometric and boundary traces
# ---------------------------------------------------------------------------

@dataclass
class MetricValue:
    value: float
    tail_bound: float
    uncertainty: float


def ratio_metric(table, y, z, ball_radius: int) -> MetricValue:
    """Truncated d(yR, zR) = sum_x |H(x,y) - H(x,z)| / (C_x 2^phi(x)).

    phi is the 1-based ball position; the tail over phi > N is at most
    2^-N because |H(x,y) - H(x,z)| <= C_x by the bound constants.  Kernel
    interval widths propagate into ``uncertainty``.
    """
    ball = table.descriptor.ball(ball_radius)
    total = 0.0
    unc = 0.0
    for phi, x in enumerate(ball, start=1):
        c_x = table.bound_constant(x).C
        ey = table.get(x, y)
        ez = table.get(x, z)
        w = 1.0 / (c_x * 2.0 ** phi)
        total += abs(ey.estimate - ez.estimate) * w
        unc += (ey.uncertainty + ez.uncertainty) * w
    return MetricValue(value=total, tail_bound=2.0 ** (-len(ball)), uncertainty=unc)


def boundary_trace(table, sequence: list, probe_radius: int,
                   metric_ball_radius: int, tol: float) -> DiagnosticsReport:
    """Per-x traces H(x, y_k) along a sequence, with Cauchy evidence.

    Consecutive points are compared in the truncated ratio metric (tail
    bound included); the verdict is "converging" when every residual stays
    within ``tol``, and the reported limits are Aitken-extrapolated trace
    tails.
    """
    if not sequence:
        raise PreconditionError("boundary trace needs a nonempty sequence")
    desc = table.descriptor
    probe = desc.ball(probe_radius)
    fmt = desc.format
    traces = {x: [table.get(x, y).estimate for y in sequence] for x in probe}
    residuals = []
    for a, b in zip(sequence, sequence[1:]):
        mv = ratio_metric(table, a, b, metric_ball_radius)
        residuals.append({
            "from": fmt(a), "to": fmt(b),
            "metric": mv.value,
            "with_tail": mv.value + mv.tail_bound,
        })
    worst = max((r["with_tail"] for r in residuals), default=0.0)
    passed = worst <= tol
    # the trace's abscissa is |y_k|, or the position k where the word
    # length lies past the descriptor's BFS radius (lamplighter groups)
    ks = []
    for pos, y in enumerate(sequence, start=1):
        try:
            ks.append(desc.word_length(y))
        except RadiusExhaustedError:
            ks.append(pos)
    limits = {}
    for x, tr in traces.items():
        if len(tr) >= 2 and len(set(tr)) > 1 and ks[-1] > ks[-2]:
            # trace tails carry O(1/k) corrections; a Richardson step on
            # the last two points removes them
            (k1, k2), (t1, t2) = ks[-2:], tr[-2:]
            limits[fmt(x)] = (k2 * t2 - k1 * t1) / (k2 - k1)
        else:
            limits[fmt(x)] = tr[-1]
    return DiagnosticsReport(
        name="boundary-trace",
        inputs={
            "sequence": [fmt(y) for y in sequence],
            "probe_radius": probe_radius,
            "metric_ball_radius": metric_ball_radius,
        },
        residuals=residuals,
        passed=passed,
        verdict="converging" if passed else "not Cauchy",
        tolerances={"cauchy_residual": tol},
        provenance=table.provenance(),
        extra={"limits": limits,
               "traces": {fmt(x): tr for x, tr in traces.items()}},
    )
