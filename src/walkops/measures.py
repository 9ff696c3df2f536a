"""Finitely supported measures on a group, stored mantissa + log-scale.

Convolution powers of a walk decay geometrically, so measures keep their
values as mantissas (max mantissa 1) alongside one shared natural-log
scale factor.  Ratios of entries of one measure are then exact float
quotients of mantissas, which is what every ratio-limit estimate consumes.

Also here: the measure-file grammar, structural validation of a
convolution-powers cache's measure (mass, symmetry, semigroup generation
evidence, and the period the cache reads off the return times to the
identity, ``PowersCache.aperiodicity``; validation builds no cache),
and the radial calculus for isotropic measures on free groups: the
reduction to per-radius values, the radial tree step the ``radial`` engine
runs and the level mass over the tree's spheres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    ElementParseError,
    IsotropyError,
    PreconditionError,
)
from .groups import FreeGroup, GroupDescriptor

MASS_TOL = 1e-12
NEG_INF = float("-inf")


@dataclass
class ScaledMeasure:
    """Nonnegative finitely supported function: mantissas * exp(log_scale)."""

    support: dict
    log_scale: float = 0.0

    @classmethod
    def from_values(cls, values, descriptor=None, log_scale=0.0):
        """Normalize raw values to max-mantissa-1 form; zero entries dropped."""
        items = [(g, v) for g, v in values.items() if v != 0.0]
        if not items:
            raise ValueError("measure has empty support")
        if any(v < 0 for _, v in items):
            raise ValueError("measure has a negative entry")
        if descriptor is not None:
            items.sort(key=lambda gv: descriptor.sort_key(gv[0]))
        peak = max(v for _, v in items)
        return cls(
            support={g: v / peak for g, v in items},
            log_scale=log_scale + math.log(peak),
        )

    @classmethod
    def point_mass(cls, descriptor):
        return cls(support={descriptor.identity(): 1.0}, log_scale=0.0)

    def value(self, g) -> float:
        m = self.support.get(g, 0.0)
        return m * math.exp(self.log_scale) if m else 0.0

    def log_value(self, g) -> float:
        m = self.support.get(g, 0.0)
        return math.log(m) + self.log_scale if m else NEG_INF

    def total_mass(self) -> float:
        return math.fsum(self.support.values()) * math.exp(self.log_scale)

    def items_values(self):
        """(element, reconstructed value) pairs."""
        scale = math.exp(self.log_scale)
        return [(g, m * scale) for g, m in self.support.items()]


def convolve(mu: ScaledMeasure, nu: ScaledMeasure, descriptor: GroupDescriptor,
             support_cap: int | None = None) -> ScaledMeasure:
    """(mu * nu)(w) = sum_u mu(u) nu(u^-1 w), on mantissas.

    The reference keyed-collection implementation; the cache engines in
    ``powers`` provide faster equivalents and are tested against this one.
    """
    out: dict = {}
    nu_items = sorted(nu.support.items(), key=lambda gv: descriptor.sort_key(gv[0]))
    for u, a in sorted(mu.support.items(), key=lambda gv: descriptor.sort_key(gv[0])):
        for w, b in nu_items:
            g = descriptor.multiply(u, w)
            out[g] = out.get(g, 0.0) + a * b
    if support_cap is not None and len(out) > support_cap:
        raise BudgetExceededError(
            f"convolution support {len(out)} exceeds cap {support_cap}"
        )
    return ScaledMeasure.from_values(
        out, descriptor, log_scale=mu.log_scale + nu.log_scale
    )


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------

def parse_measure(text: str, descriptor: GroupDescriptor) -> ScaledMeasure:
    """Parse lines of ``<element-text> <probability>``.

    Probabilities may be exact rationals (``1/4``) or decimals; blank lines
    and ``#`` comments are skipped.  Repeated elements are an error.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise ElementParseError(f"measure line {lineno}: expected two fields")
        g = descriptor.parse(parts[0])
        try:
            p = float(Fraction(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ElementParseError(
                f"measure line {lineno}: bad probability {parts[1]!r}"
            ) from exc
        if g in values:
            raise ElementParseError(
                f"measure line {lineno}: duplicate element {parts[0]!r}"
            )
        values[g] = p
    return ScaledMeasure.from_values(values, descriptor)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class MeasureReport:
    total_mass: float
    mass_ok: bool
    nonnegative: bool
    symmetric: bool
    period: int | None
    aperiodic: bool | None
    generates: str  # "yes" | "no" | "inconclusive"
    valid: bool
    messages: list = field(default_factory=list)


def validate_measure(cache) -> MeasureReport:
    """Structural checks of the measure ``cache.mu`` on ``cache.descriptor``,
    for a convolution-powers cache of it (the one a run already built):
    mass 1 (within ``MASS_TOL``), nonnegativity, symmetry flag, period, and
    semigroup-generation evidence up to ``ball(3)``.

    The period is ``cache.aperiodicity()``, the gcd of the return times to
    the identity within the cache's depth; a message says when there is
    none, and when the cache stopped at its support cap.  No cache is
    built here.

    Generation beyond the probe horizon is reported "inconclusive", never
    proved; it is evidence in the sense of the irreducibility assumption.
    """
    mu, descriptor = cache.mu, cache.descriptor
    messages = []
    mass = mu.total_mass()
    mass_ok = abs(mass - 1.0) <= MASS_TOL
    if not mass_ok:
        messages.append(f"total mass {mass!r} differs from 1 beyond {MASS_TOL}")
    nonnegative = all(v >= 0.0 for v in mu.support.values())
    if not nonnegative:
        messages.append("negative entry in support")

    symmetric = True
    for g, v in mu.items_values():
        w = mu.value(descriptor.inverse(g))
        if not math.isclose(v, w, rel_tol=1e-12, abs_tol=0.0):
            symmetric = False
            break

    # period: gcd of the return times to the identity within the cache
    period: int | None = None
    aperiodic: bool | None = None
    if not cache.complete:
        messages.append("aperiodicity probe hit its support cap")
    try:
        aperiodic, period = cache.aperiodicity()
    except PreconditionError:
        messages.append(f"no return to identity within {cache.depth} steps")

    # semigroup generation: products of support elements must reach ball(3)
    r_check = 3
    e = descriptor.identity()
    target = set(descriptor.ball(r_check))
    supp = list(mu.support.keys())
    reached = {e}
    frontier = {e}
    generates = "inconclusive"
    for _ in range(4 * r_check + 4):
        nxt = set()
        for g in frontier:
            for s in supp:
                h = descriptor.multiply(g, s)
                if h not in reached:
                    nxt.add(h)
        if not nxt:
            generates = "yes" if target <= reached else "no"
            break
        reached |= nxt
        frontier = nxt
        if target <= reached:
            generates = "yes"
            break
    if generates == "no":
        messages.append(f"support does not generate ball({r_check}) as a semigroup")
    elif generates == "inconclusive":
        messages.append(f"generation check inconclusive within ball({r_check}) probe")

    valid = mass_ok and nonnegative and generates != "no"
    return MeasureReport(
        total_mass=mass,
        mass_ok=mass_ok,
        nonnegative=nonnegative,
        symmetric=symmetric,
        period=period,
        aperiodic=aperiodic,
        generates=generates,
        valid=valid,
        messages=messages,
    )


# ---------------------------------------------------------------------------
# homogeneous-tree combinatorics and the radial calculus
# ---------------------------------------------------------------------------

def sphere_size(q: int, r: int) -> int:
    """Number of vertices at distance r from a vertex of the q-regular tree."""
    if r < 0:
        return 0
    if r == 0:
        return 1
    return q * (q - 1) ** (r - 1)


def radial_step(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """Per-element radial convolution of radial ``f`` with radial ``g``.

    f[k] is the per-element value at tree distance k; the result has
    ``len(f) + len(g) - 1`` radii.  Uses the closed-form sphere counts,
    vectorized over the output radius.
    """
    n_f = len(f)
    out = np.zeros(n_f + len(g) - 1, dtype=f.dtype)
    for l in range(len(g)):
        gl = g[l]
        if gl == 0.0:
            continue
        if l == 0:
            out[:n_f] += gl * f
            continue
        # n = 0 target: u must sit on the sphere of radius l
        if l < n_f:
            out[0] += gl * sphere_size(q, l) * f[l]
        for o in range(-l, l + 1, 2):
            b = (o + l) // 2
            n_lo = max(1, b - o, -o)
            n_hi = min(len(out) - 1, n_f - 1 - o)
            if n_hi < n_lo:
                continue
            if b == 0:
                counts = 1.0
            elif o == l:
                counts = float((q - 1) ** b)
            else:
                ns = np.arange(n_lo, n_hi + 1)
                counts = np.where(
                    ns == b - o,
                    float((q - 1) ** b),
                    float((q - 2) * (q - 1) ** (b - 1)),
                )
            out[n_lo : n_hi + 1] += gl * counts * f[n_lo + o : n_hi + 1 + o]
    return out


@dataclass
class RadialMeasure:
    """Isotropic measure on F_s: per-element value indexed by tree distance."""

    values: np.ndarray
    log_scale: float = 0.0
    tree_degree: int = 4


def log_radial_mass(values: np.ndarray, q: int) -> float:
    """log( sum_r sphere_size(r) * values[r] ), overflow-safe: the log of
    each positive value plus its log sphere size, summed as ``fsum`` of
    the exps under the largest; each log and exp is ``math``'s.  With
    q = 0 only radius 0 may be positive (a one-entry row)."""
    values = np.asarray(values)
    r = np.flatnonzero(values > 0.0)
    if not len(r):
        return NEG_INF
    terms = np.array([math.log(v) for v in values[r].tolist()])
    if r[-1]:  # the log sphere size is 0 at radius 0
        outer = r > 0
        terms[outer] += math.log(q) + (r[outer] - 1) * math.log(q - 1)
    terms = terms.tolist()
    peak = max(terms)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


def radial_reduce(mu: ScaledMeasure, descriptor: FreeGroup,
                  rel_tol: float = 1e-12) -> RadialMeasure:
    """Collapse an isotropic measure on F_s to per-radius values.

    Raises IsotropyError unless every element of each sphere carries the
    same mass (within ``rel_tol`` relative); a sphere's value is its
    smallest element mass.
    """
    if not isinstance(descriptor, FreeGroup):
        raise PreconditionError("radial reduction requires a free-group descriptor")
    q = 2 * descriptor.rank
    by_radius: dict = {}
    for g, v in mu.support.items():
        by_radius.setdefault(len(g), []).append((g, v))
    max_r = max(by_radius)
    values = np.zeros(max_r + 1)
    for r, entries in by_radius.items():
        vals = [v for _, v in entries]
        lo, hi = min(vals), max(vals)
        if hi - lo > rel_tol * hi:
            raise IsotropyError(
                f"sphere radius {r}: per-element masses spread beyond {rel_tol}"
            )
        if len(entries) != sphere_size(q, r):
            raise IsotropyError(
                f"sphere radius {r}: {len(entries)} of {sphere_size(q, r)} "
                "elements carry mass"
            )
        # the smallest, so the value does not depend on the support's order
        values[r] = lo
    return RadialMeasure(values=values, log_scale=mu.log_scale, tree_degree=q)
