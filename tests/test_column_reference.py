"""Column-based level scans against the per-level scans they replaced.

The reference functions below read the cache one ``log_value`` call per
level, as ``log_ratio_sequence``, ``estimate_H``,
``bound_constants``, ``spectral._return_ratio_tail`` and ``green`` did
before they read ``PowersCache.log_column``.  The column code must return
equal results, field by field and bit for bit.  A Green sum over fewer
levels is checked on a shallower cache of the same walk, whose columns
are prefixes of the deeper cache's.
"""

import math

import numpy as np
import pytest

import walkops as w
from walkops.errors import CoverageError, PreconditionError
from walkops.measures import NEG_INF
from walkops.sequences import aitken_step, halving_ladder
from walkops.spectral import GreenValue, _return_ratio_tail

# -- the per-level reference scans ---------------------------------------------


def _ref_is_aperiodic(cache):
    e = cache.descriptor.identity()
    period = 0
    for m in range(1, cache.depth + 1):
        if cache.log_value(m, e) > NEG_INF:
            period = math.gcd(period, m)
            if period == 1:
                break
    return period == 1, period


def _ref_log_ratio_sequence(cache, x, y):
    aperiodic, period = _ref_is_aperiodic(cache)
    if not aperiodic:
        raise PreconditionError(f"period {period}")
    desc = cache.descriptor
    num = desc.multiply(desc.inverse(x), y)
    ms, ls = [], []
    for m in range(1, cache.depth + 1):
        ln = cache.log_value(m, num)
        ld = cache.log_value(m, y)
        if ln > NEG_INF and ld > NEG_INF:
            ms.append(m)
            ls.append(ln - ld)
    if not ms:
        raise CoverageError("y never reached within the cache depth")
    return np.array(ms), np.array(ls)


def _ref_estimate_H(cache, x, y):
    """(estimate, lo, hi, m_window, accelerated)."""
    desc = cache.descriptor
    if x == desc.identity():
        return 1.0, 1.0, 1.0, (0, cache.depth), False
    ms, ls = _ref_log_ratio_sequence(cache, x, y)
    rs = np.array([math.exp(lr) for lr in ls.tolist()])
    defined = dict(zip(ms.tolist(), rs.tolist()))
    depth = int(ms[-1])
    floor = max(4, depth // 16, int(ms[0]))
    ladder = []
    for h in halving_ladder(depth, floor):
        for probe in range(h, min(h + 4, depth + 1)):
            if probe in defined:
                if not ladder or ladder[-1][0] != probe:
                    ladder.append((probe, defined[probe]))
                break
    tail_from = np.searchsorted(ms, max(1, depth // 4))
    if len(ladder) < 3:
        vals = rs[tail_from:].tolist() or rs.tolist()
        return (float(rs[-1]), float(min(vals)), float(max(vals)),
                (int(ms[0]), depth), False)
    logs = [math.log(r) for _, r in ladder]
    acc = [math.exp(aitken_step(logs[i], logs[i + 1], logs[i + 2]))
           for i in range(len(logs) - 2)]
    return (float(acc[-1]), float(min(acc)), float(max(acc)),
            (ladder[0][0], ladder[-1][0]), True)


def _ref_bound_constants(cache, x, rho_hat):
    desc = cache.descriptor
    inv = desc.inverse(x)
    n_plus = n_minus = None
    for m in range(cache.depth + 1):
        if n_plus is None and cache.log_value(m, x) > NEG_INF:
            n_plus = m
        if n_minus is None and cache.log_value(m, inv) > NEG_INF:
            n_minus = m
        if n_plus is not None and n_minus is not None:
            break
    if n_plus is None or n_minus is None:
        raise CoverageError("unreachable")
    big = math.exp(n_plus * math.log(rho_hat) - cache.log_value(n_plus, x))
    small = math.exp(cache.log_value(n_minus, inv) - n_minus * math.log(rho_hat))
    return small, big, n_plus, n_minus


def _ref_return_ratio_tail(cache, period):
    e = cache.descriptor.identity()
    logs = {}
    for m in range(cache.depth + 1):
        lv = cache.log_value(m, e)
        if lv > NEG_INF:
            logs[m] = lv
    ms, rs = [], []
    for m in sorted(logs):
        if m + period in logs:
            ms.append(m)
            rs.append(math.exp(logs[m + period] - logs[m]))
    return np.array(ms), np.array(rs)


def _ref_green(cache, x, y, z, rho_hat, alpha):
    top = cache.depth
    g = cache.descriptor.multiply(cache.descriptor.inverse(x), y)
    log_z = math.log(z) if z > 0 else NEG_INF
    total = 0.0
    tail_terms = []
    for n in range(top + 1):
        lv = cache.log_value(n, g)
        if lv > NEG_INF:
            if n == 0:
                t = math.exp(lv)
            elif z == 0.0:
                t = 0.0
            else:
                t = math.exp(lv + n * log_z)
            total += t
            if n > top - 6 and t > 0.0:
                tail_terms.append(t)
    if z == 0.0:
        return GreenValue(value=total, truncation_bound=0.0, z=z)
    if total == 0.0:
        return GreenValue(value=0.0, truncation_bound=math.inf, z=z, reliable=False)
    t_ref = max(tail_terms) if tail_terms else 0.0
    if t_ref == 0.0:
        return GreenValue(value=total, truncation_bound=0.0, z=z)
    wz = z * rho_hat
    if wz < 1.0 - 1e-12:
        return GreenValue(value=total, truncation_bound=t_ref * wz / (1.0 - wz), z=z)
    if wz <= 1.0 + 1e-9 and alpha > 1.0:
        return GreenValue(value=total, truncation_bound=t_ref * top / (alpha - 1.0), z=z)
    return GreenValue(value=total, truncation_bound=math.inf, z=z, reliable=False)


# -- the walks ---------------------------------------------------------------------

GAPPED_Z = "(3) 1/3\n(-4) 1/3\n(-1) 1/3"  # (1) is absent at m = 6, present at 5 and 7


def _same_array(a, b):
    """Equal shape, dtype and bytes.  An empty level array is the one
    exception to the dtype: the per-level scans built it as ``np.array([])``
    (float64), the column scans as an integer index array."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape == b.shape == (0,):
        return True
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_kernel(cache, pairs):
    """log_ratio_sequence and estimate_H against the references on ``pairs``;
    returns the number of accelerated entries."""
    accelerated = 0
    for x, y in pairs:
        try:
            ref_seq = _ref_log_ratio_sequence(cache, x, y)
        except CoverageError:
            with pytest.raises(CoverageError):
                w.log_ratio_sequence(cache, x, y)
            with pytest.raises(CoverageError):
                w.estimate_H(cache, x, y)
            continue
        ms, ls = w.log_ratio_sequence(cache, x, y)
        assert _same_array(ms, ref_seq[0]) and _same_array(ls, ref_seq[1]), (x, y)
        est, lo, hi, window, acc = _ref_estimate_H(cache, x, y)
        entry = w.estimate_H(cache, x, y)
        assert (entry.x, entry.y) == (x, y)
        assert (entry.estimate, entry.lo, entry.hi) == (est, lo, hi), (x, y)
        assert entry.m_window == window and all(type(m) is int for m in entry.m_window)
        assert entry.accelerated is acc
        accelerated += acc
    return accelerated


def _check_scans(cache, xs, rho_hat, alpha, zs, shallow_depths):
    """bound_constants, _return_ratio_tail and green against the references;
    green also on caches of the walk at each of ``shallow_depths``, whose
    transition columns are prefixes of ``cache``'s."""
    for x in xs:
        bc = w.bound_constants(cache, x, rho_hat)
        assert (bc.c, bc.C, bc.n_plus, bc.n_minus) == _ref_bound_constants(cache, x, rho_hat)
    period = _ref_is_aperiodic(cache)[1]
    assert cache.aperiodicity() == (period == 1, period)
    for p in sorted({period, 1, 2}):
        ms, rs = _return_ratio_tail(cache, p)
        ref_ms, ref_rs = _ref_return_ratio_tail(cache, p)
        assert _same_array(ms, ref_ms) and _same_array(rs, ref_rs)
    e = cache.descriptor.identity()
    shallow = [w.convolution_powers(cache.descriptor, cache.mu, depth,
                                    engine=cache.engine_name)
               for depth in shallow_depths]
    for x in xs:
        for y in (e, x):
            deep = cache.transition_column(x, y)
            for c in [cache, *shallow]:
                assert c.transition_column(x, y).tobytes() == deep[: c.depth + 1].tobytes()
                for z in zs:
                    assert (w.green(c, x, y, z, rho_hat, alpha)
                            == _ref_green(c, x, y, z, rho_hat, alpha)), (x, y, z, c.depth)


def test_f2_radial_matches_per_level_scan(f2_cache, f2_spectral, free2):
    ball = free2.ball(2)
    ys = ball[::3]
    pairs = [(x, y) for x in ball for y in ys]
    assert _check_kernel(f2_cache, pairs) == len(pairs) - len(ys)  # all but x = e
    rho = f2_spectral.rho_hat
    _check_scans(f2_cache, ball[:6], rho, 1.5, [0.0, 0.5, 1.0 / rho], [40, 1, 0])


def test_f2z_radial_lattice_matches_per_level_scan(cartesian_cache, product_f2z):
    assert cartesian_cache.depth == 500
    f2 = product_f2z.left
    elems = [(word, (v,)) for word in f2.ball(1) for v in (-1, 0, 2)]
    pairs = [(x, y) for x in elems for y in elems[::2]]
    assert _check_kernel(cartesian_cache, pairs) > 0
    rho = w.spectral_radius(cartesian_cache).rho_hat
    _check_scans(cartesian_cache, elems[:4], rho, 1.5, [0.3, 1.0 / rho], [100])


def test_lazy_z_dense_matches_per_level_scan(lazy_z_cache, lattice1):
    pts = [(v,) for v in range(-4, 5)]
    pairs = [(x, y) for x in pts for y in pts] + [((1,), (500,))]  # unreached y
    assert _check_kernel(lazy_z_cache, pairs) > 0
    rho = w.spectral_radius(lazy_z_cache).rho_hat
    _check_scans(lazy_z_cache, pts, rho, 0.5, [0.0, 0.7, 1.0 / rho], [64, 3])


def test_generic_gapped_walk_matches_per_level_scan(lattice1):
    """A generic-engine walk whose entries come and go: (1,) is present at
    m = 3, 4, 5 and 7 but absent at m = 6, and the ratio sequence for
    x = (-8,), y = (-2,) jumps from m = 2 to m = 6, so at depth 40 (ladder
    40, 20, 10, 5 over the floor max(4, 40 // 16)) its first rung (5)
    moves up to 6."""
    mu = w.parse_measure(GAPPED_Z, lattice1)
    cache = w.convolution_powers(lattice1, mu, 48, engine="generic")
    assert [m for m in range(1, 9) if cache.log_value(m, (1,)) > NEG_INF] == [3, 4, 5, 7, 8]
    ms, _ = w.log_ratio_sequence(cache, (-8,), (-2,))
    assert ms[:3].tolist() == [2, 6, 7]
    pts = [(v,) for v in range(-8, 9)]
    pairs = [(x, y) for x in pts for y in pts]
    assert _check_kernel(cache, pairs) > 0
    at40 = w.convolution_powers(lattice1, mu, 40, engine="generic")
    assert _check_kernel(at40, pairs) > 0
    entry = w.estimate_H(at40, (-8,), (-2,))
    assert entry.accelerated and entry.m_window == (6, 40)
    rho = w.spectral_radius(cache).rho_hat
    _check_scans(cache, pts, rho, 0.5, [0.0, 0.9, 1.0 / rho], [30, 4])


def test_shallow_cache_unaccelerated_matches_per_level_scan(lattice1, lazy_z):
    """Depth 8 leaves two ladder points, so every entry takes the
    unaccelerated branch."""
    cache = w.convolution_powers(lattice1, lazy_z, 8)
    pts = [(v,) for v in range(-3, 4)]
    pairs = [(x, y) for x in pts for y in pts]
    assert _check_kernel(cache, pairs) == 0
    _check_scans(cache, pts, 1.0, 0.5, [0.0, 0.5, 1.0], [2])


def test_periodic_walk_rejected_like_per_level_scan(lattice1):
    srw = w.parse_measure("(1) 1/2\n(-1) 1/2", lattice1)
    cache = w.convolution_powers(lattice1, srw, 32)
    with pytest.raises(PreconditionError):
        _ref_log_ratio_sequence(cache, (1,), (0,))
    with pytest.raises(PreconditionError):
        w.log_ratio_sequence(cache, (1,), (0,))
    _check_scans(cache, [(v,) for v in range(-2, 3)], 1.0, 0.5, [0.0, 0.5], [])
