"""Fock windows, operator constructions and the defect certification suite."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

import walkops as w
import walkops.fock as fk
from walkops.errors import PreconditionError
from walkops.reports import dumps

from test_acceptance import t_vs_w_level_defects


@pytest.fixture(scope="module")
def z_window(lazy_z_cache):
    return fk.FockWindow(lazy_z_cache, max_level=24, x_radius=3, z_radius=3,
                         interior_margin=4)


@pytest.fixture(scope="module")
def f2_window(f2_cache):
    return fk.FockWindow(f2_cache, max_level=16, x_radius=2, z_radius=2,
                         interior_margin=4)


@pytest.fixture(scope="module")
def point_cache(lattice1):
    # degenerate point-mass walk: every level is delta_e, so the window
    # basis is exactly {(m, 0, 0)} -- the one-vertex situation
    mu = w.ScaledMeasure.from_values({(0,): 1.0}, lattice1)
    return w.convolution_powers(lattice1, mu, 6)


def _basis(win):
    """The window's basis vectors as (m, x, z) keys, in basis order."""
    xs, zs = win.x_elems, win.z_elems
    return [(m, xs[i], zs[j]) for m, i, j in zip(
        win.level.tolist(), win.row.tolist(), win.fiber.tolist())]


def _max_defect(a, b, cols) -> float:
    """The largest output norm of a - b over the input vectors ``cols``."""
    return float(fk.defect_norms(a, b)[cols].max(initial=0.0))


# ---------------------------------------------------------------------------
# window construction
# ---------------------------------------------------------------------------

def test_point_walk_window_basis(point_cache):
    win = fk.FockWindow(point_cache, max_level=3, x_radius=0, z_radius=0,
                        interior_margin=1)
    assert _basis(win) == [(m, (0,), (0,)) for m in range(4)]
    assert win.size == 4


def test_window_edge_rule(z_window):
    assert z_window.position(1, (0,), (1,)) >= 0      # P_{0,1} = 1/4 > 0
    assert not z_window.position(1, (0,), (2,)) >= 0  # two steps away
    assert z_window.position(2, (0,), (2,)) >= 0


def test_window_basis_matches_brute_force(lazy_z_cache, z_window):
    count = 0
    for m in range(25):
        for x in z_window.x_elems:
            for z in z_window.z_elems:
                if lazy_z_cache.log_transition(m, x, z) > -math.inf:
                    count += 1
    assert count == z_window.size


def test_window_requires_cache_depth(lazy_z_cache):
    with pytest.raises(PreconditionError):
        fk.FockWindow(lazy_z_cache, max_level=500, x_radius=1, z_radius=1,
                      interior_margin=2)


def test_edge_threshold(z_window):
    # (0, 3) first present at m = 3 and stays present
    assert z_window.edge_threshold([(0,)], (3,)) == 3
    assert z_window.edge_threshold([(0,)], (0,)) == 0
    assert z_window.edge_threshold([(0,), (2,)], (3,)) == 3


def _select_reference(win, rows=None, fiber=None, level_lo=0, level_hi=None):
    """The basis scan ``select`` replaces: one pass over the basis tuples."""
    hi = win.max_level if level_hi is None else level_hi
    rowset = None if rows is None else set(rows)
    out = []
    for i, (m, x, z) in enumerate(_basis(win)):
        if m < level_lo or m > hi:
            continue
        if rowset is not None and x not in rowset:
            continue
        if fiber is not None and z != fiber:
            continue
        out.append(i)
    return np.array(out, dtype=np.intp)


def _outside(win, radius):
    """An element one sphere beyond ``radius``."""
    return win.descriptor.ball(radius + 1)[-1]


@pytest.mark.parametrize("name", ["z_window", "f2_window"])
def test_select_matches_reference_scan(name, request):
    win = request.getfixturevalue(name)
    xs, zs = win.x_elems, win.z_elems
    far_row, far_fiber = _outside(win, win.x_radius), _outside(win, win.z_radius)
    row_sets = [None, [], [xs[0]], xs[1:3], [far_row], [xs[1], far_row], list(xs)]
    fibers = [None, zs[0], zs[-1], far_fiber]
    top = win.max_level
    bands = [(0, None), (2, 5), (5, 2), (3, 3), (0, -1), (win.interior_top, None),
             (-3, top + 5), (top, top)]
    for rows, fiber, (lo, hi) in itertools.product(row_sets, fibers, bands):
        got = win.select(rows=rows, fiber=fiber, level_lo=lo, level_hi=hi)
        want = _select_reference(win, rows, fiber, lo, hi)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want, err_msg=str((rows, fiber, lo, hi)))


@pytest.mark.parametrize("name", ["z_window", "f2_window"])
def test_window_queries_match_cache(name, request):
    """Basis order, position, has, log_p, select by row and edge_threshold agree
    with per-entry reads of the cache, rows outside the ball included."""
    win = request.getfixturevalue(name)
    cache = win.cache
    far_row, far_fiber = _outside(win, win.x_radius), _outside(win, win.z_radius)
    fibers = list(win.z_elems) + [far_fiber]
    basis = [(m, x, z) for m in range(win.max_level + 1)
             for x in win.x_elems for z in win.z_elems
             if cache.log_transition(m, x, z) > -math.inf]
    assert _basis(win) == basis
    index = {key: i for i, key in enumerate(basis)}
    for m in range(-1, win.max_level + 2):
        for x in list(win.x_elems) + [far_row]:
            for z in fibers:
                assert win.position(m, x, z) == index.get((m, x, z), -1)
                assert (win.position(m, x, z) >= 0) is ((m, x, z) in index)
                if 0 <= m <= win.max_level:
                    assert win.log_p(m, x, z) == cache.log_transition(m, x, z)
    for x in list(win.x_elems) + [far_row]:
        assert win.select(rows=[x]).tolist() == [i for i, k in enumerate(basis)
                                                 if k[1] == x]
        for z in fibers:
            want = win.max_level + 1
            for m in range(win.max_level, -1, -1):
                if cache.log_transition(m, x, z) == -math.inf:
                    break
                want = m
            assert win.edge_threshold([x], z) == want, (x, z)


# ---------------------------------------------------------------------------
# operator constructions
# ---------------------------------------------------------------------------

def test_s_norm_contractive(z_window, f2_window):
    assert fk.build_S(z_window, 1, (0,), (1,)).norm() <= 1 + 1e-12
    assert fk.build_S(f2_window, 1, (), (1,)).norm() <= 1 + 1e-12


def test_s_zero_is_projection(z_window):
    p = fk.build_projection(z_window, (1,))
    s0 = fk.build_S(z_window, 0, (1,), (1,))
    assert np.count_nonzero(p.to_dense() != s0.to_dense()) == 0


def test_s_coefficient_single_path(z_window):
    s = fk.build_S(z_window, 1, (0,), (1,))
    got = s.to_dense()[z_window.position(2, (0,), (2,)), z_window.position(1, (1,), (2,))]
    assert got == pytest.approx(1.0, abs=1e-14)


def test_s_rejects_absent_edge(z_window):
    with pytest.raises(PreconditionError):
        fk.build_S(z_window, 1, (0,), (2,))


def test_s_compresses_out_of_ball_rows(z_window):
    # x outside the row ball: the compression keeps the operator finite
    # (no representable outputs) instead of failing
    op = fk.build_S(z_window, 1, (4,), (3,))
    assert np.count_nonzero(op.target >= 0) == 0


def test_q0_requires_neighbour_rows(z_window):
    with pytest.raises(PreconditionError):
        fk.q0_projection_check(z_window, (3,))  # neighbour (4,) outside ball


def test_point_walk_T_and_W_are_unit_shifts(point_cache):
    win = fk.FockWindow(point_cache, max_level=5, x_radius=0, z_radius=0,
                        interior_margin=1)
    table = w.KernelTable(point_cache, rho_hat=1.0)
    e = (0,)
    t_op = fk.build_T(win, 1, e, e, rho_hat=1.0)
    w_op = fk.build_W(win, 1, e, e, table)
    t_dense, w_dense = t_op.to_dense(), w_op.to_dense()
    for m in range(5):
        assert t_dense[win.position(m + 1, e, e), win.position(m, e, e)] == pytest.approx(1.0)
        assert w_dense[win.position(m + 1, e, e), win.position(m, e, e)] == pytest.approx(1.0)


def test_edge_level_inputs_excluded(z_window):
    s = fk.build_S(z_window, 2, (0,), (1,))
    # inputs above max_level - n would shift out of the window
    cols = np.flatnonzero(s.target >= 0)
    for j in set(cols.tolist()):
        m = int(z_window.level[j])
        assert m <= z_window.max_level - 2


def test_product_vs_formula_agreement(z_window, lazy_z_table):
    """E, U and H built from action formulas match the V*V / E R E
    operator products on interior levels."""
    e, one = (0,), (1,)
    n0 = 2  # (0,0),(0,1),(1,1) all edges of P^2
    v_xx = fk.build_V(z_window, n0, e, e)
    v_xy = fk.build_V(z_window, n0, e, one)
    prod_e = v_xx.T @ v_xy
    form_e = fk.build_E(z_window, e, one)
    interior = z_window.select(level_hi=z_window.interior_top - n0)
    assert _max_defect(prod_e, form_e, interior) <= 1e-12

    v_next = fk.build_V(z_window, n0 + 1, e, e)
    prod_u = v_xx.T @ v_next
    form_u = fk.build_U_row(z_window, e)
    assert _max_defect(prod_u, form_u, interior) <= 1e-12

    r_op = fk.build_R(z_window, e, one, lazy_z_table)
    prod_h = fk.build_E(z_window, e, one) @ r_op @ fk.build_E(z_window, one, e)
    form_h = fk.build_Hop(z_window, e, e, one, lazy_z_table)
    assert _max_defect(prod_h, form_h, interior) <= 1e-12


def test_r_inverse_is_spectral_inverse(z_window, lazy_z_table):
    r = fk.build_R(z_window, (0,), (1,), lazy_z_table)
    r_inv = fk.build_R(z_window, (0,), (1,), lazy_z_table, inverse=True)
    prod = r @ r_inv
    rows = z_window.select(rows=[(1,)])
    ident = fk.identity_operator(z_window)
    assert _max_defect(prod, ident, rows) <= 1e-12


def _zero_operator(win):
    return fk.PartialPermutation(np.full(win.size, -1, dtype=np.intp), np.zeros(win.size))


@pytest.mark.parametrize("build", [
    lambda win: fk.build_S(win, 1, (0,), (1,)),
    lambda win: fk.build_Uzeta(win, 1j) @ fk.build_S(win, 1, (0,), (1,)),
    _zero_operator,
], ids=["real_shift", "complex_gauge_product", "zero"])
def test_column_norms_match_dense(z_window, build):
    op = build(z_window)
    np.testing.assert_array_equal(fk.defect_norms(op),
                                  np.linalg.norm(op.to_dense(), axis=0))


def test_e_diagonal_acts_as_identity_on_row(z_window):
    e_xx = fk.build_E(z_window, (1,), (1,))
    ident = fk.identity_operator(z_window)
    rows = z_window.select(rows=[(1,)], level_lo=2,
                           level_hi=z_window.interior_top)
    assert _max_defect(e_xx, ident, rows) <= 1e-12


def test_u_row_unit_shift_interior(z_window):
    u1 = fk.build_U_row(z_window, (1,)).to_dense()
    for m in range(2, z_window.interior_top):
        key_in = (m, (1,), (0,))
        key_out = (m + 1, (1,), (0,))
        assert u1[z_window.position(*key_out), z_window.position(*key_in)] == 1.0


# Per-entry references: each builder's action formula evaluated vector by
# vector over the basis keys, with one group product per entry, as a
# scipy.sparse matrix.

def _ref_operator(win, entries, dtype=float):
    rows = [win.position(*out_key) for out_key, _, _ in entries]
    cols = [win.position(*in_key) for _, in_key, _ in entries]
    data = np.array([c for _, _, c in entries], dtype=dtype)
    return sp.csr_matrix((data, (rows, cols)), shape=(win.size, win.size))


def _ref_shift(win, n, x, y, coeff):
    """e^(m)_{y,z} -> coeff(m, z) e^(m+n)_{x,z} where the target exists."""
    return [((m + n, x, z), (m, y, z), coeff(m, z)) for m, r, z in _basis(win)
            if r == y and m + n <= win.max_level and win.position(m + n, x, z) >= 0]


def _ref_diagonal(win, keep, coeff):
    return [(k, k, coeff(*k)) for k in _basis(win) if keep(*k)]


def _ref_H(win, x, y, table):
    desc = win.descriptor
    xinv = desc.inverse(x)
    xy = desc.multiply(xinv, y)
    return lambda w: table.get(xy, desc.multiply(xinv, w)).estimate


def _reference_builders(win, table, rho_hat, cases):
    """(name, built operator, reference matrix) for every builder."""
    desc, cache = win.descriptor, win.cache
    lt = cache.log_transition
    e = desc.identity()
    out = []
    for n, x, y in cases["shift"]:
        log_pn = lt(n, x, y)
        h = _ref_H(win, x, y, table)
        out += [
            (f"S{n}{x}{y}", fk.build_S(win, n, x, y), _ref_operator(win, _ref_shift(
                win, n, x, y,
                lambda m, z: math.exp(0.5 * (log_pn + lt(m, y, z) - lt(m + n, x, z)))))),
            (f"T{n}{x}{y}", fk.build_T(win, n, x, y, rho_hat), _ref_operator(win, _ref_shift(
                win, n, x, y,
                lambda m, z: math.exp(0.5 * (n * math.log(rho_hat) + lt(m, y, z)
                                             - lt(m + n, x, z)))))),
            (f"W{n}{x}{y}", fk.build_W(win, n, x, y, table), _ref_operator(win, _ref_shift(
                win, n, x, y, lambda m, z: math.sqrt(h(z))))),
            (f"V{n}{x}{y}", fk.build_V(win, n, x, y), _ref_operator(win, _ref_shift(
                win, n, x, y, lambda m, z: 1.0))),
        ]
    for x, y in cases["pair"]:
        h = _ref_H(win, x, y, table)
        for inverse, power in ((False, 0.5), (True, -0.5)):
            out.append((f"R{x}{y}{inverse}", fk.build_R(win, x, y, table, inverse=inverse),
                        _ref_operator(win, _ref_diagonal(
                            win, lambda m, r, z: r == y, lambda m, r, z: h(z) ** power))))
        out += [
            (f"E{x}{y}", fk.build_E(win, x, y),
             _ref_operator(win, _ref_shift(win, 0, x, y, lambda m, z: 1.0))),
            (f"Hop{x}{y}", fk.build_Hop(win, e, x, y, table),
             _ref_operator(win, _ref_diagonal(
                 win, lambda m, r, w: r == e and lt(m, y, w) > -math.inf,
                 lambda m, r, w: math.sqrt(h(w))))),
            (f"H{x}{y}", fk.build_H_diag(win, x, y, table),
             _ref_operator(win, _ref_diagonal(
                 win, lambda m, r, w: lt(m, y, w) > -math.inf,
                 lambda m, r, w: math.sqrt(h(w))))),
        ]
    for x in cases["row"]:
        out += [
            (f"U_row{x}", fk.build_U_row(win, x),
             _ref_operator(win, _ref_shift(win, 1, x, x, lambda m, z: 1.0))),
            (f"p{x}", fk.build_projection(win, x),
             _ref_operator(win, _ref_diagonal(win, lambda m, r, z: r == x,
                                              lambda m, r, z: 1.0))),
        ]
    out.append(("U", fk.build_U(win), _ref_operator(win, [
        ((m + 1, x, z), (m, x, z), 1.0) for m, x, z in _basis(win)
        if m + 1 <= win.max_level and win.position(m + 1, x, z) >= 0])))
    for g in cases["translate"]:
        mul = desc.multiply
        out.append((f"Vg{g}", fk.build_Vg(win, g), _ref_operator(win, [
            ((m, mul(g, x), mul(g, z)), (m, x, z), 1.0) for m, x, z in _basis(win)
            if win.position(m, mul(g, x), mul(g, z)) >= 0])))
    for zeta in cases["zeta"]:
        zc = complex(zeta)
        real = zc.imag == 0.0
        out.append((f"Uzeta{zeta}", fk.build_Uzeta(win, zeta), _ref_operator(
            win, [(k, k, (zc ** k[0]).real if real else zc ** k[0]) for k in _basis(win)],
            dtype=float if real else complex)))
    return out


_Z_CASES = {
    # (4,) and (5,) lie outside the radius-3 balls
    "shift": [(1, (0,), (1,)), (2, (0,), (1,)), (0, (1,), (1,)), (1, (4,), (3,)),
              (1, (3,), (4,)), (3, (-1,), (1,))],
    "pair": [((0,), (1,)), ((2,), (0,)), ((1,), (1,)), ((4,), (0,)), ((0,), (4,)),
             ((1,), (-1,))],
    "row": [(0,), (1,), (-3,), (4,)],
    "translate": [(0,), (1,), (-2,), (5,)],
    "zeta": [1.0, -1.0, 1j, 0.6 + 0.8j],
}

_F2_CASES = {
    "shift": [(1, (), (1,)), (2, (1,), (1, 2)), (1, (1, 2), (1, 2, 2)), (0, (2,), (2,))],
    "pair": [((), (1,)), ((1,), (2,)), ((2, -1), ()), ((1, 1, 1), (1,)),
             ((), (1, 1, 1))],
    "row": [(), (-2,), (1, 2), (1, 1, 1)],
    "translate": [(), (1,), (2, -1), (1, 1, 1)],
    "zeta": [1.0, 1j],
}


@pytest.mark.parametrize("name,table_name,cases", [
    ("z_window", "lazy_z_table", _Z_CASES),
    ("f2_window", "f2_table", _F2_CASES),
])
def test_builders_match_per_entry_reference(name, table_name, cases, request):
    """Every builder, read as a CSR matrix, has the CSR arrays of its
    action formula evaluated entry by entry: same indptr, indices and
    data, bit for bit."""
    win = request.getfixturevalue(name)
    table = request.getfixturevalue(table_name)
    rho_hat = 0.9
    for label, op, ref in _reference_builders(win, table, rho_hat, cases):
        cols = np.flatnonzero(op.target >= 0)
        got = sp.csr_matrix((op.weight[cols], (op.target[cols], cols)),
                            shape=(win.size, win.size))
        assert got.dtype == ref.dtype, label
        np.testing.assert_array_equal(got.indptr, ref.indptr, err_msg=label)
        np.testing.assert_array_equal(got.indices, ref.indices, err_msg=label)
        assert got.data.tobytes() == ref.data.tobytes(), label


@pytest.fixture(scope="module")
def f2_small_window(f2_cache):
    # dense copies of f2_window's operators (4,113 vectors) take 135 MB each
    return fk.FockWindow(f2_cache, max_level=6, x_radius=1, z_radius=2,
                         interior_margin=2)


@pytest.mark.parametrize("name,table_name", [
    ("z_window", "lazy_z_table"), ("f2_small_window", "f2_table"),
])
def test_partial_permutation_matches_dense(name, table_name, request):
    """``@`` (a three-factor product too, left to right as the defect
    checks compose it), ``.T``, scalar ``*`` and ``+`` give the dense
    matrices of their operands' dense forms, bit for bit; ``+`` raises on
    a column with two targets, and ``.T`` on a row with two entries
    (S_{e,a} + S_{e,b} sends rows a and b onto row e); ``defect_norms``
    gives the column norms of the dense difference, on shared and on
    conflicting targets and with the complex weights of U_i."""
    win = request.getfixturevalue(name)
    table = request.getfixturevalue(table_name)
    e = win.descriptor.identity()
    a, b = win.descriptor.ball(1)[1:3]
    s = fk.build_S(win, 1, e, a)
    u = fk.build_U(win)
    e_op = fk.build_E(win, e, a)
    hop = fk.build_Hop(win, e, e, a, table)
    vg = fk.build_Vg(win, a)
    gauge = fk.build_Uzeta(win, 1j)
    ident = fk.identity_operator(win)
    ops = [s, u, e_op, hop, vg, gauge, ident]
    assert gauge.weight.dtype == complex

    def dense(op):
        return op.to_dense()

    def same(got, want):  # exact; much faster than assert_array_equal here
        assert np.array_equal(got, want)

    for x, y in [(s, u), (u, s), (e_op, hop), (vg, s), (gauge, s), (s, s.T), (u.T, u)]:
        same(dense(x @ y), dense(x) @ dense(y))
    e1, e2 = fk.build_E(win, a, e), fk.build_E(win, e, a)
    same(dense(e1 @ hop @ e2), (dense(e1) @ dense(hop)) @ dense(e2))
    for op in ops:
        same(dense(op.T), dense(op).conj().T)
        assert op.norm() == np.abs(dense(op)).max(initial=0.0)
    for op, c in [(s, 2.5), (hop, -1.0), (s, 1j), (gauge, 1j), (gauge, -0.5)]:
        same(dense(c * op), c * dense(op))
        same(dense(op * c), dense(op) * c)
    # sums on agreeing targets: two diagonals, and shifts on disjoint columns
    for x, y in [(hop, fk.build_projection(win, e)), (gauge, ident),
                 (2.0 * hop, -1.0 * ident), (s, fk.build_S(win, 1, e, b))]:
        same(dense(x + y), dense(x) + dense(y))
    for x, y in [(u, ident), (s, fk.build_S(win, 1, a, a))]:
        with pytest.raises(ValueError):
            x + y
    with pytest.raises(ValueError):
        (s + fk.build_S(win, 1, e, b)).T
    for x, y in [(e_op @ u, u @ e_op), (u, ident), (gauge @ s, s @ gauge),
                 (gauge @ u, gauge), (s, 1j * s.T)]:
        same(fk.defect_norms(x, y), np.linalg.norm(dense(x) - dense(y), axis=0))
    same(fk.defect_norms(gauge @ s), np.linalg.norm(dense(gauge @ s), axis=0))


@pytest.mark.parametrize("g,n,x,y", [
    ((1,), 1, (0,), (1,)), ((-2,), 1, (1,), (0,)), ((0,), 2, (0,), (1,)),
])
def test_covariance_region_matches_reference(z_window, g, n, x, y):
    """The g-stable comparison region, rebuilt entry by entry."""
    win, desc = z_window, z_window.descriptor
    mul = desc.multiply
    region = []
    for i, (m, r, w) in enumerate(_basis(win)):
        if m + n > win.max_level:
            continue
        if win.position(m, mul(g, r), mul(g, w)) >= 0:
            if win.position(m + n, mul(g, x), mul(g, w)) >= 0 or r != y:
                region.append(i)
    rep = fk.covariance_check(win, g, 1j, n, x, y)
    lhs = fk.build_Vg(win, g) @ fk.build_S(win, n, x, y)
    rhs = fk.build_S(win, n, mul(g, x), mul(g, y)) @ fk.build_Vg(win, g)
    cov = _max_defect(lhs, rhs, np.array(region, dtype=np.intp))
    assert rep.residuals[0]["region_size"] == len(region)
    assert rep.residuals[0]["residual"] == cov


# ---------------------------------------------------------------------------
# defect certification
# ---------------------------------------------------------------------------

def test_matrix_unit_defects_lazy_z(z_window):
    e, one, two = (0,), (1,), (2,)
    rep = fk.matrix_unit_defects(
        z_window, [(e, one, one, two), (e, one, two, two), (one, e, e, one)]
    )
    assert rep.passed


def test_matrix_unit_defect_below_threshold_nonzero(z_window):
    """E_{2,0}E_{0,1} vs E_{2,1} on the fiber w = 2: at m = 1 the middle
    row 0 cannot reach w yet while row 2 can, so the product drops a term
    the direct matrix unit keeps; from m_0 = 2 the defect vanishes exactly."""
    e, one, two = (0,), (1,), (2,)
    prod = fk.build_E(z_window, two, e) @ fk.build_E(z_window, e, one)
    direct = fk.build_E(z_window, two, one)
    m0 = z_window.edge_threshold([e, one, two], (2,))
    assert m0 == 2
    below = z_window.select(fiber=(2,), level_hi=m0 - 1)
    above = z_window.select(fiber=(2,), level_lo=m0,
                            level_hi=z_window.interior_top)
    assert _max_defect(prod, direct, below) == pytest.approx(1.0)
    assert _max_defect(prod, direct, above) == 0.0


def test_unitary_and_commutation_lazy_z(z_window, lazy_z_table):
    rep = fk.unitary_and_commutation_defects(
        z_window, [((0,), (1,)), ((1,), (-1,))], lazy_z_table
    )
    assert rep.passed


def test_unitary_and_commutation_f2(f2_window, f2_table):
    rep = fk.unitary_and_commutation_defects(
        f2_window, [((), (1,)), ((1,), (2,))], f2_table
    )
    assert rep.passed


def test_generator_identity_lazy_z(z_window, lazy_z_table):
    rep = fk.generator_identity_defect(z_window, 1, (0,), (1,), lazy_z_table)
    assert rep.passed


def test_generator_identity_f2(f2_window, f2_table):
    rep = fk.generator_identity_defect(f2_window, 1, (), (1,), f2_table)
    assert rep.passed
    rep2 = fk.generator_identity_defect(f2_window, 2, (1,), (1, 2), f2_table)
    assert rep2.passed


def test_q0_projection_lazy_z(z_window):
    rep = fk.q0_projection_check(z_window, (0,))
    assert rep.passed
    fix = [r for r in rep.residuals if "e0_xx" in r["identity"]]
    assert fix and fix[0]["residual"] <= 1e-12


def test_q0_projection_point_walk(point_cache):
    win = fk.FockWindow(point_cache, max_level=4, x_radius=0, z_radius=0,
                        interior_margin=1)
    rep = fk.q0_projection_check(win, (0,))
    assert rep.passed


def test_point_walk_unitary_defects_vanish_everywhere(point_cache):
    # one-vertex situation: U*U - I and UU* - I vanish at every level >= 1
    win = fk.FockWindow(point_cache, max_level=5, x_radius=0, z_radius=0,
                        interior_margin=1)
    u = fk.build_U(win)
    ident = fk.identity_operator(win)
    levels = win.select(level_lo=1, level_hi=win.interior_top)
    assert _max_defect(u.T @ u, ident, levels) == 0.0
    assert _max_defect(u @ u.T, ident, levels) == 0.0


def test_coisometry_trivial_factors(lazy_z_cache):
    rep0 = fk.subproduct_coisometry_check(lazy_z_cache, 0, 3, 2, 2)
    assert rep0.passed
    rep1 = fk.subproduct_coisometry_check(lazy_z_cache, 3, 0, 2, 2)
    assert rep1.passed


def test_coisometry_chapman_kolmogorov(lazy_z_cache, f2_cache):
    for n, m in [(1, 1), (2, 1), (1, 2), (3, 3)]:
        assert fk.subproduct_coisometry_check(lazy_z_cache, n, m, 2, 2).passed
        assert fk.subproduct_coisometry_check(f2_cache, n, m, 2, 2).passed


def test_covariance_identity_pair(z_window):
    rep = fk.covariance_check(z_window, (0,), 1.0, 1, (0,), (1,))
    assert rep.passed


def test_covariance_shift_and_gauge(lazy_z_cache):
    win = fk.FockWindow(lazy_z_cache, max_level=8, x_radius=7, z_radius=7,
                        interior_margin=2)
    rep = fk.covariance_check(win, (5,), 1j, 1, (0,), (1,))
    assert rep.passed
    assert rep.residuals[0]["region_size"] > 0


@pytest.mark.parametrize("zeta", [0.0, 2.0, 0j, 1.5j])
def test_covariance_rejects_non_unimodular_zeta(z_window, zeta):
    # U_zeta is unitary only for |zeta| = 1; zeta = 0 is singular
    with pytest.raises(PreconditionError, match="zeta"):
        fk.covariance_check(z_window, (0,), zeta, 1, (0,), (1,))


def test_covariance_unimodular_zeta_passes(z_window):
    for zeta in (1j, -1.0, complex(0.6, 0.8)):
        assert fk.covariance_check(z_window, (0,), zeta, 1, (0,), (1,)).passed


def test_gauge_phase_entrywise(z_window):
    # conjugating by U_zeta multiplies S^(1) by exactly zeta
    s = fk.build_S(z_window, 1, (0,), (1,))
    u_z = fk.build_Uzeta(z_window, 1j)
    inv = fk.PartialPermutation(u_z.target, 1.0 / u_z.weight)
    conj = u_z @ s @ inv
    target = 1j * s
    assert np.abs(conj.to_dense() - target.to_dense()).max() <= 1e-12


# ---------------------------------------------------------------------------
# T vs W and quotient norms
# ---------------------------------------------------------------------------

def test_t_vs_w_defect_decreasing(z_window, lazy_z_spectral, lazy_z_table):
    rows = t_vs_w_level_defects(
        z_window, 1, (0,), (1,), lazy_z_spectral.rho_hat, lazy_z_table,
        fibers=[(0,), (1,)], levels=[6, 12, 18],
    )
    by_fiber = {}
    for r in rows:
        by_fiber.setdefault(r["fiber"], []).append(r["defect"])
    for fiber, defects in by_fiber.items():
        assert defects[0] > defects[1] > defects[2] > 0.0, fiber


def test_per_level_f2_t_vs_w_small(f2_cache, f2_spectral, f2_table, free2):
    """Direct per-level evaluation from the deep radial cache: at m = 1000
    the defect of T-vs-W coefficients is below 1e-2 on the 2-ball fibers."""
    win = fk.FockWindow(f2_cache, max_level=1001, x_radius=1, z_radius=2,
                        interior_margin=1)
    rows = t_vs_w_level_defects(
        win, 1, (), (1,), f2_spectral.rho_hat, f2_table,
        fibers=free2.ball(2), levels=[1000],
    )
    for r in rows:
        assert r["defect"] is not None and r["defect"] <= 1e-2


def test_quotient_norm_projection(f2_window):
    q = fk.quotient_norm_estimate(
        f2_window, fk.build_projection(f2_window, ()),
        z_samples=f2_window.z_elems,
    )
    assert q.estimate == pytest.approx(1.0, abs=1e-12)
    assert q.stabilized


def test_quotient_norm_monomials_match_spectrum_formula(f2_window, f2_table, free2):
    desc = free2
    e = ()
    monomials = [
        [((1,), (2,))],
        [((1,), (1, 2))],
        [((1,), (2,)), ((2,), (1,))],
        [((1,), (1,)), ((1,), (1,))],
        [((1,), (2,)), ((1, 2), (1,)), ((2,), (2, 1))],
    ]
    for factors in monomials:
        op = None
        for x, y in factors:
            hop = fk.build_Hop(f2_window, e, x, y, f2_table)
            op = hop if op is None else op @ hop
        q = fk.quotient_norm_estimate(f2_window, op, z_samples=f2_window.z_elems)
        expected = 0.0
        for z in f2_window.z_elems:
            prod = 1.0
            for x, y in factors:
                xinv = desc.inverse(x)
                prod *= math.sqrt(
                    f2_table.get(desc.multiply(xinv, y), desc.multiply(xinv, z)).estimate
                )
            expected = max(expected, prod)
        assert q.estimate == pytest.approx(expected, rel=1e-10), factors


def test_quotient_norm_finite_rank_invariance(f2_window, f2_table):
    hop = fk.build_Hop(f2_window, (), (1,), (2,), f2_table)
    base = fk.quotient_norm_estimate(f2_window, hop, z_samples=f2_window.z_elems)
    pert = _zero_operator(f2_window)
    i = f2_window.position(1, (1,), ())
    j = f2_window.position(0, (), ())
    pert.target[j], pert.weight[j] = i, 7.5
    bumped = hop + pert
    q = fk.quotient_norm_estimate(f2_window, bumped, z_samples=f2_window.z_elems)
    assert abs(q.estimate - base.estimate) <= 1e-6


def test_linear_combination_quotient_norm(f2_window, f2_table, free2):
    """||c1 M1 + c2 M2|| = sup_z |c1 d1(z) + c2 d2(z)| for diagonal
    monomials: checks the sup-of-spectrum formula beyond single products."""
    e = ()
    h1 = fk.build_Hop(f2_window, e, (1,), (2,), f2_table)
    h2 = fk.build_Hop(f2_window, e, (2,), (1,), f2_table)
    op = 2.0 * h1 + -1.0 * h2
    q = fk.quotient_norm_estimate(f2_window, op, z_samples=f2_window.z_elems)
    desc = free2
    expected = 0.0
    for z in f2_window.z_elems:
        d1 = math.sqrt(f2_table.get(desc.multiply(desc.inverse((1,)), (2,)),
                                    desc.multiply(desc.inverse((1,)), z)).estimate)
        d2 = math.sqrt(f2_table.get(desc.multiply(desc.inverse((2,)), (1,)),
                                    desc.multiply(desc.inverse((2,)), z)).estimate)
        expected = max(expected, abs(2.0 * d1 - d2))
    assert q.estimate == pytest.approx(expected, rel=1e-9)


def _present(doc) -> np.ndarray:
    """The presence table of a window export, as read back from its JSON."""
    return np.array([[list(r) for r in rows] for rows in doc["present"]]) == "1"


@pytest.mark.parametrize("name", ["z_window", "f2_window"])
def test_window_export_rebuilds_basis(request, name):
    """The '1's of the exported presence table, in (level, row, fiber)
    order, are the window's basis: level, row and fiber bit for bit."""
    win = request.getfixturevalue(name)
    doc = json.loads(dumps(win.export_payload()))
    assert (doc["format"], doc["version"]) == ("walkops-fock-window", 2)
    fmt = win.descriptor.format
    assert doc["x_ball"] == [fmt(x) for x in win.x_elems]
    assert doc["z_ball"] == [fmt(z) for z in win.z_elems]
    present = _present(doc)
    assert present.shape == (win.max_level + 1, len(win.x_elems), len(win.z_elems))
    for got, want in zip(np.nonzero(present), (win.level, win.row, win.fiber)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert doc["window"]["basis_size"] == win.size == int(present.sum())


def test_operator_export_payload(z_window):
    """Each (in, out, value) is one entry of the operator on positions of
    the basis rebuilt from the window export, in column order, and the
    parameters are written as element text."""
    s = fk.build_S(z_window, 1, (0,), (1,))
    doc = json.loads(dumps(fk.operator_payload(z_window, s, "S^1", {"x": (0,), "y": (1,)})))
    assert (doc["format"], doc["version"]) == ("walkops-fock-operator", 2)
    assert doc["label"] == "S^1" and doc["params"] == {"x": "(0)", "y": "(1)"}
    cols = np.flatnonzero(s.target >= 0)
    assert doc["in"] == cols.tolist() and len(cols) > 0
    win_doc = json.loads(dumps(z_window.export_payload()))
    rebuilt = [[int(m), win_doc["x_ball"][i], win_doc["z_ball"][j]]
               for m, i, j in zip(*np.nonzero(_present(win_doc)))]
    fmt = z_window.descriptor.format
    keys = [[m, fmt(x), fmt(z)] for m, x, z in _basis(z_window)]
    assert len(doc["out"]) == len(doc["value"]) == len(cols)
    for i, o, v, j in zip(doc["in"], doc["out"], doc["value"], cols):
        assert rebuilt[i] == keys[j]
        assert rebuilt[o] == keys[s.target[j]]
        assert v == s.weight[j]
