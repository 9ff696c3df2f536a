"""Fock windows, operator constructions and the defect certification suite."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import walkops as w
import walkops.fock as fk
from walkops.errors import PreconditionError


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


# ---------------------------------------------------------------------------
# window construction
# ---------------------------------------------------------------------------

def test_point_walk_window_basis(point_cache):
    win = fk.FockWindow(point_cache, max_level=3, x_radius=0, z_radius=0,
                        interior_margin=1)
    assert win.basis == [(m, (0,), (0,)) for m in range(4)]
    assert win.size == 4


def test_window_edge_rule(z_window):
    assert z_window.has(1, (0,), (1,))       # P_{0,1} = 1/4 > 0
    assert not z_window.has(1, (0,), (2,))   # two steps away
    assert z_window.has(2, (0,), (2,))


def test_window_basis_matches_brute_force(lazy_z_cache, z_window):
    count = 0
    for m in range(25):
        for x in z_window.x_elems:
            for z in z_window.z_elems:
                if w.transition(lazy_z_cache, m, x, z) > 0.0:
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
    for i, (m, x, z) in enumerate(win.basis):
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
    """Basis order, index, has, log_p, row_indices and edge_threshold agree
    with per-entry reads of the cache, rows outside the ball included."""
    win = request.getfixturevalue(name)
    cache = win.cache
    far_row, far_fiber = _outside(win, win.x_radius), _outside(win, win.z_radius)
    fibers = list(win.z_elems) + [far_fiber]
    basis = [(m, x, z) for m in range(win.max_level + 1)
             for x in win.x_elems for z in win.z_elems
             if cache.log_transition(m, x, z) > -math.inf]
    assert win.basis == basis
    assert win.index == {key: i for i, key in enumerate(basis)}
    for m in range(-1, win.max_level + 2):
        for x in list(win.x_elems) + [far_row]:
            for z in fibers:
                assert win.has(m, x, z) is ((m, x, z) in win.index)
                if 0 <= m <= win.max_level:
                    assert win.log_p(m, x, z) == cache.log_transition(m, x, z)
    for x in list(win.x_elems) + [far_row]:
        assert win.row_indices(x) == [i for i, k in enumerate(basis) if k[1] == x]
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
    assert fk.norm_bounds(fk.build_S(z_window, 1, (0,), (1,)))[1] <= 1 + 1e-12
    assert fk.norm_bounds(fk.build_S(f2_window, 1, (), (1,)))[1] <= 1 + 1e-12


def test_norm_bounds_bracket_the_operator_norm(z_window):
    """lower (largest column norm) <= ||A|| <= upper (Schur bound); the two
    agree on a weighted shift, one entry per row and column, and are 0.0
    on an empty operator."""
    s = fk.build_S(z_window, 1, (0,), (1,))
    lower, upper = fk.norm_bounds(s)
    assert lower == upper == pytest.approx(np.linalg.norm(s.toarray(), 2), rel=1e-12)
    # [[1, 1], [0, 1]] has norm (1 + sqrt 5)/2, column norms 1 and sqrt 2,
    # and row and column abs-sums up to 2: the bracket opens
    assert fk.norm_bounds(sp.csr_matrix([[1.0, 1.0], [0.0, 1.0]])) == (math.sqrt(2.0), 2.0)
    assert fk.norm_bounds(sp.csr_matrix((3, 3))) == (0.0, 0.0)
    assert fk.norm_bounds(sp.csr_matrix((0, 0))) == (0.0, 0.0)


def test_s_zero_is_projection(z_window):
    p = fk.build_projection(z_window, (1,))
    s0 = fk.build_S(z_window, 0, (1,), (1,))
    assert (p != s0).nnz == 0


def test_s_coefficient_single_path(z_window):
    s = fk.build_S(z_window, 1, (0,), (1,))
    got = s[z_window.index[(2, (0,), (2,))], z_window.index[(1, (1,), (2,))]]
    assert got == pytest.approx(1.0, abs=1e-14)


def test_s_rejects_absent_edge(z_window):
    with pytest.raises(PreconditionError):
        fk.build_S(z_window, 1, (0,), (2,))


def test_s_compresses_out_of_ball_rows(z_window):
    # x outside the row ball: the compression keeps the operator finite
    # (no representable outputs) instead of failing
    op = fk.build_S(z_window, 1, (4,), (3,))
    assert op.nnz == 0


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
    for m in range(5):
        assert t_op[win.index[(m + 1, e, e)], win.index[(m, e, e)]] == pytest.approx(1.0)
        assert w_op[win.index[(m + 1, e, e)], win.index[(m, e, e)]] == pytest.approx(1.0)


def test_edge_level_inputs_excluded(z_window):
    s = fk.build_S(z_window, 2, (0,), (1,))
    # inputs above max_level - n would shift out of the window
    cols = s.tocoo().col
    for j in set(cols.tolist()):
        m, _, _ = z_window.basis[j]
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
    assert fk.max_abs_on_columns((prod_e - form_e).tocsc(), interior) <= 1e-12

    v_next = fk.build_V(z_window, n0 + 1, e, e)
    prod_u = v_xx.T @ v_next
    form_u = fk.build_U_row(z_window, e)
    assert fk.max_abs_on_columns((prod_u - form_u).tocsc(), interior) <= 1e-12

    r_op = fk.build_R(z_window, e, one, lazy_z_table)
    prod_h = fk.build_E(z_window, e, one) @ r_op @ fk.build_E(z_window, one, e)
    form_h = fk.build_Hop(z_window, e, e, one, lazy_z_table)
    assert fk.max_abs_on_columns((prod_h - form_h).tocsc(), interior) <= 1e-12


def test_r_inverse_is_spectral_inverse(z_window, lazy_z_table):
    r = fk.build_R(z_window, (0,), (1,), lazy_z_table)
    r_inv = fk.build_R(z_window, (0,), (1,), lazy_z_table, inverse=True)
    prod = r @ r_inv
    rows = z_window.select(rows=[(1,)])
    ident = fk.identity_operator(z_window)
    diff = prod - ident
    assert fk.max_abs_on_columns(diff.tocsc(), rows) <= 1e-12


@pytest.mark.parametrize("build", [
    lambda win: fk.build_S(win, 1, (0,), (1,)),
    lambda win: fk.build_Uzeta(win, 1j) @ fk.build_S(win, 1, (0,), (1,)),
    lambda win: sp.csr_matrix((win.size, win.size)),
], ids=["real_shift", "complex_gauge_product", "zero"])
def test_column_norms_match_dense(z_window, build):
    op = build(z_window)
    np.testing.assert_array_equal(fk.column_norms(op),
                                  np.linalg.norm(op.toarray(), axis=0))


def test_max_abs_on_columns_any_format(z_window):
    """CSR and CSC input give the same floats, also on columns with many
    entries (row swaps from row 0 onto every row, with varied output
    weights), and an empty selection gives 0.0."""
    swaps = sum(fk.build_E(z_window, x, (0,)) for x in z_window.x_elems)
    op = sp.diags(np.linspace(0.5, 3.0, z_window.size), format="csr") @ swaps
    assert op.format == "csr" and np.diff(op.tocsc().indptr).max() >= 3
    np.testing.assert_array_equal(fk.column_norms(op), fk.column_norms(op.tocsc()))
    cols = z_window.select(rows=[(0,)])
    assert fk.max_abs_on_columns(op, cols) > 0.0
    assert fk.max_abs_on_columns(op, cols) == fk.max_abs_on_columns(op.tocsc(), cols)
    for m in (op, op.tocsc()):
        assert fk.max_abs_on_columns(m, np.zeros(0, dtype=np.intp)) == 0.0


def test_column_norms_sum_duplicate_entries():
    """A CSR matrix that stores one entry twice reads as their sum, as
    its dense form does."""
    dup = sp.csr_matrix((np.array([1.0, 2.0, 4.0]), np.array([0, 0, 1]),
                         np.array([0, 2, 3])), shape=(2, 2))
    assert not dup.has_canonical_format
    np.testing.assert_array_equal(fk.column_norms(dup), [3.0, 4.0])
    assert fk.norm_bounds(dup) == (4.0, 4.0)


def test_e_diagonal_acts_as_identity_on_row(z_window):
    e_xx = fk.build_E(z_window, (1,), (1,))
    ident = fk.identity_operator(z_window)
    rows = z_window.select(rows=[(1,)], level_lo=2,
                           level_hi=z_window.interior_top)
    assert fk.max_abs_on_columns((e_xx - ident).tocsc(), rows) <= 1e-12


def test_u_row_unit_shift_interior(z_window):
    u1 = fk.build_U_row(z_window, (1,))
    for m in range(2, z_window.interior_top):
        key_in = (m, (1,), (0,))
        key_out = (m + 1, (1,), (0,))
        assert u1[z_window.index[key_out], z_window.index[key_in]] == 1.0


# Per-entry references: each builder's action formula evaluated vector by
# vector over the basis tuples, with one group product per entry.

def _ref_operator(win, entries, dtype=float):
    rows = [win.index[out_key] for out_key, _, _ in entries]
    cols = [win.index[in_key] for _, in_key, _ in entries]
    data = np.array([c for _, _, c in entries], dtype=dtype)
    return sp.csr_matrix((data, (rows, cols)), shape=(win.size, win.size))


def _ref_shift(win, n, x, y, coeff):
    """e^(m)_{y,z} -> coeff(m, z) e^(m+n)_{x,z} where the target exists."""
    return [((m + n, x, z), (m, y, z), coeff(m, z)) for m, r, z in win.basis
            if r == y and m + n <= win.max_level and (m + n, x, z) in win.index]


def _ref_diagonal(win, keep, coeff):
    return [(k, k, coeff(*k)) for k in win.basis if keep(*k)]


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
        ((m + 1, x, z), (m, x, z), 1.0) for m, x, z in win.basis
        if m + 1 <= win.max_level and (m + 1, x, z) in win.index])))
    for g in cases["translate"]:
        mul = desc.multiply
        out.append((f"Vg{g}", fk.build_Vg(win, g), _ref_operator(win, [
            ((m, mul(g, x), mul(g, z)), (m, x, z), 1.0) for m, x, z in win.basis
            if (m, mul(g, x), mul(g, z)) in win.index])))
    for zeta in cases["zeta"]:
        zc = complex(zeta)
        real = zc.imag == 0.0
        out.append((f"Uzeta{zeta}", fk.build_Uzeta(win, zeta), _ref_operator(
            win, [(k, k, (zc ** k[0]).real if real else zc ** k[0]) for k in win.basis],
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
    """Every builder's CSR arrays equal those of its action formula
    evaluated entry by entry: same indptr, indices and data, bit for bit."""
    win = request.getfixturevalue(name)
    table = request.getfixturevalue(table_name)
    rho_hat = 0.9
    for label, op, ref in _reference_builders(win, table, rho_hat, cases):
        got = op
        assert got.dtype == ref.dtype, label
        np.testing.assert_array_equal(got.indptr, ref.indptr, err_msg=label)
        np.testing.assert_array_equal(got.indices, ref.indices, err_msg=label)
        assert got.data.tobytes() == ref.data.tobytes(), label


@pytest.mark.parametrize("g,n,x,y", [
    ((1,), 1, (0,), (1,)), ((-2,), 1, (1,), (0,)), ((0,), 2, (0,), (1,)),
])
def test_covariance_region_matches_reference(z_window, g, n, x, y):
    """The g-stable comparison region, rebuilt entry by entry."""
    win, desc = z_window, z_window.descriptor
    mul = desc.multiply
    region = []
    for i, (m, r, w) in enumerate(win.basis):
        if m + n > win.max_level:
            continue
        if win.has(m, mul(g, r), mul(g, w)):
            if win.has(m + n, mul(g, x), mul(g, w)) or r != y:
                region.append(i)
    rep = fk.covariance_check(win, g, 1j, n, x, y)
    lhs = fk.build_Vg(win, g) @ fk.build_S(win, n, x, y)
    rhs = fk.build_S(win, n, mul(g, x), mul(g, y)) @ fk.build_Vg(win, g)
    cov = fk.max_abs_on_columns((lhs - rhs).tocsc(), np.array(region, dtype=np.intp))
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
    defect = prod - fk.build_E(z_window, two, one)
    m0 = z_window.edge_threshold([e, one, two], (2,))
    assert m0 == 2
    below = z_window.select(fiber=(2,), level_hi=m0 - 1)
    above = z_window.select(fiber=(2,), level_lo=m0,
                            level_hi=z_window.interior_top)
    assert fk.max_abs_on_columns(defect.tocsc(), below) == pytest.approx(1.0)
    assert fk.max_abs_on_columns(defect.tocsc(), above) == 0.0


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
    assert fk.max_abs_on_columns((u.T @ u - ident).tocsc(), levels) == 0.0
    assert fk.max_abs_on_columns((u @ u.T - ident).tocsc(), levels) == 0.0


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
    inv = sp.diags(1.0 / u_z.diagonal()).tocsr()
    conj = (u_z @ s @ inv).tocoo()
    target = (1j * s).tocoo()
    assert abs(conj - target.tocsr()).max() <= 1e-12


# ---------------------------------------------------------------------------
# T vs W and quotient norms
# ---------------------------------------------------------------------------

def test_t_vs_w_defect_decreasing(z_window, lazy_z_spectral, lazy_z_table):
    rows = fk.t_vs_w_level_defects(
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
    rows = fk.t_vs_w_level_defects(
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
    pert = sp.lil_matrix((f2_window.size, f2_window.size))
    i = f2_window.index[(1, (1,), ())]
    j = f2_window.index[(0, (), ())]
    pert[i, j] = 7.5
    bumped = (hop + pert.tocsr()).tocsr()
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


def test_operator_export_payload(z_window):
    """Each triplet is one COO entry of the matrix on formatted basis keys,
    and the parameters are written as given."""
    s = fk.build_S(z_window, 1, (0,), (1,))
    params = {"n": 1, "x": (0,), "y": (1,)}
    doc = fk.operator_payload(z_window, s, "S^1", params)
    assert doc["params"] == params
    coo = s.tocoo()
    fmt = z_window.descriptor.format
    assert len(doc["triplets"]) == coo.nnz > 0
    for t, i, j, v in zip(doc["triplets"], coo.row, coo.col, coo.data):
        (mo, xo, zo), (mi, xi, zi) = z_window.basis[i], z_window.basis[j]
        assert t["out"] == [mo, fmt(xo), fmt(zo)]
        assert t["in"] == [mi, fmt(xi), fmt(zi)]
        assert t["value"] == v
    win_doc = z_window.export_payload()
    assert win_doc["window"]["basis_size"] == z_window.size
