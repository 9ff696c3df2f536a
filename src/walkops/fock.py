"""Finite Fock-space windows and the sparse operator suite on them.

The window holds the basis vectors e^(m)_{x,z} with m up to a cutoff and
x, z in fixed balls, one vector per positive m-step transition (the
edge-presence rule).  Operators are built directly from their action
formulas as sparse matrices on this basis.  Outputs that would leave the
window are excluded at construction, and defect norms never look at the
top ``interior_margin`` levels, so truncation artifacts cannot be misread
as algebraic defects.

The basis is stored as integer arrays (level, row id into the x-ball,
fiber id into the z-ball) with a position table over (level, row,
fiber); basis queries and builders work on these arrays, and each group
product they need is computed once per ball element or ball pair.
``export_payload`` reads the arrays; the ``basis`` tuple list, in the same
(m, x, z) order, serves ``operator_payload`` and lookups by key.

The defect suite certifies the "relations modulo compacts" numerically:
each identity holds exactly (float tolerance) above a per-fiber edge
threshold m_0 computed from the cache, with sub-threshold defects
reported rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError
from .measures import NEG_INF
from .powers import PowersCache
from .reports import DiagnosticsReport

EXACT_TOL = 1e-12


_NO_POSITIONS = np.zeros(0, dtype=np.intp)


def _positions_by(ids: np.ndarray, count: int) -> list:
    """Ascending positions of each id in 0..count-1 within ``ids``."""
    order = np.argsort(ids, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ids, minlength=count))[:-1])


class FockWindow:
    """Finite slice of the Fock basis with interior-level bookkeeping.

    The basis lives in integer arrays: ``level``, ``row`` (position of x in
    ``x_elems``) and ``fiber`` (position of z in ``z_elems``), in (m, x, z)
    order.  ``basis`` holds the same vectors as tuples, for
    ``operator_payload`` and lookups by key.
    """

    def __init__(self, cache: PowersCache, max_level: int, x_radius: int,
                 z_radius: int, interior_margin: int):
        if cache.depth < max_level:
            raise PreconditionError(
                f"cache depth {cache.depth} below window level {max_level}"
            )
        if interior_margin < 1 or interior_margin > max_level:
            raise PreconditionError("interior margin must be in [1, max_level]")
        self.cache = cache
        self.descriptor = cache.descriptor
        self.max_level = max_level
        self.x_radius = x_radius
        self.z_radius = z_radius
        self.interior_margin = interior_margin
        self.interior_top = max_level - interior_margin
        self.x_elems = self.descriptor.ball(x_radius)
        self.z_elems = self.descriptor.ball(z_radius)
        self._row_id = {x: i for i, x in enumerate(self.x_elems)}
        self._fiber_id = {z: j for j, z in enumerate(self.z_elems)}
        self._quotients: dict = {}  # x -> [x^-1 z for z in z_elems]
        # log P^(m)_{x,z} over (level, row, fiber); -inf where absent
        self._lp = np.stack([self._log_p_table(x) for x in self.x_elems], axis=1)
        present = self._lp > NEG_INF
        self.level, self.row, self.fiber = np.nonzero(present)
        # basis position of each present (level, row, fiber), -1 elsewhere
        self._pos = np.full(present.shape, -1, dtype=np.intp)
        self._pos[present] = np.arange(len(self.level), dtype=np.intp)
        xs, zs = self.x_elems, self.z_elems
        self.basis: list = [
            (m, xs[i], zs[j])
            for m, i, j in zip(self.level.tolist(), self.row.tolist(),
                               self.fiber.tolist())
        ]
        self.index: dict = {key: k for k, key in enumerate(self.basis)}
        # ascending basis positions per row and per fiber; the basis is
        # level-major, so levels are non-decreasing along each
        self._by_row = _positions_by(self.row, len(xs))
        self._by_fiber = _positions_by(self.fiber, len(zs))
        self._thresholds: dict = {}

    def _left_quotients(self, x) -> list:
        """x^-1 z for every z in ``z_elems``: one product per pair, memoized."""
        q = self._quotients.get(x)
        if q is None:
            desc = self.descriptor
            xinv = desc.inverse(x)
            q = self._quotients[x] = [desc.multiply(xinv, z) for z in self.z_elems]
        return q

    def _column(self, g) -> np.ndarray:
        """log mu^{*m}(g) for m = 0..max_level: a view of the cache's column."""
        return self.cache.log_column(g)[: self.max_level + 1]

    def _transition_column(self, x, z) -> np.ndarray:
        """log P^(m)_{x,z} for m = 0..max_level."""
        j = self._fiber_id.get(z)
        if j is None:
            desc = self.descriptor
            return self._column(desc.multiply(desc.inverse(x), z))
        return self._column(self._left_quotients(x)[j])

    def _log_p_table(self, x) -> np.ndarray:
        """log P^(m)_{x,z} over (level, fiber) for any row element x."""
        return np.array([self._column(g) for g in self._left_quotients(x)],
                        dtype=float).T

    def _row_positions(self, x) -> np.ndarray:
        i = self._row_id.get(x)
        return _NO_POSITIONS if i is None else self._by_row[i]

    def _shift_pairs(self, src, dst, n: int):
        """(out, in) basis positions of e^(m)_{src,z} -> e^(m+n)_{dst,z}, in
        input order, for the inputs whose target is in the window."""
        cols = self._row_positions(src)
        i = self._row_id.get(dst)
        if i is None:
            return cols[:0], cols[:0]
        target = self.level[cols] + n
        inside = (target >= 0) & (target <= self.max_level)
        cols = cols[inside]
        rows = self._pos[target[inside], i, self.fiber[cols]]
        keep = rows >= 0
        return rows[keep], cols[keep]

    def _translate_basis(self, g):
        """Row and fiber positions of (g x, g z) for every basis vector
        e^(m)_{x,z}, -1 where g x or g z leaves its ball; one product per
        ball element."""
        mul = self.descriptor.multiply
        rows = np.array([self._row_id.get(mul(g, x), -1) for x in self.x_elems],
                        dtype=np.intp)
        fibers = np.array([self._fiber_id.get(mul(g, z), -1) for z in self.z_elems],
                          dtype=np.intp)
        return rows[self.row], fibers[self.fiber]

    def _kernel_weights(self, x, y, table, fibers: np.ndarray, weight) -> list:
        """weight(H(x^-1 y, x^-1 z)) for each fiber position, one table
        lookup per distinct fiber, in order of first appearance."""
        desc = self.descriptor
        xy = desc.multiply(desc.inverse(x), y)
        if not len(fibers):
            return []
        quot = self._left_quotients(x)
        memo: dict = {}
        out = []
        for j in fibers.tolist():
            v = memo.get(j)
            if v is None:
                v = memo[j] = weight(table.get(xy, quot[j]).estimate)
            out.append(v)
        return out

    @property
    def size(self) -> int:
        return len(self.basis)

    def has(self, m, x, z) -> bool:
        i, j = self._row_id.get(x), self._fiber_id.get(z)
        return (i is not None and j is not None and 0 <= m <= self.max_level
                and bool(self._pos[m, i, j] >= 0))

    def log_p(self, m, x, z) -> float:
        """log P^(m)_{x,z}; memoized up to the window top, -inf when absent."""
        if 0 <= m <= self.max_level:
            return float(self._transition_column(x, z)[m])
        return self.cache.log_transition(m, x, z)

    def row_indices(self, x) -> list:
        """Basis positions with row element x."""
        return self._row_positions(x).tolist()

    def edge_threshold(self, rows, z) -> int:
        """First level from which every (row, z) transition stays present
        up to the window top (max_level + 1 when none does)."""
        t = 0
        for r in rows:
            key = (r, z)
            if key not in self._thresholds:
                absent = np.flatnonzero(self._transition_column(r, z) == NEG_INF)
                self._thresholds[key] = int(absent[-1]) + 1 if len(absent) else 0
            t = max(t, self._thresholds[key])
        return t

    def select(self, rows=None, fiber=None, level_lo=0, level_hi=None) -> np.ndarray:
        """Basis positions filtered by row set, column fiber and level band."""
        hi = self.max_level if level_hi is None else level_hi
        if fiber is None:
            cand = np.arange(self.size, dtype=np.intp)
        else:
            j = self._fiber_id.get(fiber)
            cand = _NO_POSITIONS if j is None else self._by_fiber[j]
        levels = self.level[cand]
        cand = cand[np.searchsorted(levels, level_lo, "left"):
                    np.searchsorted(levels, hi, "right")]
        if rows is not None:
            ids = [self._row_id[r] for r in set(rows) if r in self._row_id]
            cand = cand[np.isin(self.row[cand], ids)]
        return cand.copy()  # never a view of the window's own tables

    def spec_dict(self) -> dict:
        return {
            "max_level": self.max_level,
            "x_radius": self.x_radius,
            "z_radius": self.z_radius,
            "interior_margin": self.interior_margin,
            "basis_size": self.size,
        }

    def export_payload(self) -> dict:
        fmt = self.descriptor.format
        xs = [fmt(x) for x in self.x_elems]
        zs = [fmt(z) for z in self.z_elems]
        return {
            "window": self.spec_dict(),
            "descriptor": self.descriptor.spec_string(),
            "basis": [[m, xs[i], zs[j]] for m, i, j in zip(
                self.level.tolist(), self.row.tolist(), self.fiber.tolist())],
        }


def norm_bounds(op) -> tuple:
    """(lower, upper) bounds on the operator norm of a sparse operator, in
    one pass: the largest column 2-norm (the output norm of one basis
    vector) below, the Schur bound sqrt(max row abs-sum * max column
    abs-sum) above.  They agree when no row or column holds two entries,
    as for the diagonal H-monomials and the weighted shifts.  Both are 0.0
    for an empty operator."""
    op = op.tocsr()
    n_rows, n_cols = op.shape
    magnitudes = np.abs(op.data)
    rows = np.repeat(np.arange(n_rows), np.diff(op.indptr))
    row_sum = np.bincount(rows, magnitudes, n_rows).max(initial=0.0)
    col_sum = np.bincount(op.indices, magnitudes, n_cols).max(initial=0.0)
    return float(column_norms(op).max(initial=0.0)), math.sqrt(row_sum * col_sum)


def column_norms(op) -> np.ndarray:
    """The 2-norm of every column of a sparse operator: the output norm of
    each basis vector.  Each column's squares are summed in row order,
    whatever the input format (CSR is used as given, duplicate entries
    summed first)."""
    op = op.tocsr()
    if not op.has_canonical_format:
        op = op.copy()
        op.sum_duplicates()
    squares = (op.data * op.data.conj()).real
    return np.sqrt(np.bincount(op.indices, squares, op.shape[1]))


def max_abs_on_columns(op, cols: np.ndarray) -> float:
    """sup over the selected input vectors of the output 2-norm: the
    largest norm among the columns ``cols`` of a sparse operator."""
    return float(column_norms(op)[cols].max(initial=0.0))


def operator_payload(window: FockWindow, matrix, label: str, params: dict) -> dict:
    """The nonzero entries of an operator as (out, in, value) triplets on
    formatted basis keys, with the label and parameters given."""
    coo = matrix.tocoo()
    fmt = window.descriptor.format
    triplets = []
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        mo, xo, zo = window.basis[i]
        mi, xi, zi = window.basis[j]
        triplets.append({
            "out": [mo, fmt(xo), fmt(zo)],
            "in": [mi, fmt(xi), fmt(zi)],
            "value": v if not isinstance(v, complex) else [v.real, v.imag],
        })
    return {"label": label, "params": params, "triplets": triplets}


def _build(window, rows, cols, data, dtype=float) -> sp.csr_matrix:
    """CSR operator with entries (rows[k], cols[k]) -> data[k]."""
    return sp.csr_matrix(
        (np.array(data, dtype=dtype), (rows, cols)),
        shape=(window.size, window.size),
    )


def _log_p_at(window: FockWindow, positions: np.ndarray) -> list:
    """log P of the basis vectors at ``positions``, as Python floats."""
    return window._lp[window.level[positions], window.row[positions],
                      window.fiber[positions]].tolist()


def _edge_shift(window: FockWindow, n: int, x, y):
    """log P^(n)_{x,y} and the (out, in) positions of e^(m)_{y,z} ->
    e^(m+n)_{x,z}; (x, y) must be an edge of P^n."""
    log_pn = window.cache.log_transition(n, x, y)
    if log_pn == NEG_INF:
        raise PreconditionError("(x, y) is not an edge of P^n")
    return (log_pn, *window._shift_pairs(y, x, n))


def _shift_weights(window: FockWindow, log_weight: float, rows, cols) -> list:
    """The coefficient S and T share, per (out, in) position pair:
    sqrt(exp(log_weight) P(in) / P(out)), with P(e^(m)_{x,z}) = P^(m)_{x,z}."""
    return [
        math.exp(0.5 * (log_weight + lp_in - lp_out))
        for lp_in, lp_out in zip(_log_p_at(window, cols), _log_p_at(window, rows))
    ]


# ---------------------------------------------------------------------------
# operator constructions (action formulas), as CSR matrices on the basis
# ---------------------------------------------------------------------------

def build_S(window: FockWindow, n: int, x, y) -> sp.csr_matrix:
    """Weighted shift S^(n)_{x,y}: e^(m)_{y,z} -> sqrt(P^(n)_{x,y} P^(m)_{y,z}
    / P^(n+m)_{x,z}) e^(n+m)_{x,z}.  Contractive by Chapman-Kolmogorov."""
    log_pn, rows, cols = _edge_shift(window, n, x, y)
    return _build(window, rows, cols, _shift_weights(window, log_pn, rows, cols))


def build_T(window: FockWindow, n: int, x, y, rho_hat: float) -> sp.csr_matrix:
    """T^(n)_{x,y}: coefficient sqrt(rho^n P^(m)_{y,z} / P^(n+m)_{x,z}).

    Built from the action formula (the normalized weighted shift), which is
    what all the compact-difference statements use.
    """
    _, rows, cols = _edge_shift(window, n, x, y)
    return _build(window, rows, cols,
                  _shift_weights(window, n * math.log(rho_hat), rows, cols))


def build_W(window: FockWindow, n: int, x, y, table) -> sp.csr_matrix:
    """W^(n)_{x,y}: e^(m)_{y,z} -> sqrt(H(x^-1 y, x^-1 z)) e^(m+n)_{x,z}."""
    _, rows, cols = _edge_shift(window, n, x, y)
    return _build(window, rows, cols,
                  window._kernel_weights(x, y, table, window.fiber[cols], math.sqrt))


def build_V(window: FockWindow, n: int, x, y) -> sp.csr_matrix:
    """Plain shift V^(n)_{x,y}: e^(m)_{y,z} -> e^(m+n)_{x,z}."""
    _, rows, cols = _edge_shift(window, n, x, y)
    return _build(window, rows, cols, np.ones(len(rows)))


def build_R(window: FockWindow, x, y, table, inverse: bool = False) -> sp.csr_matrix:
    """Level-preserving weight R_{x,y} (or its spectral inverse R'):
    e^(m)_{y,z} -> H(x^-1 y, x^-1 z)^{+-1/2} e^(m)_{y,z}."""
    power = -0.5 if inverse else 0.5
    cols = window._row_positions(y)
    data = window._kernel_weights(x, y, table, window.fiber[cols],
                                  lambda h: h ** power)
    return _build(window, cols, cols, data)


def build_E(window: FockWindow, x, y) -> sp.csr_matrix:
    """Row swap E_{x,y}: e^(m)_{y,z} -> e^(m)_{x,z} when (x,z) in E(P^m)."""
    rows, cols = window._shift_pairs(y, x, 0)
    return _build(window, rows, cols, np.ones(len(rows)))


def build_U_row(window: FockWindow, x) -> sp.csr_matrix:
    """U_x: e^(m)_{x,z} -> e^(m+1)_{x,z} when the target exists."""
    rows, cols = window._shift_pairs(x, x, 1)
    return _build(window, rows, cols, np.ones(len(rows)))


def build_U(window: FockWindow) -> sp.csr_matrix:
    """U = direct sum of the U_x over every row of the window."""
    target = window.level + 1
    cols = np.flatnonzero(target <= window.max_level)
    rows = window._pos[target[cols], window.row[cols], window.fiber[cols]]
    keep = rows >= 0
    return _build(window, rows[keep], cols[keep], np.ones(int(keep.sum())))


def build_Hop(window: FockWindow, z0, x, y, table) -> sp.csr_matrix:
    """H^(z0)_{x,y} = E_{z0,y} R_{x,y} E_{y,z0}: the diagonal weight
    sqrt(H(x^-1 y, x^-1 w)) on row z0, guarded by (y,w) presence."""
    cols = window._row_positions(z0)
    present_y = window._log_p_table(y) > NEG_INF
    cols = cols[present_y[window.level[cols], window.fiber[cols]]]
    data = window._kernel_weights(x, y, table, window.fiber[cols], math.sqrt)
    return _build(window, cols, cols, data)


def build_H_diag(window: FockWindow, x, y, table) -> sp.csr_matrix:
    """H_{x,y} = direct sum over z0 of H^(z0)_{x,y} (acts on every row)."""
    present_y = window._log_p_table(y) > NEG_INF
    cols = np.flatnonzero(present_y[window.level, window.fiber])
    data = window._kernel_weights(x, y, table, window.fiber[cols], math.sqrt)
    return _build(window, cols, cols, data)


def build_projection(window: FockWindow, x) -> sp.csr_matrix:
    """p_x = S^(0)_{x,x}: the diagonal projection onto row x."""
    cols = window._row_positions(x)
    return _build(window, cols, cols, np.ones(len(cols)))


def build_Vg(window: FockWindow, g) -> sp.csr_matrix:
    """Left-translation unitary V_g: e^(m)_{x,z} -> e^(m)_{gx,gz},
    restricted to pairs whose image stays in the window."""
    r2, f2 = window._translate_basis(g)
    cols = np.flatnonzero((r2 >= 0) & (f2 >= 0))
    rows = window._pos[window.level[cols], r2[cols], f2[cols]]
    keep = rows >= 0
    return _build(window, rows[keep], cols[keep], np.ones(int(keep.sum())))


def build_Uzeta(window: FockWindow, zeta) -> sp.csr_matrix:
    """Gauge unitary U_zeta: e^(m)_{x,z} -> zeta^m e^(m)_{x,z}."""
    zeta = complex(zeta)
    real = zeta.imag == 0.0
    phases = [zeta ** m for m in range(window.max_level + 1)]
    by_level = np.array([p.real for p in phases] if real else phases)
    cols = np.arange(window.size, dtype=np.intp)
    return _build(window, cols, cols, by_level[window.level],
                  dtype=float if real else complex)


def identity_operator(window: FockWindow) -> sp.csr_matrix:
    return sp.identity(window.size, format="csr")


# ---------------------------------------------------------------------------
# defect diagnostics
# ---------------------------------------------------------------------------

def _interior_defect_by_fiber(window: FockWindow, op, rows_needed,
                              level_shift: int = 0, extra_threshold: int = 0,
                              identity: str | None = None):
    """Per-fiber max defect of ``op`` on inputs at interior levels at or
    above the fiber's edge threshold; sub-threshold maxima reported too.
    Each row names ``identity`` when one is given."""
    norms = column_norms(op)
    per_fiber = []
    for w in window.z_elems:
        m0 = window.edge_threshold(rows_needed, w) + extra_threshold
        top = window.interior_top - level_shift
        sel = window.select(fiber=w, level_lo=m0, level_hi=top)
        below = window.select(fiber=w, level_hi=min(m0 - 1, top))
        row = {
            "fiber": window.descriptor.format(w),
            "m0": m0,
            "levels_checked": int(len(sel)),  # 0 flags a too-shallow window
            "defect_above_m0": float(norms[sel].max(initial=0.0)),
            "defect_below_m0": float(norms[below].max(initial=0.0)),
        }
        if identity is not None:
            row["identity"] = identity
        per_fiber.append(row)
    return per_fiber


def _fiber_report(name, window, inputs, per_fiber, tol, provenance) -> DiagnosticsReport:
    worst = max((r["defect_above_m0"] for r in per_fiber), default=0.0)
    passed = worst <= tol
    return DiagnosticsReport(
        name=name,
        inputs=inputs,
        residuals=per_fiber,
        passed=passed,
        verdict=(
            f"exact above edge thresholds (max {worst:.3e})"
            if passed else f"defect {worst:.3e} above tolerance {tol:g}"
        ),
        tolerances={"above_threshold": tol},
        provenance=provenance,
    )


def matrix_unit_defects(window: FockWindow, triples, tol: float = EXACT_TOL) -> DiagnosticsReport:
    """E_{x,y}E_{y',z} = delta_{y,y'} E_{x,z} and E_{x,y}* = E_{y,x},
    exactly above the per-fiber edge thresholds."""
    fmt = window.descriptor.format
    residuals = []
    for x, y, y2, z in triples:
        e_xy = build_E(window, x, y)
        prod = e_xy @ build_E(window, y2, z)
        defect = prod - build_E(window, x, z) if y == y2 else prod
        residuals += _interior_defect_by_fiber(
            window, defect, rows_needed=[x, y, y2, z],
            identity=f"E[{fmt(x)},{fmt(y)}]E[{fmt(y2)},{fmt(z)}]")
        residuals += _interior_defect_by_fiber(
            window, e_xy.T - build_E(window, y, x), rows_needed=[x, y],
            identity=f"E[{fmt(x)},{fmt(y)}]* - E[{fmt(y)},{fmt(x)}]")
    return _fiber_report(
        "matrix-unit-defects", window,
        {"triples": [[fmt(t) for t in tr] for tr in triples]},
        residuals, tol,
        {"window": window.spec_dict(), "M": window.cache.depth},
    )


def unitary_and_commutation_defects(window: FockWindow, pairs, table,
                                    tol: float = EXACT_TOL) -> DiagnosticsReport:
    """U*U = I = UU* (above m_0 + 1), and E- and H-operators commute with U
    and with each other, above the per-fiber thresholds."""
    fmt = window.descriptor.format
    u = build_U(window)
    ident = identity_operator(window)
    rows_all = list(window.x_elems)
    residuals = []
    for op, label in ((u.T @ u - ident, "U*U - I"), (u @ u.T - ident, "UU* - I")):
        residuals += _interior_defect_by_fiber(
            window, op, rows_all, extra_threshold=1, identity=label)
    for x, y in pairs:
        e_op = build_E(window, x, y)
        h_op = build_H_diag(window, x, y, table)
        e_label, h_label = f"E[{fmt(x)},{fmt(y)}]", f"H[{fmt(x)},{fmt(y)}]"
        for op, label in (
            (e_op @ u - u @ e_op, f"[{e_label}, U]"),
            (h_op @ u - u @ h_op, f"[{h_label}, U]"),
            (e_op @ h_op - h_op @ e_op, f"[{e_label}, {h_label}]"),
        ):
            residuals += _interior_defect_by_fiber(
                window, op, rows_needed=[x, y], level_shift=1, identity=label)
    return _fiber_report(
        "unitary-and-commutation-defects", window,
        {"pairs": [[fmt(x), fmt(y)] for x, y in pairs]},
        residuals, tol,
        {"window": window.spec_dict(), "M": window.cache.depth},
    )


def generator_identity_defect(window: FockWindow, n: int, x, y, table,
                              tol: float = EXACT_TOL) -> DiagnosticsReport:
    """W^(n)_{x,y} = U_x^n E_{x,e} H^(e)_{x,y} E_{e,y} above thresholds."""
    desc = window.descriptor
    e = desc.identity()
    w_op = build_W(window, n, x, y, table)
    u_x = build_U_row(window, x)
    rhs = build_E(window, x, e) @ build_Hop(window, e, x, y, table) @ build_E(window, e, y)
    rhs = rhs if n == 0 else _power(u_x, n) @ rhs
    per_fiber = _interior_defect_by_fiber(
        window, w_op - rhs, rows_needed=[e, x, y], level_shift=n
    )
    fmt = desc.format
    return _fiber_report(
        "generator-identity-defect", window,
        {"n": n, "x": fmt(x), "y": fmt(y)},
        per_fiber, tol,
        {"window": window.spec_dict(), "M": window.cache.depth},
    )


def _power(op: sp.csr_matrix, n: int) -> sp.csr_matrix:
    out = op
    for _ in range(n - 1):
        out = out @ op
    return out


def q0_projection_check(window: FockWindow, x, tol: float = EXACT_TOL) -> DiagnosticsReport:
    """R^(0)_x = p_x - sum_y S^(1)_{x,y} S^(1)*_{x,y} is the level-0
    projection of row x: fixes e^(0)_{x,x}, kills interior e^(m+1)_{x,z}
    (Chapman-Kolmogorov makes the coefficient sum exactly 1) and other rows."""
    desc = window.descriptor
    cache = window.cache
    x_rows = set(window.x_elems)
    r0 = build_projection(window, x)
    for s in sorted(cache.mu.support, key=desc.sort_key):
        y = desc.multiply(x, s)
        if cache.log_transition(1, x, y) == NEG_INF:
            continue
        if y not in x_rows:
            raise PreconditionError(
                f"window row ball must contain every one-step neighbour of "
                f"{desc.format(x)}; {desc.format(y)} is missing"
            )
        s1 = build_S(window, 1, x, y)
        r0 = r0 - s1 @ s1.T
    norms = column_norms(r0)
    residuals = []
    i = window.index.get((0, x, x))
    if i is not None:
        col = r0[:, i].toarray().ravel()
        col[i] -= 1.0
        residuals.append({"identity": "R0 e0_xx = e0_xx",
                          "residual": float(np.linalg.norm(col))})
    kill = float(norms[window.select(
        rows=[x], level_lo=1, level_hi=window.interior_top)].max(initial=0.0))
    residuals.append({"identity": "R0 e^(m+1)_xz = 0 (interior)", "residual": kill})
    other_rows = [r for r in window.x_elems if r != x]
    other = float(norms[window.select(
        rows=other_rows, level_hi=window.interior_top)].max(initial=0.0))
    residuals.append({"identity": "R0 on other rows = 0", "residual": other})
    worst = max(r["residual"] for r in residuals)
    return DiagnosticsReport(
        name="q0-projection-check",
        inputs={"x": desc.format(x)},
        residuals=residuals,
        passed=worst <= tol,
        verdict=f"max residual {worst:.3e}",
        tolerances={"residual": tol},
        provenance={"window": window.spec_dict(), "M": cache.depth},
    )


def subproduct_coisometry_check(cache: PowersCache, n: int, m: int,
                                x_radius: int, z_radius: int,
                                tol: float = EXACT_TOL) -> DiagnosticsReport:
    """U_{n,m} U_{n,m}* = I on the (n+m)-edge span: for every (x,z) pair in
    the balls, sum_y P^(n)_{x,y} P^(m)_{y,z} / P^(n+m)_{x,z} = 1."""
    desc = cache.descriptor
    if cache.depth < n + m:
        raise PreconditionError("cache depth below n + m")
    mid_radius = n * _support_radius(cache, desc)
    mids = [u for u, _ in cache.support_in_ball(n, mid_radius)]
    residuals = []
    worst = 0.0
    for x in desc.ball(x_radius):
        for z in desc.ball(z_radius):
            log_tot = cache.log_transition(n + m, x, z)
            if log_tot == NEG_INF:
                continue
            total = 0.0
            for u in mids:
                y = desc.multiply(x, u)
                ln = cache.log_value(n, u)
                lm = cache.log_transition(m, y, z)
                if lm > NEG_INF:
                    total += math.exp(ln + lm - log_tot)
            res = abs(total - 1.0)
            worst = max(worst, res)
            residuals.append({
                "x": desc.format(x), "z": desc.format(z), "residual": res,
            })
    return DiagnosticsReport(
        name="subproduct-coisometry",
        inputs={"n": n, "m": m, "x_radius": x_radius, "z_radius": z_radius,
                "pairs": len(residuals)},
        residuals=residuals,
        passed=worst <= tol,
        verdict=f"max |diag - 1| = {worst:.3e}",
        tolerances={"diagonal": tol},
        provenance={"M": cache.depth, "engine": cache.engine_name},
    )


def _support_radius(cache, desc) -> int:
    return max(desc.word_length(g) for g in cache.mu.support)


def covariance_check(window: FockWindow, g, zeta, n: int, x, y,
                     tol: float = EXACT_TOL) -> DiagnosticsReport:
    """V_g S^(n)_{x,y} V_g^-1 = S^(n)_{gx,gy} on the g-stable part of the
    window, and U_zeta S U_zeta^-1 = zeta^n S (gauge phase), entrywise.
    U_zeta is unitary only for |zeta| = 1 (within ``tol``); any other zeta
    is a PreconditionError."""
    if abs(abs(zeta) - 1.0) > tol:
        raise PreconditionError(
            f"the gauge U_zeta needs |zeta| = 1, got zeta = {zeta!r}"
        )
    desc = window.descriptor
    s_op = build_S(window, n, x, y)
    gx, gy = desc.multiply(g, x), desc.multiply(g, y)
    sg_op = build_S(window, n, gx, gy)
    vg = build_Vg(window, g)
    lhs = vg @ s_op
    rhs = sg_op @ vg
    # inputs e^(m)_{r,w} with m + n in the window whose image e^(m)_{gr,gw}
    # is in the window, and, on row y (the only row S^(n)_{x,y} moves),
    # whose shifted image e^(m+n)_{gx,gw} is in the window too
    r2, f2 = window._translate_basis(g)
    lifted = window.level + n
    stable = (lifted <= window.max_level) & (r2 >= 0) & (f2 >= 0)
    stable[stable] = window._pos[window.level[stable], r2[stable], f2[stable]] >= 0
    lands = np.zeros(window.size, dtype=bool)
    gx_row = window._row_id.get(gx)
    if gx_row is not None:
        lands[stable] = window._pos[lifted[stable], gx_row, f2[stable]] >= 0
    off_y = window.row != window._row_id.get(y, -1)
    region = np.flatnonzero(stable & (lands | off_y))
    if len(region) == 0:
        raise PreconditionError("empty covariance comparison region")
    cov = max_abs_on_columns(lhs - rhs, region)

    u_z = build_Uzeta(window, zeta)
    zc = complex(zeta)
    u_inv = sp.diags(1.0 / u_z.diagonal()).tocsr()
    gauge_lhs = (u_z @ s_op) @ u_inv
    phase = zc ** n
    target = (phase.real if zc.imag == 0.0 else phase) * s_op
    gauge = float(column_norms(gauge_lhs - target).max(initial=0.0))
    residuals = [
        {"identity": "V_g S V_g^-1 = S_g", "residual": cov,
         "region_size": int(len(region))},
        {"identity": "U_zeta S U_zeta^-1 = zeta^n S", "residual": gauge},
    ]
    worst = max(cov, gauge)
    return DiagnosticsReport(
        name="covariance-check",
        inputs={"g": desc.format(g), "zeta": repr(zeta), "n": n,
                "x": desc.format(x), "y": desc.format(y)},
        residuals=residuals,
        passed=worst <= tol,
        verdict=f"max residual {worst:.3e}",
        tolerances={"residual": tol},
        provenance={"window": window.spec_dict(), "M": window.cache.depth},
    )


def t_vs_w_level_defects(window: FockWindow, n: int, x, y, rho_hat: float,
                         table, fibers, levels) -> list:
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
            if lp_y == NEG_INF or lp_x == NEG_INF:
                out.append({"fiber": desc.format(z), "level": m, "defect": None})
                continue
            t_coeff = math.exp(0.5 * (n * math.log(rho_hat) + lp_y - lp_x))
            out.append({
                "fiber": desc.format(z),
                "level": m,
                "defect": abs(t_coeff - math.sqrt(h)),
            })
    return out


# ---------------------------------------------------------------------------
# quotient norms
# ---------------------------------------------------------------------------

@dataclass
class QuotientNormEstimate:
    estimate: float      # sup of the final-rung lower bounds
    upper: float         # sup of the final-rung upper bounds
    per_fiber: dict      # fiber text -> list of (m, lower, upper) rungs
    stabilized: bool
    ladder: list

    def as_dict(self):
        return asdict(self)


def quotient_norm_estimate(window: FockWindow, op: sp.spmatrix,
                           z_samples) -> QuotientNormEstimate:
    """sup over sampled fibers of lim_m ||T Q^{[m, interior]}|_{F_z}||.

    For each fiber the restricted norm is bracketed by ``norm_bounds`` on
    the rungs m = s, 2s, ... up to the interior top, s = max(1, top // 4);
    the fiber value is the final rung and the sup is over the sampled
    fibers only (a lower bound for the true sup over all of G, which is
    reported as such).
    """
    top = window.interior_top
    step = max(1, top // 4)
    ladder = list(range(step, top + 1, step))
    per_fiber = {}
    sup = upper = 0.0
    stabilized = True
    for z in z_samples:
        vals = []
        for m in ladder:
            idx = window.select(fiber=z, level_lo=m, level_hi=top)
            vals.append((m, *norm_bounds(op[idx][:, idx])))
        per_fiber[window.descriptor.format(z)] = vals
        tail = [lo for _, lo, _ in vals if lo > 0.0]
        # stabilized: the last two rung lower bounds agree within 2% relative
        if len(tail) >= 2 and abs(tail[-1] - tail[-2]) > 0.02 * max(tail[-1], 1e-300):
            stabilized = False
        if vals:
            sup = max(sup, vals[-1][1])
            upper = max(upper, vals[-1][2])
    return QuotientNormEstimate(estimate=sup, upper=upper, per_fiber=per_fiber,
                                stabilized=stabilized, ladder=ladder)
