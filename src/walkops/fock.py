"""Finite Fock-space windows and the operator suite on them.

The window holds the basis vectors e^(m)_{x,z} with m up to a cutoff and
x, z in fixed balls, one vector per positive m-step transition (the
edge-presence rule).  Operators are built directly from their action
formulas on this basis.  Every one of them (the weighted shifts S, T, W,
V, the matrix units, the H-monomials, the unitaries) sends each basis
vector to at most one basis vector, so each is a ``PartialPermutation``:
a target and a weight per column.  Products, adjoints and norms are then
exact array operations.  Outputs that would leave the window are excluded
at construction, and defect norms never look at the top
``interior_margin`` levels, so truncation artifacts cannot be misread as
algebraic defects.

The basis is stored as integer arrays (level, row id into the x-ball,
fiber id into the z-ball) with a position table over (level, row,
fiber); basis queries and builders work on these arrays, and each group
product they need is computed once per ball element or ball pair.  The
exports keep this form: a window is its ball texts and its presence table
(the basis is its ``np.nonzero``), an operator its entries on positions.

The defect suite certifies the "relations modulo compacts" numerically:
each identity holds exactly (float tolerance) above a per-fiber edge
threshold m_0 computed from the cache, with sub-threshold defects
reported rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

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
    order; ``position(m, x, z)`` finds a vector by key.
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
        self._tables: dict = {}     # x -> log P^(m)_{x,z} over (level, fiber)
        # log P^(m)_{x,z} over (level, row, fiber); -inf where absent
        log_p = np.stack([self._log_p_table(x) for x in self.x_elems], axis=1)
        present = log_p > NEG_INF
        self.level, self.row, self.fiber = np.nonzero(present)
        self._basis_log_p = log_p[present]  # P(e^(m)_{x,z}) = P^(m)_{x,z}, in basis order
        # basis position of each present (level, row, fiber), -1 elsewhere
        self._pos = np.full(present.shape, -1, dtype=np.intp)
        self._pos[present] = np.arange(len(self.level), dtype=np.intp)
        # ascending basis positions per row and per fiber; the basis is
        # level-major, so levels are non-decreasing along each
        self._by_row = _positions_by(self.row, len(self.x_elems))
        self._by_fiber = _positions_by(self.fiber, len(self.z_elems))
        self._thresholds: dict = {}

    def _left_quotients(self, x) -> list:
        """x^-1 z for every z in ``z_elems``: one product per pair, memoized.
        ``inverse`` checks x once, and the fibers are ball elements, so
        each product is the unchecked group law."""
        q = self._quotients.get(x)
        if q is None:
            desc = self.descriptor
            xinv = desc.inverse(x)
            q = self._quotients[x] = [desc._mul(xinv, z) for z in self.z_elems]
        return q

    def _log_p_table(self, x) -> np.ndarray:
        """log P^(m)_{x,z} over (level, fiber) for any row element x, read
        from the cache's transition columns once per x."""
        table = self._tables.get(x)
        if table is None:
            column, top = self.cache.transition_column, self.max_level + 1
            table = self._tables[x] = np.array(
                [column(x, z)[:top] for z in self.z_elems], dtype=float).T
        return table

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

    def _kernel_weights(self, x, y, table, fibers: np.ndarray, weight) -> np.ndarray:
        """weight(H(x^-1 y, x^-1 z)) for each fiber position, one table
        lookup per distinct fiber."""
        desc = self.descriptor
        xy = desc.multiply(desc.inverse(x), y)
        quot = self._left_quotients(x)
        distinct, inverse = np.unique(fibers, return_inverse=True)
        return np.array([weight(table.get(xy, quot[j]).estimate)
                         for j in distinct.tolist()], dtype=float)[inverse]

    @property
    def size(self) -> int:
        return len(self.level)

    def position(self, m, x, z) -> int:
        """Basis position of e^(m)_{x,z}; -1 when the window lacks it."""
        i, j = self._row_id.get(x), self._fiber_id.get(z)
        if i is None or j is None or not 0 <= m <= self.max_level:
            return -1
        return int(self._pos[m, i, j])

    def edge_threshold(self, rows, z) -> int:
        """First level from which every (row, z) transition stays present
        up to the window top (max_level + 1 when none does)."""
        t = 0
        for r in rows:
            key = (r, z)
            if key not in self._thresholds:
                j = self._fiber_id.get(z)
                col = (self.cache.transition_column(r, z)[: self.max_level + 1]
                       if j is None else self._log_p_table(r)[:, j])
                absent = np.flatnonzero(col == NEG_INF)
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
        """Ball texts and presence table: ``present[m][i][j]`` is '1' where
        e^(m)_{x_i,z_j} is a basis vector, and the basis is the '1's in order."""
        fmt = self.descriptor.format
        digits = (self._pos >= 0).astype(np.uint8) + ord("0")
        return {
            "format": "walkops-fock-window",
            "version": 2,
            "window": self.spec_dict(),
            "descriptor": self.descriptor.spec_string(),
            "x_ball": [fmt(x) for x in self.x_elems],
            "z_ball": [fmt(z) for z in self.z_elems],
            "present": [[r.tobytes().decode("ascii") for r in rows] for rows in digits],
        }


@dataclass(eq=False)
class PartialPermutation:
    """An operator on the window basis that sends each basis vector to at
    most one basis vector: column c goes to weight[c] e_target[c], and to 0
    where target[c] = -1 (weight[c] is 0 there).  ``@``, ``.T``, scalar
    ``*`` and ``+`` keep this form, and the norm is exact."""

    target: np.ndarray  # intp, -1 for an empty column
    weight: np.ndarray  # float or complex, 0 for an empty column

    def __matmul__(self, other: PartialPermutation) -> PartialPermutation:
        """One gather: column c goes through ``other``, then ``self``."""
        inner = other.target  # -1 reads the appended empty column
        return PartialPermutation(np.append(self.target, -1)[inner],
                                  np.append(self.weight, 0)[inner] * other.weight)

    @property
    def T(self) -> PartialPermutation:
        """The adjoint: the inverse map with conjugated weights."""
        cols = np.flatnonzero(self.target >= 0)
        adjoint = _build(len(self.target), cols, self.target[cols], self.weight[cols].conj())
        if np.count_nonzero(adjoint.target >= 0) < len(cols):
            raise ValueError("two columns share a row: the adjoint has two "
                             "entries in one column")
        return adjoint

    def __mul__(self, scalar) -> PartialPermutation:
        return PartialPermutation(self.target, self.weight * scalar)

    __rmul__ = __mul__

    def __add__(self, other: PartialPermutation) -> PartialPermutation:
        """The sum, when no column has two different targets; ValueError
        otherwise (take ``defect_norms`` of a difference instead)."""
        a, b = self.target, other.target
        if np.any((a != b) & (a >= 0) & (b >= 0)):
            raise ValueError("the sum has two entries in one column")
        return PartialPermutation(np.maximum(a, b), self.weight + other.weight)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((len(self.target),) * 2, dtype=self.weight.dtype)
        cols = np.flatnonzero(self.target >= 0)
        out[self.target[cols], cols] = self.weight[cols]
        return out

    def norm(self) -> float:
        """The operator norm, exactly: the largest |weight|, 0.0 if empty."""
        return float(np.abs(self.weight).max(initial=0.0))


def defect_norms(a: PartialPermutation, b: PartialPermutation | None = None) -> np.ndarray:
    """The 2-norm of every column of a - b (of a alone when b is None), the
    output norm of each basis vector, exactly: |w_a - w_b| where the two
    share a target, sqrt(|w_a|^2 + |w_b|^2) where they differ, the one
    weight present otherwise.  Squares are (w * conj w).real, summed as a
    column of the difference matrix sums them."""
    def squares(w):
        return (w * w.conj()).real

    if b is None:
        return np.sqrt(squares(a.weight))
    return np.sqrt(np.where(a.target == b.target, squares(a.weight - b.weight),
                            squares(a.weight) + squares(b.weight)))


def operator_payload(window: FockWindow, op: PartialPermutation, label: str,
                     params: dict) -> dict:
    """A real operator's entries on basis positions, in column order: ``in[k]``
    goes to ``value[k]`` times ``out[k]``; ``params`` (name -> element) as text."""
    cols = np.flatnonzero(op.target >= 0)
    fmt = window.descriptor.format
    return {
        "format": "walkops-fock-operator",
        "version": 2,
        "label": label,
        "params": {name: fmt(g) for name, g in params.items()},
        "in": cols.tolist(),
        "out": op.target[cols].tolist(),
        "value": op.weight[cols].tolist(),
    }


def _build(size: int, rows, cols, data) -> PartialPermutation:
    """The operator on ``size`` basis vectors with entries (rows[k], cols[k])
    -> data[k] (or the scalar data), one per column."""
    data = np.asarray(data)
    target = np.full(size, -1, dtype=np.intp)
    weight = np.zeros(size, dtype=data.dtype)
    target[cols] = rows
    weight[cols] = data
    return PartialPermutation(target, weight)


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
    lp = window._basis_log_p
    return [math.exp(0.5 * (log_weight + lp_in - lp_out))
            for lp_in, lp_out in zip(lp[cols].tolist(), lp[rows].tolist())]


# ---------------------------------------------------------------------------
# operator constructions (action formulas) on the basis
# ---------------------------------------------------------------------------

def build_S(window: FockWindow, n: int, x, y) -> PartialPermutation:
    """Weighted shift S^(n)_{x,y}: e^(m)_{y,z} -> sqrt(P^(n)_{x,y} P^(m)_{y,z}
    / P^(n+m)_{x,z}) e^(n+m)_{x,z}.  Contractive by Chapman-Kolmogorov."""
    log_pn, rows, cols = _edge_shift(window, n, x, y)
    return _build(window.size, rows, cols, _shift_weights(window, log_pn, rows, cols))


def build_T(window: FockWindow, n: int, x, y, rho_hat: float) -> PartialPermutation:
    """T^(n)_{x,y}: coefficient sqrt(rho^n P^(m)_{y,z} / P^(n+m)_{x,z}).

    Built from the action formula (the normalized weighted shift), which is
    what all the compact-difference statements use.
    """
    _, rows, cols = _edge_shift(window, n, x, y)
    return _build(window.size, rows, cols,
                  _shift_weights(window, n * math.log(rho_hat), rows, cols))


def build_W(window: FockWindow, n: int, x, y, table) -> PartialPermutation:
    """W^(n)_{x,y}: e^(m)_{y,z} -> sqrt(H(x^-1 y, x^-1 z)) e^(m+n)_{x,z}."""
    _, rows, cols = _edge_shift(window, n, x, y)
    return _build(window.size, rows, cols,
                  window._kernel_weights(x, y, table, window.fiber[cols], math.sqrt))


def build_V(window: FockWindow, n: int, x, y) -> PartialPermutation:
    """Plain shift V^(n)_{x,y}: e^(m)_{y,z} -> e^(m+n)_{x,z}."""
    _, rows, cols = _edge_shift(window, n, x, y)
    return _build(window.size, rows, cols, 1.0)


def build_R(window: FockWindow, x, y, table, inverse: bool = False) -> PartialPermutation:
    """Level-preserving weight R_{x,y} (or its spectral inverse R'):
    e^(m)_{y,z} -> H(x^-1 y, x^-1 z)^{+-1/2} e^(m)_{y,z}."""
    power = -0.5 if inverse else 0.5
    cols = window._row_positions(y)
    data = window._kernel_weights(x, y, table, window.fiber[cols],
                                  lambda h: h ** power)
    return _build(window.size, cols, cols, data)


def build_E(window: FockWindow, x, y) -> PartialPermutation:
    """Row swap E_{x,y}: e^(m)_{y,z} -> e^(m)_{x,z} when (x,z) in E(P^m)."""
    rows, cols = window._shift_pairs(y, x, 0)
    return _build(window.size, rows, cols, 1.0)


def build_U_row(window: FockWindow, x) -> PartialPermutation:
    """U_x: e^(m)_{x,z} -> e^(m+1)_{x,z} when the target exists."""
    return build_U(window) @ build_projection(window, x)


def build_U(window: FockWindow) -> PartialPermutation:
    """U = direct sum of the U_x over every row of the window."""
    target = window.level + 1
    cols = np.flatnonzero(target <= window.max_level)
    rows = window._pos[target[cols], window.row[cols], window.fiber[cols]]
    keep = rows >= 0
    return _build(window.size, rows[keep], cols[keep], 1.0)


def build_Hop(window: FockWindow, z0, x, y, table) -> PartialPermutation:
    """H^(z0)_{x,y} = E_{z0,y} R_{x,y} E_{y,z0} = H_{x,y} p_z0: the diagonal
    weight sqrt(H(x^-1 y, x^-1 w)) on row z0, guarded by (y,w) presence."""
    return build_H_diag(window, x, y, table) @ build_projection(window, z0)


def build_H_diag(window: FockWindow, x, y, table) -> PartialPermutation:
    """H_{x,y} = direct sum over z0 of H^(z0)_{x,y} (acts on every row)."""
    present_y = window._log_p_table(y) > NEG_INF
    cols = np.flatnonzero(present_y[window.level, window.fiber])
    data = window._kernel_weights(x, y, table, window.fiber[cols], math.sqrt)
    return _build(window.size, cols, cols, data)


def build_projection(window: FockWindow, x) -> PartialPermutation:
    """p_x = S^(0)_{x,x}: the diagonal projection onto row x."""
    cols = window._row_positions(x)
    return _build(window.size, cols, cols, 1.0)


def build_Vg(window: FockWindow, g) -> PartialPermutation:
    """Left-translation unitary V_g: e^(m)_{x,z} -> e^(m)_{gx,gz},
    restricted to pairs whose image stays in the window; one product per
    ball element."""
    mul = window.descriptor.multiply
    r2 = np.array([window._row_id.get(mul(g, x), -1) for x in window.x_elems],
                  dtype=np.intp)[window.row]
    f2 = np.array([window._fiber_id.get(mul(g, z), -1) for z in window.z_elems],
                  dtype=np.intp)[window.fiber]
    cols = np.flatnonzero((r2 >= 0) & (f2 >= 0))
    rows = window._pos[window.level[cols], r2[cols], f2[cols]]
    keep = rows >= 0
    return _build(window.size, rows[keep], cols[keep], 1.0)


def build_Uzeta(window: FockWindow, zeta) -> PartialPermutation:
    """Gauge unitary U_zeta: e^(m)_{x,z} -> zeta^m e^(m)_{x,z}."""
    zeta = complex(zeta)
    real = zeta.imag == 0.0
    phases = [zeta ** m for m in range(window.max_level + 1)]
    by_level = np.array([p.real for p in phases] if real else phases)
    cols = np.arange(window.size, dtype=np.intp)
    return _build(window.size, cols, cols, by_level[window.level])


def identity_operator(window: FockWindow) -> PartialPermutation:
    return PartialPermutation(np.arange(window.size, dtype=np.intp),
                              np.ones(window.size))


# ---------------------------------------------------------------------------
# defect diagnostics
# ---------------------------------------------------------------------------

def _interior_defect_by_fiber(window: FockWindow, norms: np.ndarray, rows_needed,
                              level_shift: int = 0, extra_threshold: int = 0,
                              identity: str | None = None):
    """Per-fiber max defect, from the ``defect_norms`` of an identity, on
    inputs at interior levels at or above the fiber's edge threshold;
    sub-threshold maxima reported too.  Each row names ``identity`` when
    one is given."""
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


def _fiber_report(name, window, inputs, per_fiber, tol) -> DiagnosticsReport:
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
        provenance={"window": window.spec_dict(), "M": window.cache.depth},
    )


def matrix_unit_defects(window: FockWindow, triples, tol: float = EXACT_TOL) -> DiagnosticsReport:
    """E_{x,y}E_{y',z} = delta_{y,y'} E_{x,z} and E_{x,y}* = E_{y,x},
    exactly above the per-fiber edge thresholds."""
    fmt = window.descriptor.format
    residuals = []
    for x, y, y2, z in triples:
        e_xy = build_E(window, x, y)
        prod = e_xy @ build_E(window, y2, z)
        residuals += _interior_defect_by_fiber(
            window, defect_norms(prod, build_E(window, x, z) if y == y2 else None),
            rows_needed=[x, y, y2, z],
            identity=f"E[{fmt(x)},{fmt(y)}]E[{fmt(y2)},{fmt(z)}]")
        residuals += _interior_defect_by_fiber(
            window, defect_norms(e_xy.T, build_E(window, y, x)), rows_needed=[x, y],
            identity=f"E[{fmt(x)},{fmt(y)}]* - E[{fmt(y)},{fmt(x)}]")
    return _fiber_report(
        "matrix-unit-defects", window,
        {"triples": [[fmt(t) for t in tr] for tr in triples]},
        residuals, tol,
    )


def unitary_and_commutation_defects(window: FockWindow, pairs, table,
                                    tol: float = EXACT_TOL) -> DiagnosticsReport:
    """U*U = I = UU* (above m_0 + 1), and E- and H-operators commute with U
    and with each other, above the per-fiber thresholds."""
    fmt = window.descriptor.format
    u = build_U(window)
    ident = identity_operator(window)
    residuals = []
    for lhs, label in ((u.T @ u, "U*U - I"), (u @ u.T, "UU* - I")):
        residuals += _interior_defect_by_fiber(
            window, defect_norms(lhs, ident), window.x_elems, extra_threshold=1,
            identity=label)
    for x, y in pairs:
        e_op = build_E(window, x, y)
        h_op = build_H_diag(window, x, y, table)
        e_label, h_label = f"E[{fmt(x)},{fmt(y)}]", f"H[{fmt(x)},{fmt(y)}]"
        for a, b, label in (
            (e_op, u, f"[{e_label}, U]"),
            (h_op, u, f"[{h_label}, U]"),
            (e_op, h_op, f"[{e_label}, {h_label}]"),
        ):
            residuals += _interior_defect_by_fiber(
                window, defect_norms(a @ b, b @ a), rows_needed=[x, y],
                level_shift=1, identity=label)
    return _fiber_report(
        "unitary-and-commutation-defects", window,
        {"pairs": [[fmt(x), fmt(y)] for x, y in pairs]},
        residuals, tol,
    )


def generator_identity_defect(window: FockWindow, n: int, x, y, table,
                              tol: float = EXACT_TOL) -> DiagnosticsReport:
    """W^(n)_{x,y} = U_x^n E_{x,e} H^(e)_{x,y} E_{e,y} above thresholds."""
    desc = window.descriptor
    e = desc.identity()
    w_op = build_W(window, n, x, y, table)
    u_x = build_U_row(window, x)
    rhs = build_E(window, x, e) @ build_Hop(window, e, x, y, table) @ build_E(window, e, y)
    for _ in range(n):  # unit weights: the same floats as U_x^n @ rhs
        rhs = u_x @ rhs
    per_fiber = _interior_defect_by_fiber(
        window, defect_norms(w_op, rhs), rows_needed=[e, x, y], level_shift=n
    )
    fmt = desc.format
    return _fiber_report(
        "generator-identity-defect", window,
        {"n": n, "x": fmt(x), "y": fmt(y)},
        per_fiber, tol,
    )


def q0_projection_check(window: FockWindow, x, tol: float = EXACT_TOL) -> DiagnosticsReport:
    """R^(0)_x = p_x - sum_y S^(1)_{x,y} S^(1)*_{x,y} is the level-0
    projection of row x: fixes e^(0)_{x,x}, kills interior e^(m+1)_{x,z}
    (Chapman-Kolmogorov makes the coefficient sum exactly 1) and other rows."""
    desc = window.descriptor
    cache = window.cache
    r0 = build_projection(window, x)
    for s in sorted(cache.mu.support, key=desc.sort_key):
        y = desc.multiply(x, s)
        if cache.log_transition(1, x, y) == NEG_INF:
            continue
        if y not in window._row_id:
            raise PreconditionError(
                f"window row ball must contain every one-step neighbour of "
                f"{desc.format(x)}; {desc.format(y)} is missing"
            )
        s1 = build_S(window, 1, x, y)
        r0 = r0 + -1.0 * (s1 @ s1.T)  # S S* is diagonal, so r0 stays diagonal
    norms = defect_norms(r0)
    residuals = []
    i = window.position(0, x, x)
    if i >= 0:
        residuals.append({"identity": "R0 e0_xx = e0_xx",
                          "residual": float(abs(r0.weight[i] - 1.0))})
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
    mid_radius = n * max(desc.word_length(g) for g in cache.mu.support)
    mids = cache.support_in_ball(n, mid_radius)
    residuals = []
    worst = 0.0
    for x in desc.ball(x_radius):
        for z in desc.ball(z_radius):
            log_tot = cache.log_transition(n + m, x, z)
            if log_tot == NEG_INF:
                continue
            total = 0.0
            for u, ln in mids:  # y = xu of two ball elements: unchecked law
                lm = cache.log_transition(m, desc._mul(x, u), z)
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


def _translation_defect(window: FockWindow, s_op: PartialPermutation, g, n: int,
                        x, y) -> tuple:
    """The largest column norm of V_g S^(n)_{x,y} - S^(n)_{gx,gy} V_g over
    the g-stable region, and the region's size."""
    desc = window.descriptor
    sg_op = build_S(window, n, desc.multiply(g, x), desc.multiply(g, y))
    vg = build_Vg(window, g)
    lhs = vg @ s_op
    rhs = sg_op @ vg
    # inputs e^(m)_{r,w} with m + n in the window whose image e^(m)_{gr,gw}
    # under V_g is in the window, and, on row y (the only row S^(n)_{x,y}
    # moves), whose shifted image e^(m+n)_{gx,gw} under S_g V_g is too
    stable = (window.level + n <= window.max_level) & (vg.target >= 0)
    off_y = window.row != window._row_id.get(y, -1)
    region = np.flatnonzero(stable & ((rhs.target >= 0) | off_y))
    if len(region) == 0:
        raise PreconditionError("empty covariance comparison region")
    return float(defect_norms(lhs, rhs)[region].max(initial=0.0)), int(len(region))


def _gauge_defect(window: FockWindow, s_op: PartialPermutation, zeta, n: int) -> float:
    """The largest column norm of U_zeta S U_zeta^-1 - zeta^n S.  Both sides
    vanish on the columns S sends to 0, so only the columns S moves are
    formed: the same products, entry by entry, as on the whole window."""
    phases = build_Uzeta(window, zeta).weight
    cols = np.flatnonzero(s_op.target >= 0)
    rows, weight = s_op.target[cols], s_op.weight[cols]
    zc = complex(zeta)
    phase = zc ** n
    lhs = phases[rows] * weight * (1.0 / phases[cols])
    rhs = weight * (phase.real if zc.imag == 0.0 else phase)
    return float(defect_norms(PartialPermutation(rows, lhs),
                              PartialPermutation(rows, rhs)).max(initial=0.0))


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
    cov, region_size = _translation_defect(window, s_op, g, n, x, y)
    gauge = _gauge_defect(window, s_op, zeta, n)
    residuals = [
        {"identity": "V_g S V_g^-1 = S_g", "residual": cov,
         "region_size": region_size},
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


# ---------------------------------------------------------------------------
# quotient norms
# ---------------------------------------------------------------------------

@dataclass
class QuotientNormEstimate:
    estimate: float      # sup of the final-rung norms
    per_fiber: dict      # fiber text -> list of (m, norm) rungs
    stabilized: bool
    ladder: list

    def as_dict(self):
        return asdict(self)


def quotient_norm_estimate(window: FockWindow,
                           op: PartialPermutation) -> QuotientNormEstimate:
    """sup over the window's fibers of lim_m ||T Q^{[m, interior]}|_{F_z}||.

    For each fiber the restricted norm, exactly the largest |weight| of an
    entry with both ends in the rung, is taken on the rungs m = s, 2s, ...
    up to the interior top, s = max(1, top // 4); the fiber value is the
    final rung and the sup is over the window's fibers ``z_elems`` only (a
    lower bound for the true sup over all of G, which is reported as such).  Each rung
    is kept as (m, norm).
    """
    top = window.interior_top
    step = max(1, top // 4)
    ladder = list(range(step, top + 1, step))
    per_fiber = {}
    sup = 0.0
    stabilized = True
    magnitude = np.abs(op.weight)
    for z in window.z_elems:
        # the fiber's positions are level-sorted: one selection at the
        # lowest rung, and each higher rung is a suffix of it
        cols = window.select(fiber=z, level_lo=step, level_hi=top)
        levels = window.level[cols]
        vals = []
        for m in ladder:
            rung = cols[np.searchsorted(levels, m):]
            in_rung = np.zeros(window.size + 1, dtype=bool)  # last slot: target -1
            in_rung[rung] = True
            norm = float(magnitude[rung[in_rung[op.target[rung]]]].max(initial=0.0))
            vals.append((m, norm))
        per_fiber[window.descriptor.format(z)] = vals
        tail = [norm for _, norm in vals if norm > 0.0]
        # stabilized: the last two nonzero rung norms agree within 2% relative
        if len(tail) >= 2 and abs(tail[-1] - tail[-2]) > 0.02 * max(tail[-1], 1e-300):
            stabilized = False
        if vals:
            sup = max(sup, vals[-1][1])
    return QuotientNormEstimate(estimate=sup, per_fiber=per_fiber,
                                stabilized=stabilized, ladder=ladder)
