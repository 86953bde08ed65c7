"""Dense two-phase revised simplex with certified optima, plus MPS export.

Designed for the assembled measure LPs: few rows (one per test function
plus mass/budget rows), many columns (one per atom).  One core runs both
phases: Dantzig pricing with lowest-index ties, largest pivot among
ratio-test ties.  Exactly equal structural columns are priced once: the
core sees the first column of each group, and the others get weight 0
(the duplicate-column step of LP presolve; Andersen and Andersen 1995,
Presolving in linear programming).  Row/column equilibration is applied
before solving and undone on output.  Optima are checked on the original
LP before return.
"""
from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteLP, constraint_residual

log = logging.getLogger(__name__)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iter_limit"
NUMERICAL = "numerical"  # the final basis fails an optimality certificate

TOL = 1e-9  # pricing, ratio-test and dual-sign tolerance
REFACTOR_EVERY = 60  # product-form updates between refactorizations


class SingularBasisError(RuntimeError):
    """Basis matrix numerically singular even after refactorization."""


@dataclass
class LPSolution:
    status: str
    weights: np.ndarray
    objective: float
    dual_eq: np.ndarray
    dual_ub: np.ndarray
    iterations: int
    farkas: np.ndarray | None = None  # infeasibility certificate over all rows

    @property
    def dual(self) -> np.ndarray:
        return np.concatenate([self.dual_eq, self.dual_ub])


class _Core:
    """Simplex iterations on a standard-form problem min c.x, A x = b, x >= 0."""

    def __init__(self, a, b, c, basis):
        self.a = a
        self.b = b
        self.c = c
        self.basis = list(basis)
        self.m, self.n = a.shape
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.in_basis[self.basis] = True
        self.allowed = np.ones(self.n, dtype=bool)
        self.priced = self.n  # only columns below this index may enter
        self.iterations = 0
        self._refactor()

    def _refactor(self):
        bmat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError(f"basis matrix singular: {exc}") from exc
        if not np.all(np.isfinite(self.binv)):
            raise SingularBasisError("basis inverse is non-finite")
        self.xb = self.binv @ self.b

    def duals(self):
        return self.c[self.basis] @ self.binv

    def reduced_costs(self):
        k = self.priced
        return self.c[:k] - self.duals() @ self.a[:, :k]

    def objective(self):
        return float(self.c[self.basis] @ self.xb)

    def run(self, max_iter):
        """Iterate to optimality; returns OPTIMAL or UNBOUNDED or ITER_LIMIT."""
        since_refactor = 0
        while self.iterations < max_iter:
            red = self.reduced_costs()
            k = self.priced
            cand = (~self.in_basis[:k]) & self.allowed[:k] & (red < -TOL)
            if not cand.any():
                return OPTIMAL
            masked = np.where(cand, red, np.inf)
            enter = int(np.argmin(masked))  # Dantzig, lowest index on ties
            d = self.binv @ self.a[:, enter]
            # Pivot eligibility is relative to the column magnitude; tiny
            # pivots produce numerically dependent bases after the update.
            piv_tol = max(TOL, 1e-7 * float(np.abs(d).max(initial=0.0)))
            pos = d > piv_tol
            if not pos.any():
                if (d > TOL).any():
                    # Only numerically unsafe pivots remain in this column;
                    # skip it rather than corrupt the basis.
                    self.allowed[enter] = False
                    continue
                return UNBOUNDED
            ratios = np.where(pos, self.xb / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            ties = np.flatnonzero(ratios <= rmin + TOL * (1.0 + abs(rmin)))
            # Largest pivot among ties for numerical stability.
            leave_row = int(ties[np.argmax(d[ties])])

            self.iterations += 1
            since_refactor += 1
            refactor = (abs(d[leave_row]) < 1e-11
                        or since_refactor >= REFACTOR_EVERY)
            if refactor:
                since_refactor = 0
            self._pivot(leave_row, enter, d, refactor)
        return ITER_LIMIT

    def _pivot(self, row, enter, d, refactor=False):
        """Replace basis[row] by column enter, where d = B^-1 a[:, enter].

        The inverse is refactorized or given a product-form update.
        """
        self.in_basis[self.basis[row]] = False
        self.basis[row] = enter
        self.in_basis[enter] = True
        if refactor:
            self._refactor()
        else:
            self.binv[row] /= d[row]
            others = np.arange(self.m) != row
            self.binv[others] -= np.outer(d[others], self.binv[row])
            self.xb = self.binv @ self.b
        self.xb = np.maximum(self.xb, 0.0)

    def drive_out_artificials(self, n_structural):
        """Pivot basic artificials onto structural columns where possible.

        An artificial left basic marks a dependent row; it stays in the
        basis at zero.
        """
        for row in range(self.m):
            if self.basis[row] < n_structural:
                continue
            tab_row = self.binv[row] @ self.a[:, :n_structural]
            cand = np.flatnonzero((np.abs(tab_row) > 1e-9)
                                  & ~self.in_basis[:n_structural])
            if cand.size:
                enter = int(cand[0])
                self._pivot(row, enter, self.binv @ self.a[:, enter])


def solve(lp: DiscreteLP, max_iter: int = 50000) -> LPSolution:
    """Solve the LP with a two-phase dense revised simplex.

    Deterministic: identical inputs give identical pivots and output.
    Exactly equal columns are priced once; later copies get weight 0.
    Inequality rows gain slack variables internally; equilibration scaling
    is undone on output.  Pricing and ratio tests use the tolerance TOL.
    An optimum that fails its certificate (see _certificate_failure) is
    returned as NUMERICAL; max_iter bounds the pivots of both phases.
    """
    n = lp.n_cols
    me, mu = lp.b_eq.size, lp.b_ub.size
    m = me + mu
    # Copies of a column change no row maximum, and Dantzig's lowest-index
    # rule would enter the first copy anyway: only first copies are priced.
    keep = _first_copies(lp)
    k = keep.size
    log.info("priced %d of %d columns", k, n)
    ncols = k + mu
    # Kept structural and slack columns, then one artificial per row for
    # phase 1.  The matrix is built once, row by row, and scaled in place:
    # it is the largest array.
    a = np.zeros((m, ncols + m))
    for i, row in enumerate([*lp.a_eq, *lp.a_ub]):
        a[i, :k] = row[keep]
    a[me:, k:ncols] = np.eye(mu)
    a[:, ncols:] = np.eye(m)
    a_s = a[:, :ncols]
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([lp.c[keep], np.zeros(mu)])

    # Equilibration: rows then columns scaled to unit max-abs magnitude,
    # taken as max(max, -min) so that no copy of a is made.
    row_max = np.maximum(a_s.max(axis=1), -a_s.min(axis=1))
    rscale = np.where(row_max > 0, 1.0 / np.where(row_max > 0, row_max, 1.0), 1.0)
    a_s *= rscale[:, None]
    b = b * rscale
    col_max = np.maximum(a_s.max(axis=0), -a_s.min(axis=0))
    cscale = np.where(col_max > 0, 1.0 / np.where(col_max > 0, col_max, 1.0), 1.0)
    a_s *= cscale[None, :]
    c_s = c * cscale

    # Orient rows so the right-hand side is nonnegative.
    flip = np.where(b < 0, -1.0, 1.0)
    a_s *= flip[:, None]
    b = b * flip

    # Phase 1 minimizes the sum of the artificials.
    core = _Core(a, b, np.concatenate([np.zeros(ncols), np.ones(m)]),
                 basis=range(ncols, ncols + m))
    status = core.run(max_iter)
    if status == ITER_LIMIT:
        return _no_solution(lp, ITER_LIMIT, core.iterations)
    feas_tol = max(1e-8, TOL * 10) * (1.0 + float(np.abs(b).sum()))
    if core.objective() > feas_tol:
        # Farkas certificate from the phase-1 duals, mapped to original rows.
        y = core.duals()
        r = y * rscale * flip
        log.info("infeasible: phase-1 objective %.3e", core.objective())
        return _no_solution(lp, INFEASIBLE, core.iterations, farkas=r)

    # Phase 2 on the same core: true costs, and artificials are no longer
    # priced, so they never re-enter.
    core.drive_out_artificials(ncols)
    core.c = np.concatenate([c_s, np.zeros(m)])
    core.allowed[:] = True  # columns skipped in phase 1 get a new chance
    core.priced = ncols
    core._refactor()
    status = core.run(max_iter)
    iters = core.iterations
    if status != OPTIMAL:
        return _no_solution(lp, status, iters)

    x_s = np.zeros(core.n)
    x_s[core.basis] = core.xb
    x = np.zeros(n)
    x[keep] = np.maximum(x_s[:k] * cscale[:k], 0.0)
    y = core.duals() * rscale * flip
    failure = _certificate_failure(lp, x, y[:me], y[me:])
    if failure:
        log.info("numerical: %s after %d iterations", failure, iters)
        return _no_solution(lp, NUMERICAL, iters)
    objective = float(lp.c @ x)
    log.info("optimal: objective %.12g after %d iterations", objective, iters)
    return LPSolution(OPTIMAL, x, objective, y[:me], y[me:], iters)


def _first_copies(lp: DiscreteLP) -> np.ndarray:
    """The lowest index of each group of equal structural columns, increasing.

    Columns are equal when c, a_eq and a_ub agree entry by entry (0.0 and
    -0.0 agree).  A lexicographic sort of the column indices by the rows
    puts equal columns next to each other, and neighbours are then compared
    row by row: the matrix is neither copied nor transposed, and no BLAS
    call can make equal columns differ in a last bit.
    """
    rows = [lp.c, *lp.a_eq, *lp.a_ub]
    order = np.lexsort(rows)
    starts = np.zeros(lp.n_cols, dtype=bool)  # sorted position opens a group
    starts[:1] = True
    for row in rows:
        sorted_row = row[order]
        starts[1:] |= sorted_row[1:] != sorted_row[:-1]
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(starts)))


def _certificate_failure(lp, x, y_eq, y_ub) -> str | None:
    """The first optimality certificate that x and y fail on lp, or None.

    Primal: equality residual and budget violation at most 1e-8.  Dual:
    inequality duals at most TOL, and every structural reduced cost
    c_j - a_j.y at least -(TOL * scale_j + 1e-12 max|y| sum_i |a_ij|).
    scale_j = |c_j| + |a_j|.|y| is the magnitude of the terms that cancel
    in the reduced cost; the second term allows for roundoff in the duals
    themselves.  Gap: |c.x - b.y| at most 1e-8 (1 + |c.x|).
    """
    eq, ub = constraint_residual(lp, x)
    if eq > 1e-8:
        return f"equality residual {eq!r}"
    if ub > 1e-8:
        return f"budget row violated by {ub!r}"
    if np.any(y_ub > TOL):
        return f"inequality dual of the wrong sign {float(y_ub.max())!r}"
    y_abs = np.abs(np.concatenate([y_eq, y_ub]))
    roundoff = 1e-12 * float(y_abs.max(initial=0.0))
    slack = TOL * np.abs(lp.c)
    # Row by row, so no temporary as large as the constraint matrix.
    for w, row in zip(y_abs, [*lp.a_eq, *lp.a_ub]):
        slack += (TOL * w + roundoff) * np.abs(row)
    reduced = lp.c - y_eq @ lp.a_eq - y_ub @ lp.a_ub
    worst = float((reduced + slack).min(initial=0.0))
    if worst < 0.0:
        return f"reduced cost below -TOL*scale by {worst!r}"
    primal = float(lp.c @ x)
    gap = abs(primal - float(lp.b_eq @ y_eq + lp.b_ub @ y_ub))
    if gap > 1e-8 * (1.0 + abs(primal)):
        return f"duality gap {gap!r}"
    return None


def _no_solution(lp, status, iterations, farkas=None):
    """A result without an optimum: zero weights and duals, objective nan."""
    return LPSolution(status, np.zeros(lp.n_cols), np.nan, np.zeros(lp.b_eq.size),
                      np.zeros(lp.b_ub.size), iterations, farkas)


# ---------------------------------------------------------------------------
# MPS fixed-format export / import.
# Field layout follows the classic fixed columns for the indicator and name
# fields; numeric fields are written with full precision (17 significant
# digits) so a parse/export cycle reproduces every coefficient exactly.

_MPS_BLOCK = 256  # columns written per block by export_mps


def _fmt(v: float) -> str:
    return "%.17g" % v


def export_mps(lp: DiscreteLP) -> str:
    """Serialize the LP to MPS text with ROWS/COLUMNS/RHS/BOUNDS sections.

    The NAME line carries lp.name.
    """
    cols = lp.column_names()
    lines = [f"NAME          {lp.name}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for lab in lp.eq_labels:
        lines.append(f" E  {lab}")
    for lab in lp.ub_labels:
        lines.append(f" L  {lab}")
    lines.append("COLUMNS")
    rows = ["COST", *lp.eq_labels, *lp.ub_labels]
    for lo in range(0, lp.n_cols, _MPS_BLOCK):
        # Transposed, so nonzero() lists a block's entries column by
        # column: cost first, then the equality and inequality rows.
        blk = np.vstack([lp.c[None, lo:lo + _MPS_BLOCK],
                         lp.a_eq[:, lo:lo + _MPS_BLOCK],
                         lp.a_ub[:, lo:lo + _MPS_BLOCK]]).T
        j, i = np.nonzero(blk)
        if j.size:
            lines.append("\n".join(
                f"    {cols[lo + jj]:<10}{rows[ii]:<10}{_fmt(v)}"
                for jj, ii, v in zip(j.tolist(), i.tolist(), blk[j, i].tolist())))
    lines.append("RHS")
    for i, lab in enumerate(lp.eq_labels):
        if lp.b_eq[i] != 0.0:
            lines.append(f"    {'RHS':<10}{lab:<10}{_fmt(lp.b_eq[i])}")
    for i, lab in enumerate(lp.ub_labels):
        if lp.b_ub[i] != 0.0:
            lines.append(f"    {'RHS':<10}{lab:<10}{_fmt(lp.b_ub[i])}")
    lines.append("BOUNDS")
    lines.append("ENDATA\n")
    return "\n".join(lines)


def _lines(text: str):
    """The lines of text one at a time, without a list of the whole text."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        yield text[start:stop]
        start = stop + 1


def parse_mps(text: str) -> DiscreteLP:
    """Parse MPS text produced by export_mps back into a DiscreteLP."""
    section = None
    name = "SCLP"
    eq_labels: list[str] = []
    ub_labels: list[str] = []
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    # Nonzeros as compact arrays: column, row code (-1 cost, then the
    # equality rows, then the inequality rows) and value.
    row_code: dict[str, int] = {}
    ent_col, ent_row, ent_val = array("q"), array("q"), array("d")
    rhs: dict[str, float] = {}
    for raw in _lines(text):
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw[0].isspace():
            parts = raw.split()
            section = parts[0]
            if section == "NAME" and len(parts) > 1:
                name = raw[4:].strip()  # the whole field: names may hold spaces
            elif section in ("COLUMNS", "RHS") and not row_code:
                # ROWS precedes COLUMNS and RHS; equality wins a label in both.
                row_code = {lab: len(eq_labels) + i for i, lab in enumerate(ub_labels)}
                row_code.update((lab, i) for i, lab in enumerate(eq_labels))
                row_code["COST"] = -1
            continue
        parts = raw.split()
        if section == "ROWS":
            kind, lab = parts[0], parts[1]
            if kind == "E":
                eq_labels.append(lab)
            elif kind == "L":
                ub_labels.append(lab)
            elif kind != "N":
                raise ValueError(f"unsupported row type {kind!r}")
        elif section == "COLUMNS":
            cname = parts[0]
            j = col_index.get(cname)
            if j is None:
                j = col_index[cname] = len(col_order)
                col_order.append(cname)
            for k in range(1, len(parts) - 1, 2):
                code = row_code.get(parts[k])
                if code is None:
                    raise ValueError(f"unknown row label {parts[k]!r}")
                ent_col.append(j)
                ent_row.append(code)
                ent_val.append(float(parts[k + 1]))
        elif section == "RHS":
            for k in range(1, len(parts) - 1, 2):
                if parts[k] not in row_code:
                    raise ValueError(f"unknown row label {parts[k]!r}")
                rhs[parts[k]] = float(parts[k + 1])
    n = len(col_order)
    n0 = sum(1 for cn in col_order if cn.startswith("W0_"))
    me = len(eq_labels)
    cols = np.frombuffer(ent_col, dtype=np.int64)
    rows = np.frombuffer(ent_row, dtype=np.int64)
    vals = np.frombuffer(ent_val, dtype=float)
    c = np.zeros(n)
    a_eq = np.zeros((me, n))
    a_ub = np.zeros((len(ub_labels), n))
    sel = rows < 0
    c[cols[sel]] = vals[sel]
    sel = (rows >= 0) & (rows < me)
    a_eq[rows[sel], cols[sel]] = vals[sel]
    sel = rows >= me
    a_ub[rows[sel] - me, cols[sel]] = vals[sel]
    b_eq = np.array([rhs.get(lab, 0.0) for lab in eq_labels])
    b_ub = np.array([rhs.get(lab, 0.0) for lab in ub_labels])
    return DiscreteLP(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                      n0=n0, n1=n - n0,
                      eq_labels=tuple(eq_labels), ub_labels=tuple(ub_labels),
                      name=name)
