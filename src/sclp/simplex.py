"""Dense two-phase revised simplex with anti-cycling, plus MPS export.

Designed for the assembled measure LPs: few rows (one per test function
plus mass/budget rows), many columns (one per atom).  Dantzig pricing with
lowest-index tie-break; Bland's rule engages after a configurable streak of
degenerate pivots, which guarantees termination.  Row/column equilibration
is applied before solving and undone on output.
"""
from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteLP

log = logging.getLogger(__name__)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iter_limit"


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

    def __init__(self, a, b, c, basis, tol, bland_after, refactor_every=60):
        self.a = a
        self.b = b
        self.c = c
        self.basis = list(basis)
        self.m, self.n = a.shape
        self.tol = tol
        self.bland_after = bland_after
        self.refactor_every = refactor_every
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.in_basis[self.basis] = True
        self.allowed = np.ones(self.n, dtype=bool)
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
        return self.c - self.duals() @ self.a

    def objective(self):
        return float(self.c[self.basis] @ self.xb)

    def run(self, max_iter):
        """Iterate to optimality; returns OPTIMAL or UNBOUNDED or ITER_LIMIT."""
        degen_streak = 0
        bland = False
        since_refactor = 0
        # Steps below this are treated as degenerate for anti-cycling purposes
        # (strictly tiny steps stall Dantzig pricing just like exact ties).
        degen_eps = max(self.tol, 1e-7)
        while self.iterations < max_iter:
            red = self.reduced_costs()
            cand = (~self.in_basis) & self.allowed & (red < -self.tol)
            if not cand.any():
                return OPTIMAL
            if bland or degen_streak >= self.bland_after:
                bland = True
                enter = int(np.flatnonzero(cand)[0])  # Bland: lowest index
            else:
                masked = np.where(cand, red, np.inf)
                enter = int(np.argmin(masked))  # Dantzig, lowest index on ties
            d = self.binv @ self.a[:, enter]
            # Pivot eligibility is relative to the column magnitude; tiny
            # pivots produce numerically dependent bases after the update.
            piv_tol = max(self.tol, 1e-7 * float(np.abs(d).max(initial=0.0)))
            pos = d > piv_tol
            if not pos.any():
                if (d > self.tol).any():
                    # Only numerically unsafe pivots remain in this column;
                    # skip it rather than corrupt the basis.
                    self.allowed[enter] = False
                    continue
                self.entering_ray = (enter, d)
                return UNBOUNDED
            ratios = np.where(pos, self.xb / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            ties = np.flatnonzero(ratios <= rmin + self.tol * (1.0 + abs(rmin)))
            if bland:
                # Lowest leaving-variable index among ties (Bland's rule).
                leave_row = int(min(ties, key=lambda i: self.basis[i]))
            else:
                # Largest pivot among ties for numerical stability.
                leave_row = int(ties[np.argmax(d[ties])])
            step = ratios[leave_row]
            degen_streak = degen_streak + 1 if step <= degen_eps else 0

            self.iterations += 1
            since_refactor += 1
            refactor = (abs(d[leave_row]) < 1e-11
                        or since_refactor >= self.refactor_every)
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
        """Pivot basic artificials onto structural columns; drop redundant rows.

        Returns the set of row indices removed (dependent constraints).
        """
        removed = []
        for row in range(self.m):
            if self.basis[row] < n_structural:
                continue
            tab_row = self.binv[row] @ self.a[:, :n_structural]
            cand = np.flatnonzero((np.abs(tab_row) > 1e-9)
                                  & ~self.in_basis[:n_structural])
            if cand.size:
                enter = int(cand[0])
                self._pivot(row, enter, self.binv @ self.a[:, enter])
            else:
                removed.append(row)
        return removed


def solve(lp: DiscreteLP, tol: float = 1e-9, max_iter: int = 50000,
          bland_after: int = 50, verbose: bool = False) -> LPSolution:
    """Solve the LP with a two-phase dense revised simplex.

    Deterministic: identical inputs give identical pivots and output.
    Inequality rows gain slack variables internally; equilibration scaling
    is undone on output.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-12, 1e-6]")
    n = lp.n_cols
    me, mu = lp.b_eq.size, lp.b_ub.size
    m = me + mu
    a = np.zeros((m, n + mu))
    if me:
        a[:me, :n] = lp.a_eq
    if mu:
        a[me:, :n] = lp.a_ub
        a[me:, n:] = np.eye(mu)
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([lp.c, np.zeros(mu)])

    # Equilibration: rows then columns scaled to unit max-abs magnitude.
    row_max = np.abs(a).max(axis=1)
    rscale = np.where(row_max > 0, 1.0 / np.where(row_max > 0, row_max, 1.0), 1.0)
    a = a * rscale[:, None]
    b = b * rscale
    col_max = np.abs(a).max(axis=0)
    cscale = np.where(col_max > 0, 1.0 / np.where(col_max > 0, col_max, 1.0), 1.0)
    a = a * cscale[None, :]
    c_s = c * cscale

    # Orient rows so the right-hand side is nonnegative.
    flip = np.where(b < 0, -1.0, 1.0)
    a = a * flip[:, None]
    b = b * flip

    ncols = n + mu
    n_art = m
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(ncols), np.ones(m)])

    core = _Core(a1, b, c1, basis=list(range(ncols, ncols + n_art)),
                 tol=tol, bland_after=bland_after)
    status = core.run(max_iter)
    if status == ITER_LIMIT:
        return _solution(lp, ITER_LIMIT, np.zeros(n), np.zeros(me), np.zeros(mu),
                         core.iterations)
    feas_tol = max(1e-8, tol * 10) * (1.0 + float(np.abs(b).sum()))
    if core.objective() > feas_tol:
        # Farkas certificate from the phase-1 duals, mapped to original rows.
        y = core.duals()
        r = y * rscale * flip
        if verbose:
            log.info("infeasible: phase-1 objective %.3e", core.objective())
        return _solution(lp, INFEASIBLE, np.zeros(n), np.zeros(me), np.zeros(mu),
                         core.iterations, farkas=r)

    removed = core.drive_out_artificials(ncols)
    if removed:
        keep = np.array([i for i in range(m) if i not in set(removed)], dtype=int)
        a = a[keep]
        b = b[keep]
        basis = [core.basis[i] for i in range(m) if i not in set(removed)]
        if verbose:
            log.info("dropped %d dependent rows", len(removed))
    else:
        keep = np.arange(m)
        basis = list(core.basis)

    core2 = _Core(np.ascontiguousarray(a), b, c_s, basis=basis,
                  tol=tol, bland_after=bland_after)
    status = core2.run(max_iter - core.iterations)
    iters = core.iterations + core2.iterations
    if status == UNBOUNDED:
        return _solution(lp, UNBOUNDED, np.zeros(n), np.zeros(me), np.zeros(mu), iters)
    if status == ITER_LIMIT:
        return _solution(lp, ITER_LIMIT, np.zeros(n), np.zeros(me), np.zeros(mu), iters)

    x_s = np.zeros(a.shape[1])
    x_s[core2.basis] = core2.xb
    x = np.maximum(x_s[:n] * cscale[:n], 0.0)
    y_s = core2.duals()
    y_full = np.zeros(m)
    y_full[keep] = y_s
    y = y_full * rscale * flip
    objective = float(lp.c @ x)
    if verbose:
        log.info("optimal: objective %.12g after %d iterations", objective, iters)
    return _solution(lp, OPTIMAL, x, y[:me], y[me:], iters)


def _solution(lp, status, x, dual_eq, dual_ub, iterations, farkas=None):
    return LPSolution(status=status, weights=x,
                      objective=float(lp.c @ x) if status == OPTIMAL else np.nan,
                      dual_eq=dual_eq, dual_ub=dual_ub,
                      iterations=iterations, farkas=farkas)


# ---------------------------------------------------------------------------
# MPS fixed-format export / import.
# Field layout follows the classic fixed columns for the indicator and name
# fields; numeric fields are written with full precision (17 significant
# digits) so a parse/export cycle reproduces every coefficient exactly.

def _fmt(v: float) -> str:
    return "%.17g" % v


def export_mps(lp: DiscreteLP, name: str = "SCLP") -> str:
    """Serialize the LP to MPS text with ROWS/COLUMNS/RHS/BOUNDS sections."""
    cols = lp.column_names()
    lines = [f"NAME          {name}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for lab in lp.eq_labels:
        lines.append(f" E  {lab}")
    for lab in lp.ub_labels:
        lines.append(f" L  {lab}")
    lines.append("COLUMNS")
    for j, cname in enumerate(cols):
        if lp.c[j] != 0.0:
            lines.append(f"    {cname:<10}{'COST':<10}{_fmt(lp.c[j])}")
        for i, lab in enumerate(lp.eq_labels):
            v = lp.a_eq[i, j]
            if v != 0.0:
                lines.append(f"    {cname:<10}{lab:<10}{_fmt(v)}")
        for i, lab in enumerate(lp.ub_labels):
            v = lp.a_ub[i, j]
            if v != 0.0:
                lines.append(f"    {cname:<10}{lab:<10}{_fmt(v)}")
    lines.append("RHS")
    for i, lab in enumerate(lp.eq_labels):
        if lp.b_eq[i] != 0.0:
            lines.append(f"    {'RHS':<10}{lab:<10}{_fmt(lp.b_eq[i])}")
    for i, lab in enumerate(lp.ub_labels):
        if lp.b_ub[i] != 0.0:
            lines.append(f"    {'RHS':<10}{lab:<10}{_fmt(lp.b_ub[i])}")
    lines.append("BOUNDS")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


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
                name = parts[1]
            elif section == "COLUMNS":
                # ROWS precedes COLUMNS; equality wins a label in both.
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
