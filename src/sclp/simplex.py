"""Dense two-phase revised simplex with certified optima, plus MPS export.

Designed for the assembled measure LPs: few rows (one per test function
plus mass/budget rows), many columns (one per atom).  One core runs both
phases: Dantzig pricing with lowest-index ties, largest pivot among
ratio-test ties, over a working set W of the columns (sifting).  W holds
the basic columns and the most negative columns of the last full pass,
about sqrt(k m) + m more per round for k priced columns and m rows; a full
pass over every column runs only when no column of W enters, and only a
full pass ends a phase as optimal.  Row/column equilibration is applied
before solving and undone on output.  Optima are checked on the original
LP before return.
"""
from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, field
from itertools import compress, filterfalse

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
    # Counts of the solve: phase1_iterations and phase2_iterations (pivots
    # per phase), degenerate_pivots (step at most TOL), full_passes (pricing
    # passes over every priced column) and refactorizations (of the basis
    # inverse, the first included).
    stats: dict[str, int] = field(default_factory=dict)

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
        self.priced = self.n  # only columns below this index may enter
        self.iterations = 0
        self.degenerate = 0  # pivots whose step is at most TOL
        self.full_passes = 0  # pricing passes over every priced column
        self.refactorizations = 0
        self._refactor()

    def _refactor(self):
        self.refactorizations += 1
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

    def objective(self):
        return float(self.c[self.basis] @ self.xb)

    def run(self, max_iter):
        """Iterate to optimality; returns OPTIMAL or UNBOUNDED or ITER_LIMIT.

        Sifting: pivots price only a working set W of the priced columns,
        kept sorted and copied compactly.  When no column of W enters, a
        full pass prices every column; only a full pass returns OPTIMAL.
        Otherwise its most negative column enters, and W gains the basic
        columns and the (about sqrt(k m) + m, for k priced columns) most
        negative columns outside it.  W only grows; once it holds every
        priced column each pivot prices them all.

        Pricing keeps the costs of the priced columns with +inf at basic
        columns and at columns skipped for unsafe pivots, so the entering
        column is a plain argmin of the reduced costs.  A NaN reduced cost
        can end the run as OPTIMAL here; solve's certificate check then
        reports NUMERICAL instead.
        """
        k = self.priced
        priced_c = self.c[:k].copy()
        priced_c[[j for j in self.basis if j < k]] = np.inf
        batch = math.ceil(math.sqrt(k * self.m)) + self.m
        in_w = np.zeros(k, dtype=bool)  # W as a mask of the priced columns
        work, a_work = np.empty(0, dtype=np.intp), None  # W's columns and their copy
        since_refactor = 0
        while self.iterations < max_iter:
            y = self.duals()
            enter = -1
            if 0 < work.size < k:
                red = priced_c[work] - y @ a_work
                at = int(np.argmin(red))  # Dantzig, lowest index on ties
                if red[at] < -TOL:
                    enter = int(work[at])
            if enter < 0:
                self.full_passes += 1
                red = priced_c - y @ self.a[:, :k]
                enter = int(np.argmin(red))
                if not red[enter] < -TOL:
                    return OPTIMAL
                if work.size < k:
                    work = self._grow(in_w, red, batch)
                    a_work = None  # freed before the larger copy is made
                    a_work = self.a[:, work] if work.size < k else None
            d = self.binv @ self.a[:, enter]
            # Pivot eligibility is relative to the column magnitude; tiny
            # pivots produce numerically dependent bases after the update.
            piv_tol = max(TOL, 1e-7 * float(np.abs(d).max(initial=0.0)))
            pos = d > piv_tol
            if not pos.any():
                if (d > TOL).any():
                    # Only numerically unsafe pivots remain in this column;
                    # skip it rather than corrupt the basis.
                    priced_c[enter] = np.inf
                    continue
                return UNBOUNDED
            ratios = np.where(pos, self.xb / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            ties = np.flatnonzero(ratios <= rmin + TOL * (1.0 + abs(rmin)))
            # Largest pivot among ties for numerical stability.
            leave_row = int(ties[np.argmax(d[ties])])

            self.iterations += 1
            self.degenerate += bool(rmin <= TOL)
            since_refactor += 1
            refactor = (abs(d[leave_row]) < 1e-11
                        or since_refactor >= REFACTOR_EVERY)
            if refactor:
                since_refactor = 0
            leave = self.basis[leave_row]
            if leave < k:
                priced_c[leave] = self.c[leave]
            priced_c[enter] = np.inf
            self._pivot(leave_row, enter, d, refactor)
        return ITER_LIMIT

    def _grow(self, in_w, red, batch):
        """Add to the mask in_w of W, after a full pass with reduced costs
        red, the basic columns and the batch most negative others (lowest
        index on ties), or every column once at most batch would stay out.
        Returns W's columns in order."""
        k = red.size
        in_w[[j for j in self.basis if j < k]] = True
        if k - np.count_nonzero(in_w) <= batch:
            in_w[:] = True
        else:
            red = np.where(in_w, np.inf, red)
            new = np.flatnonzero(red < -TOL)
            in_w[new[np.argsort(red[new], kind="stable")[:batch]]] = True
        return np.flatnonzero(in_w)

    def _pivot(self, row, enter, d, refactor=False):
        """Replace basis[row] by column enter, where d = B^-1 a[:, enter].

        The inverse is refactorized or given a product-form update.
        """
        self.basis[row] = enter
        if refactor:
            self._refactor()
        else:
            self.binv[row] /= d[row]
            pivot_row = self.binv[row].copy()
            self.binv -= np.outer(d, pivot_row)
            self.binv[row] = pivot_row
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
            # Non-basic structural columns with a nonzero tableau entry, in order.
            cand = np.setdiff1d(np.flatnonzero(np.abs(tab_row) > 1e-9), self.basis)
            if cand.size:
                enter = int(cand[0])
                self._pivot(row, enter, self.binv @ self.a[:, enter])


def solve(lp: DiscreteLP, max_iter: int = 50000) -> LPSolution:
    """Solve the LP with a two-phase dense revised simplex.

    Deterministic: identical inputs give identical pivots and output.
    Inequality rows gain slack variables internally; equilibration scaling
    is undone on output.  Pricing and ratio tests use the tolerance TOL.
    An optimum that fails its certificate (see _certificate_failure) is
    returned as NUMERICAL; max_iter bounds the pivots of both phases.
    Raises ValueError for a NaN or infinite coefficient.
    """
    n = lp.n_cols
    me, mu = lp.b_eq.size, lp.b_ub.size
    m = me + mu
    ncols = n + mu
    # Structural and slack columns, then one artificial per row for
    # phase 1.  The matrix is built once and scaled in place: it is the
    # largest array.
    a = np.zeros((m, ncols + m))
    a[:me, :n] = lp.a_eq
    a[me:, :n] = lp.a_ub
    a[me:, n:ncols] = np.eye(mu)
    a[:, ncols:] = np.eye(m)
    a_s = a[:, :ncols]
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([lp.c, np.zeros(mu)])

    # Equilibration: rows then columns scaled to unit max-abs magnitude,
    # taken as max(max, -min) so that no copy of a is made.
    row_max = np.maximum(a_s.max(axis=1), -a_s.min(axis=1))
    # The row maxima carry any NaN or infinity of the matrix.
    if not (np.isfinite(c).all() and np.isfinite(b).all() and np.isfinite(row_max).all()):
        raise ValueError(f"LP {lp.name} has a non-finite coefficient")
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
    phase1 = core.iterations
    if status == ITER_LIMIT:
        return _no_solution(lp, ITER_LIMIT, _stats(core, phase1))
    feas_tol = max(1e-8, TOL * 10) * (1.0 + float(np.abs(b).sum()))
    if core.objective() > feas_tol:
        # Farkas certificate from the phase-1 duals, mapped to original rows.
        y = core.duals()
        r = y * rscale * flip
        log.info("infeasible: phase-1 objective %.3e", core.objective())
        return _no_solution(lp, INFEASIBLE, _stats(core, phase1), farkas=r)

    # Phase 2 on the same core: true costs, and artificials are no longer
    # priced, so they never re-enter.
    core.drive_out_artificials(ncols)
    core.c = np.concatenate([c_s, np.zeros(m)])
    core.priced = ncols  # run prices afresh: columns skipped in phase 1 may enter
    core._refactor()
    status = core.run(max_iter)
    iters, stats = core.iterations, _stats(core, phase1)
    if status != OPTIMAL:
        return _no_solution(lp, status, stats)

    x_s = np.zeros(core.n)
    x_s[core.basis] = core.xb
    x = np.maximum(x_s[:n] * cscale[:n], 0.0)
    y = core.duals() * rscale * flip
    failure = _certificate_failure(lp, x, y[:me], y[me:])
    if failure:
        log.info("numerical: %s after %d iterations", failure, iters)
        return _no_solution(lp, NUMERICAL, stats)
    objective = float(lp.c @ x)
    log.info("optimal: objective %.12g after %d iterations", objective, iters)
    return LPSolution(OPTIMAL, x, objective, y[:me], y[me:], iters, stats=stats)


def _stats(core, phase1):
    """LPSolution.stats of core, phase1 of whose pivots were phase 1's."""
    return {"phase1_iterations": phase1, "phase2_iterations": core.iterations - phase1,
            "degenerate_pivots": core.degenerate, "full_passes": core.full_passes,
            "refactorizations": core.refactorizations}


def _certificate_failure(lp, x, y_eq, y_ub) -> str | None:
    """The first optimality certificate that x and y fail on lp, or None.

    Primal: equality residual and budget violation at most 1e-8.  Dual:
    inequality duals at most TOL, and every structural reduced cost
    c_j - a_j.y at least -(TOL * scale_j + 1e-12 max|y| sum_i |a_ij|).
    scale_j = |c_j| + |a_j|.|y| is the magnitude of the terms that cancel
    in the reduced cost; the second term allows for roundoff in the duals
    themselves.  Gap: |c.x - b.y| at most 1e-8 (1 + |c.x|).  A NaN fails
    every test it enters.
    """
    eq, ub = constraint_residual(lp, x)
    if not eq <= 1e-8:
        return f"equality residual {eq!r}"
    if not ub <= 1e-8:
        return f"budget row violated by {ub!r}"
    if not np.all(y_ub <= TOL):
        return f"inequality dual of the wrong sign {float(y_ub.max())!r}"
    y_abs = np.abs(np.concatenate([y_eq, y_ub]))
    roundoff = 1e-12 * float(y_abs.max(initial=0.0))
    slack = TOL * np.abs(lp.c)
    # Row by row, so no temporary as large as the constraint matrix.
    for w, row in zip(y_abs, [*lp.a_eq, *lp.a_ub]):
        slack += (TOL * w + roundoff) * np.abs(row)
    reduced = lp.c - y_eq @ lp.a_eq - y_ub @ lp.a_ub
    worst = float((reduced + slack).min(initial=0.0))
    if not worst >= 0.0:
        return f"reduced cost below -TOL*scale by {worst!r}"
    primal = float(lp.c @ x)
    gap = abs(primal - float(lp.b_eq @ y_eq + lp.b_ub @ y_ub))
    if not gap <= 1e-8 * (1.0 + abs(primal)):
        return f"duality gap {gap!r}"
    return None


def _no_solution(lp, status, stats, farkas=None):
    """A result without an optimum: zero weights and duals, objective nan."""
    return LPSolution(status, np.zeros(lp.n_cols), np.nan, np.zeros(lp.b_eq.size),
                      np.zeros(lp.b_ub.size),
                      stats["phase1_iterations"] + stats["phase2_iterations"], farkas,
                      stats)


# ---------------------------------------------------------------------------
# MPS fixed-format export / import.
# Field layout follows the classic fixed columns for the indicator and name
# fields, with a space after each name so a name of any length stays one
# token; numeric fields are written with full precision (17 significant
# digits) so a parse/export cycle reproduces every coefficient exactly.

_MPS_BLOCK = 256  # columns written per block by export_mps
_MPS_ENTRY = "    %-9s %-9s %.17g\n"  # name, row label and value of one entry


def _mps_entries(names, labels, values) -> str:
    """One MPS entry line per (name, label, value), formatted in one call."""
    fields = [None] * (3 * len(values))
    fields[0::3], fields[1::3], fields[2::3] = names, labels, values
    return _MPS_ENTRY * len(values) % tuple(fields)


def export_mps(lp: DiscreteLP) -> str:
    """Serialize the LP to MPS text with ROWS/COLUMNS/RHS/BOUNDS sections.

    The NAME line carries lp.name.  The entries of each block of
    _MPS_BLOCK columns are formatted by one call, so memory beyond the
    text grows with the block, not with the LP.
    """
    cols = lp.column_names()
    out = [f"NAME          {lp.name}\nROWS\n N  COST\n"]
    out += [f" E  {lab}\n" for lab in lp.eq_labels]
    out += [f" L  {lab}\n" for lab in lp.ub_labels]
    out.append("COLUMNS\n")
    rows = ["COST", *lp.eq_labels, *lp.ub_labels]
    for lo in range(0, lp.n_cols, _MPS_BLOCK):
        # Transposed, so nonzero() lists a block's entries column by
        # column: cost first, then the equality and inequality rows.
        blk = np.vstack([lp.c[None, lo:lo + _MPS_BLOCK],
                         lp.a_eq[:, lo:lo + _MPS_BLOCK],
                         lp.a_ub[:, lo:lo + _MPS_BLOCK]]).T
        j, i = np.nonzero(blk)
        out.append(_mps_entries(map(cols.__getitem__, (j + lo).tolist()),
                                map(rows.__getitem__, i.tolist()),
                                blk[j, i].tolist()))
    out.append("RHS\n")
    for labels, b in ((lp.eq_labels, lp.b_eq), (lp.ub_labels, lp.b_ub)):
        nz = np.flatnonzero(b).tolist()
        out.append(_mps_entries(["RHS"] * len(nz), map(labels.__getitem__, nz),
                                b[nz].tolist()))
    out.append("BOUNDS\nENDATA\n")
    return "".join(out)


# Character classes of MPS text, by byte of its Latin-1 encoding with "?"
# for every character beyond Latin-1: 0 whitespace, 1 part of a token, 2
# newline, 3 "*" (a token that starts a comment line).  _WIDE_SPACES maps
# the non-ASCII characters that str.split() splits on to a space first, so
# bytes above 127 are token bytes, and each character is one byte: byte
# offsets are character offsets.
_CLASS = bytes(2 if b == ord("\n") else 3 if b == ord("*")
               else 0 if b < 128 and chr(b).isspace() else 1 for b in range(256))
_WIDE_SPACES = str.maketrans(dict.fromkeys(
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
    "\u200a\u2028\u2029\u202f\u205f\u3000", " "))
_MPS_CHUNK = 1 << 16  # characters of MPS text read in one bulk step


class _MpsReader:
    """MPS text read a chunk of whole lines at a time, in text order.

    Lines mean what they mean to a line-by-line reader.  Blank lines and
    lines starting with "*" are skipped.  A line starting with any other
    non-space character is a section header: its first token names the
    section, and a NAME header's whole field names the LP.  An indented line
    belongs to the open section: in ROWS it holds a row type (E, L or N) and
    a label; in COLUMNS a column name, and in RHS a set name, then (row
    label, value) pairs, an odd last token ignored.  Columns are numbered in
    order of first appearance, the mu0 columns (names starting "W0_") before
    the others, and RHS values are kept by label.  Rows are
    fixed at the first COLUMNS or RHS header: a ROWS line after it, or a
    label declared twice, is a bad line.

    Each chunk is split once, and a table of its lines (class of the first
    character, token count, first token) is built in bulk.  Headers and
    ROWS lines are then read from their tokens one at a time, and all the
    chunk's COLUMNS and RHS pairs are looked up and converted together.
    The first bad line or entry in text order raises ValueError.
    """

    def __init__(self):
        self.section, self.name = None, "SCLP"
        self.eq_labels: list[str] = []
        self.ub_labels: list[str] = []
        self.labels: set[str] = set()  # every label declared in ROWS
        self.row_code: dict[str, int] = {}  # -1 cost, then equality rows, then inequality rows
        self.index: dict[str, int] = {}  # column numbers
        # Nonzeros as compact arrays: column, row code (C ints) and value.
        self.col, self.row, self.val = array("i"), array("i"), array("d")
        self.rhs: dict[str, float] = {}

    def add(self, chunk: str) -> None:
        """Read chunk, the next run of whole lines of the text."""
        spaced = chunk if chunk.isascii() else chunk.translate(_WIDE_SPACES)
        # Newlines around the chunk: line i is chunk[newline[i]:newline[i + 1] - 1].
        cls = np.frombuffer((b"\n" + spaced.encode("latin-1", "replace") + b"\n")
                            .translate(_CLASS), dtype=np.uint8)
        newline = np.flatnonzero(cls == 2)
        head = cls[newline[:-1] + 1]  # the class of each line's first character
        tok = cls & 1
        starts = np.flatnonzero(tok[1:] > tok[:-1])  # the byte before each token
        before = np.searchsorted(starts, newline)  # the tokens before each newline
        first, ntok = before[:-1], np.diff(before)  # each line's first token and token count
        tokens = chunk.split()
        header = head == 1
        # The section of each line: the one open at the chunk's start, then each header's.
        sections = [self.section, *map(tokens.__getitem__, first[header].tolist())]
        self.section = sections[-1]
        # 1 a ROWS line, 2 a COLUMNS line, 3 an RHS line, 0 a line without entries.
        kinds = np.array([{"ROWS": 1, "COLUMNS": 2, "RHS": 3}.get(s, 0) for s in sections])
        kind = kinds[np.cumsum(header)] * ((head == 0) & (ntok > 0))
        error = None
        for i in np.flatnonzero(header | (kind == 1)).tolist():
            parts = tokens[first[i]:first[i] + ntok[i]]
            line = chunk[newline[i]:newline[i + 1] - 1]
            if header[i]:
                if parts[0] == "NAME" and len(parts) > 1:
                    self.name = line[4:].strip()  # the whole field: names may hold spaces
                elif parts[0] in ("COLUMNS", "RHS") and not self.row_code:
                    labels = self.eq_labels + self.ub_labels
                    self.row_code = {lab: k for k, lab in enumerate(labels)} | {"COST": -1}
                continue
            rows = {"E": self.eq_labels, "L": self.ub_labels, "N": []}.get(parts[0])
            if len(parts) < 2:
                error = f"ROWS line {line!r} has no row label"
            elif rows is None:
                error = f"unsupported row type {parts[0]!r}"
            elif self.row_code:
                error = f"ROWS line {line!r} follows a COLUMNS or RHS header"
            elif parts[1] in self.labels:
                error = f"ROWS line {line!r} declares row {parts[1]!r} twice"
            if error:
                kind[i:] = 0  # a bad entry above this line raises first
                break
            rows.append(parts[1])
            self.labels.add(parts[1])
        self._entries(tokens, first, ntok, kind)
        if error:
            raise ValueError(error)

    def _entries(self, tokens, first, ntok, kind):
        """Add the pairs of the lines of kind 2 (COLUMNS) and 3 (RHS)."""
        entry = np.flatnonzero(kind >= 2)
        pairs = (ntok[entry] - 1) // 2
        if 3 * entry.size == len(tokens) and (pairs == 1).all():
            # Every token is on an entry line of one pair.
            names, labels, values = tokens[0::3], tokens[1::3], tokens[2::3]
        else:
            first = first[entry]  # each entry line's name token
            pair_line = np.repeat(np.arange(entry.size), pairs)
            label_at = (first[pair_line] + 1 + 2 * (
                np.arange(pair_line.size) - (np.cumsum(pairs) - pairs)[pair_line]))
            names = list(map(tokens.__getitem__, first.tolist()))
            labels = list(map(tokens.__getitem__, label_at.tolist()))
            values = list(map(tokens.__getitem__, (label_at + 1).tolist()))
        codes = list(map(self.row_code.get, labels))
        if None in codes:
            # A line-by-line reader checks each pair's label, then its value.
            bad = codes.index(None)
            list(map(float, values[:bad]))
            raise ValueError(f"unknown row label {labels[bad]!r}")
        vals = array("d", map(float, values))
        column = kind[entry] == 2
        if not column.all():  # RHS pairs set values by label, the last one winning
            on_column = np.repeat(column, pairs).tolist()
            self.rhs.update((lab, v) for lab, v, c in zip(labels, vals, on_column) if not c)
            names, pairs = list(compress(names, column.tolist())), pairs[column]
            codes, vals = list(compress(codes, on_column)), array("d", compress(vals, on_column))
        index = self.index
        fresh = list(filterfalse(index.__contains__, dict.fromkeys(names)))
        index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
        cols = np.repeat(np.fromiter(map(index.__getitem__, names), np.intc, len(names)),
                         pairs)
        self.col.frombytes(cols.tobytes())
        self.row.extend(codes)
        self.val.extend(vals)

    def lp(self) -> DiscreteLP:
        """The LP of the text read so far."""
        n, me = len(self.index), len(self.eq_labels)
        mu0 = np.fromiter((cn.startswith("W0_") for cn in self.index), bool, n)
        n0 = int(mu0.sum())
        # Number the mu0 columns first, each kind in order of first appearance.
        rank = np.empty(n, dtype=np.intc)
        rank[np.argsort(~mu0, kind="stable")] = np.arange(n, dtype=np.intc)
        col = rank[np.frombuffer(self.col, dtype=np.intc)]
        # Row code + 1 numbers the cost row, the equality rows, then the inequality rows.
        dense = np.zeros((1 + me + len(self.ub_labels), n))
        dense[np.frombuffer(self.row, dtype=np.intc) + 1, col] = np.frombuffer(self.val)
        return DiscreteLP(c=dense[0], a_eq=dense[1:1 + me], a_ub=dense[1 + me:],
                          b_eq=np.array([self.rhs.get(lab, 0.0) for lab in self.eq_labels]),
                          b_ub=np.array([self.rhs.get(lab, 0.0) for lab in self.ub_labels]),
                          n0=n0, n1=n - n0, eq_labels=tuple(self.eq_labels),
                          ub_labels=tuple(self.ub_labels), name=self.name)


def parse_mps(text: str) -> DiscreteLP:
    """Parse MPS text produced by export_mps back into a DiscreteLP.

    The text goes to _MpsReader in chunks of about _MPS_CHUNK characters of
    whole lines, so memory beyond the result grows with the chunk, not with
    the text, and time is linear in the text whatever its section headers.
    Raises ValueError for a ROWS line without a label, after a COLUMNS or
    RHS header or declaring a label twice, an unsupported row type, an
    unknown row label or a value that is not a number.
    """
    reader = _MpsReader()
    pos = 0
    while pos < len(text):
        stop = text.find("\n", pos + _MPS_CHUNK - 1)
        if stop < 0:
            stop = len(text)
        reader.add(text[pos:stop])
        pos = stop + 1
    return reader.lp()
