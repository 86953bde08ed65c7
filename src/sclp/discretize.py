"""Finite LP assembly from a problem, an atom grid and a test-function family.

The infinite-dimensional measure LP is imaged onto atom weights: one column
per mu0 atom and per mu1 atom, one adjoint equality row per test function,
a probability-mass row where required, and one inequality row per budget.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import BasisFamily
from .model import DISCOUNTED, JUMP, ProblemSpec, eval2, jump_targets

log = logging.getLogger(__name__)

NORMALIZED = "normalized"
RESCALED = "rescaled"


class GridError(ValueError):
    """Grid construction failed (e.g. a state node with no admissible control)."""


@dataclass(frozen=True)
class Grid:
    """Atom sets for the two occupation measures plus the distinct state nodes.

    No two mu0 atoms at a state node give equal LP columns (see build_grid).
    """

    mu0_atoms: np.ndarray  # (n0, 2) columns (x, u)
    mu1_atoms: np.ndarray  # (n1, 2)
    state_nodes: np.ndarray  # sorted distinct x values

    @property
    def n0(self) -> int:
        return self.mu0_atoms.shape[0]

    @property
    def n1(self) -> int:
        return self.mu1_atoms.shape[0]


def node_cuts(nodes) -> np.ndarray:
    """cuts[i]: the largest float at or below (nodes[i] + nodes[i + 1]) / 2, exactly.

    So x goes to node i + 1 exactly when x > cuts[i]: the nearest node in
    exact arithmetic, ties to the left.  TwoSum (Knuth, TAOCP 2, 4.2.2)
    gives the error e of s = fl(a + b); the cut is m = fl(s / 2), or the
    float below m where e < 0 or the halving rounded up.  The nodes must be
    finite and strictly increasing, with finite neighbour sums (else
    ValueError).
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("nodes must be finite and strictly increasing")
    a, b = nodes[:-1], nodes[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + b
    if not (np.isfinite(nodes).all() and np.isfinite(s).all()) or (b <= a).any():
        raise ValueError("nodes must be finite and strictly increasing, "
                         "with finite neighbour sums")
    t = s - a
    e = (a - (s - t)) + (b - t)
    m = 0.5 * s
    return np.where((e < 0) | (m + m > s), np.nextafter(m, -np.inf), m)


def nearest_node(nodes: np.ndarray, x) -> np.ndarray:
    """Index of the sorted node nearest to each x; a tie goes to the left node.

    Exact, not rounded, distances decide: the number of node_cuts below x.
    """
    return np.searchsorted(node_cuts(nodes), x)


def _first_copies(rows) -> np.ndarray:
    """The lowest index of each group of equal columns, increasing.

    rows is a list of equal-length value rows; column j holds the j-th entry
    of each.  Columns are equal when they agree entry by entry: 0.0 and -0.0
    agree, one ulp does not, and NaN matches nothing.  A lexicographic sort
    of the column indices by the rows puts equal columns next to each other,
    and neighbours are then compared row by row.
    """
    order = np.lexsort(rows)
    starts = np.zeros(order.size, dtype=bool)  # sorted position opens a group
    starts[:1] = True
    for row in rows:
        sorted_row = row[order]
        starts[1:] |= sorted_row[1:] != sorted_row[:-1]
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(starts)))


def build_grid(problem: ProblemSpec, n_state: int, n_control: int) -> Grid:
    """Uniform product grid of admissible atoms, without equal mu0 columns.

    mu1 holds every admissible atom; jump problems keep only those whose
    jump target lies in the state interval and differs from x (a zero-size
    jump has Bf = 0 and costs c1, h >= 0, so it never lowers the optimum).
    A mu0 column reads only x, drift, diffusion, c0 and the budget densities
    g at its atom, so of each group of admissible atoms on which these
    values are exactly equal, mu0 keeps the lowest-control one.
    """
    if n_state < 3:
        raise GridError("n_state must be at least 3")
    if n_control < 1:
        raise GridError("n_control must be at least 1")
    st, ct = problem.state, problem.control
    state_nodes = np.linspace(st.x_lo, st.x_hi, n_state)
    if n_control == 1:
        control_nodes = np.array([0.5 * (ct.u_lo + ct.u_hi)])
    else:
        control_nodes = np.linspace(ct.u_lo, ct.u_hi, n_control)

    xx, uu = np.meshgrid(state_nodes, control_nodes, indexing="ij")
    admissible = ct.admits(xx, uu)
    for i, x in enumerate(state_nodes):
        if not admissible[i].any():
            raise GridError(f"no admissible control at state node x={x!r}")
    x, u = xx[admissible], uu[admissible]
    atoms = np.column_stack([x, u])

    reads = [problem.gen_a.drift, problem.gen_a.diffusion, problem.costs.c0,
             *(bud.g for bud in problem.costs.budgets)]
    first = _first_copies([x, *(eval2(fn, x, u) for fn in reads)])
    log.info("kept %d of %d mu0 atoms", first.size, x.size)

    mu1_atoms = atoms
    if problem.gen_b.kind == JUMP:
        target = jump_targets(problem.gen_b, x, u)
        mu1_atoms = atoms[st.contains(target) & (target != x)]
    return Grid(mu0_atoms=atoms[first], mu1_atoms=mu1_atoms, state_nodes=state_nodes)


@dataclass(frozen=True)
class DiscreteLP:
    """min c.w  s.t.  A_eq w = b_eq,  A_ub w <= b_ub,  w >= 0.

    Columns are the mu0 atom weights followed by the mu1 atom weights.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    n0: int
    n1: int
    eq_labels: tuple[str, ...]
    ub_labels: tuple[str, ...]
    name: str = "lp"

    @property
    def n_cols(self) -> int:
        return self.c.size

    def column_names(self) -> list[str]:
        return ([f"W0_{j:06d}" for j in range(self.n0)]
                + [f"W1_{j:06d}" for j in range(self.n1)])


def _at_states(basis: BasisFamily, x: np.ndarray, orders):
    """Basis rows at the distinct values of x, and each x's index among them.

    Test functions depend on the state only, so each distinct x (a state
    node, for the atoms) is evaluated once.
    """
    ux, inv = np.unique(x, return_inverse=True)
    return basis.evaluate(ux, orders), inv


def _adjoint_rows(problem: ProblemSpec, grid: Grid, basis: BasisFamily) -> np.ndarray:
    """(len(basis), n0 + n1) adjoint coefficients: Af on mu0 atoms, Bf on mu1 atoms.

    Bit for bit what A f and B f give member by member
    (tests/generator_reference.py), with the same DomainError checks on
    atoms and jump targets.  Rows are filled one at a time so that no
    temporary is larger than a row.
    """
    if len(basis) < 2:
        raise ValueError("basis must contain at least 2 elements")
    st = problem.state
    x0, u0 = grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1]
    x1, u1 = grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1]
    st.require(x0)
    rows = np.empty((len(basis), grid.n0 + grid.n1))
    a, b = rows[:, :grid.n0], rows[:, grid.n0:]
    # Af = sigma^2 / 2 * f'' + drift * f'
    sig = eval2(problem.gen_a.diffusion, x0, u0)
    half_var = 0.5 * sig * sig
    drift = eval2(problem.gen_a.drift, x0, u0)
    (d1, d2), i0 = _at_states(basis, x0, (1, 2))
    for k in range(len(basis)):
        a[k] = half_var * d2[k, i0] + drift * d1[k, i0]
    if grid.n1:
        st.require(x1)
        if problem.gen_b.kind == JUMP:
            # Bf = f(x + displacement) - f(x)
            target = jump_targets(problem.gen_b, x1, u1, state=st)
            (vt,), it = _at_states(basis, target, (0,))
            (vx,), ix = _at_states(basis, x1, (0,))
            for k in range(len(basis)):
                b[k] = vt[k, it] - vx[k, ix]
        else:
            # Bf = direction * f'
            direction = eval2(problem.gen_b.direction, x1, u1)
            (d1,), i1 = _at_states(basis, x1, (1,))
            for k in range(len(basis)):
                b[k] = direction * d1[k, i1]
    return rows


def _budget_rows(problem: ProblemSpec, grid: Grid, rhs_scale: float):
    rows, rhs, labels = [], [], []
    x0, u0 = grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1]
    for i, bud in enumerate(problem.costs.budgets):
        gv = eval2(bud.g, x0, u0)
        if grid.n1:
            hv = eval2(bud.h, grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1])
        else:
            hv = np.zeros(0)
        rows.append(np.concatenate([gv, hv]))
        rhs.append(rhs_scale * bud.cap)
        labels.append(f"BUD{i:04d}")
    return rows, rhs, labels


def _assemble(problem: ProblemSpec, grid: Grid, adj: np.ndarray, adj_rhs: np.ndarray,
              mass_row: bool, obj_scale: float, budget_scale: float,
              name: str) -> DiscreteLP:
    n = grid.n0 + grid.n1
    # The f = 1 row (and any spline not touching an atom) is all-zero.
    keep = adj.any(axis=1) | (adj_rhs != 0.0)
    n_adj = int(keep.sum())
    if n_adj < keep.size:
        log.info("%s: dropped %d all-zero adjoint rows", name, keep.size - n_adj)
    if n_adj + mass_row <= keep.size:
        # Compact the kept rows in place; the mass row takes a dropped row's slot.
        for k, i in enumerate(np.flatnonzero(keep)):
            if k != i:
                adj[k] = adj[i]
        a_eq = adj[:n_adj + mass_row]
    else:
        a_eq = np.concatenate([adj, np.empty((1, n))])
    b_eq = adj_rhs[keep]
    eq_labels = [f"ADJ{k:04d}" for k in np.flatnonzero(keep)]
    if mass_row:
        a_eq[-1, :grid.n0] = 1.0
        a_eq[-1, grid.n0:] = 0.0
        b_eq = np.append(b_eq, 1.0)
        eq_labels.append("MASS")

    ub_rows, ub_rhs, ub_labels = _budget_rows(problem, grid, budget_scale)

    x0, u0 = grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1]
    c0v = eval2(problem.costs.c0, x0, u0)
    if grid.n1:
        c1v = eval2(problem.costs.c1, grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1])
    else:
        c1v = np.zeros(0)
    c = obj_scale * np.concatenate([c0v, c1v])

    return DiscreteLP(
        c=c,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ub=np.array(ub_rows) if ub_rows else np.zeros((0, n)),
        b_ub=np.array(ub_rhs),
        n0=grid.n0, n1=grid.n1,
        eq_labels=tuple(eq_labels), ub_labels=tuple(ub_labels),
        name=name,
    )


def assemble_lta_lp(problem: ProblemSpec, grid: Grid, basis: BasisFamily) -> DiscreteLP:
    """Long-term average LP: adjoint rows, mass row, budget rows, running objective."""
    return _assemble(problem, grid, _adjoint_rows(problem, grid, basis),
                     np.zeros(len(basis)), mass_row=True,
                     obj_scale=1.0, budget_scale=1.0,
                     name=f"{problem.name}:lta")


def _nu0_weights(problem: ProblemSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Match nu0 support points to state nodes; error on support off the nodes.

    Its mass is 1 within 1e-12: Criterion checks that on construction.
    """
    pts = np.array([x for x, _ in problem.criterion.nu0])
    probs = np.array([p for _, p in problem.criterion.nu0])
    nodes = grid.state_nodes
    pick = nearest_node(nodes, pts)
    if np.any(np.abs(nodes[pick] - pts) > 1e-9):
        raise ValueError("nu0 has support off the state nodes")
    return nodes[pick], probs


def assemble_discounted_lp(problem: ProblemSpec, grid: Grid, basis: BasisFamily,
                           form: str = NORMALIZED) -> DiscreteLP:
    """Discounted LP in normalized or rescaled form.

    normalized: adjoint rows use Af + alpha*(nu0-average of f - f); the mass
    row forces total mu0 weight 1; the objective carries the 1/alpha factor
    and budget rows the alpha factor.

    rescaled: adjoint rows use Af - alpha*f with right-hand side equal to
    minus the nu0-average of f; there is no explicit mass row (the constant
    test-function row forces total mu0 weight 1/alpha); objective and budget
    rows are unscaled.
    """
    if problem.criterion.kind != DISCOUNTED:
        raise ValueError("assemble_discounted_lp requires a discounted criterion")
    if form not in (NORMALIZED, RESCALED):
        raise ValueError(f"unknown discounted form: {form!r}")
    alpha = problem.criterion.alpha
    nu_x, nu_p = _nu0_weights(problem, grid)
    adj = _adjoint_rows(problem, grid, basis)
    fbar = np.array([np.dot(v, nu_p) for v in basis.evaluate(nu_x, (0,))[0]])
    (f,), i0 = _at_states(basis, grid.mu0_atoms[:, 0], (0,))
    a = adj[:, :grid.n0]
    if form == NORMALIZED:
        # Af + alpha * (fbar - f); right-hand side 0.
        for k in range(len(basis)):
            a[k] += alpha * (fbar[k] - f[k, i0])
        return _assemble(problem, grid, adj, np.zeros(len(basis)), mass_row=True,
                         obj_scale=1.0 / alpha, budget_scale=alpha,
                         name=f"{problem.name}:disc-normalized")
    # Af - alpha * f; right-hand side -fbar.
    for k in range(len(basis)):
        a[k] -= alpha * f[k, i0]
    return _assemble(problem, grid, adj, -fbar, mass_row=False,
                     obj_scale=1.0, budget_scale=1.0,
                     name=f"{problem.name}:disc-rescaled")


def constraint_residual(lp: DiscreteLP, weights) -> tuple[float, float]:
    """Infinity norms of the equality residual and of positive budget violations.

    weights is a flat vector over all columns.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != lp.n_cols:
        raise ValueError(f"weight vector has {w.size} entries, LP has {lp.n_cols} columns")
    eq = float(np.abs(lp.a_eq @ w - lp.b_eq).max()) if lp.b_eq.size else 0.0
    if lp.b_ub.size:
        viol = np.maximum(lp.a_ub @ w - lp.b_ub, 0.0)
        ub = float(viol.max())
    else:
        ub = 0.0
    return eq, ub
