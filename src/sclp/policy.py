"""Feedback-policy extraction from optimal atom weights.

The optimal weights are disintegrated into state marginals and conditional
control kernels.  extract_strict is a diagnostic: it reports whether every
kernel row is (numerically) a point mass, so that the policy is a strict
state-to-control map.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import Grid, nearest_node

DEGENERACY_TOL = 1e-6  # a kernel row is a point mass when its largest p >= 1 - this
SUPPORT_TOL = 1e-7  # atom weights up to this share of their measure's total are round-off
BOUNDARY_MARGIN = 0.1  # share of the state interval at each end checked for mass


@dataclass(frozen=True)
class MeasurePair:
    """Nonnegative weights on the mu0 and mu1 atoms of a grid."""

    w0: np.ndarray
    w1: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.w0) < -1e-12) or np.any(np.asarray(self.w1) < -1e-12):
            raise ValueError("weights must be nonnegative (below -1e-12)")

    @staticmethod
    def from_solution(grid: Grid, weights) -> "MeasurePair":
        w = np.maximum(np.asarray(weights, dtype=float), 0.0)
        return MeasurePair(w0=w[:grid.n0].copy(), w1=w[grid.n0:].copy())


@dataclass
class Kernel:
    """Conditional control distributions, one row per covered state node.

    rows maps state-node index -> (control values, probabilities); each
    probability vector sums to 1.
    """

    rows: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def prob_max(self, node: int) -> tuple[float, float]:
        """(largest probability, its control value) at a covered node."""
        u, p = self.rows[node]
        k = int(np.argmax(p))
        return float(p[k]), float(u[k])


@dataclass
class FeedbackPolicy:
    """State marginals plus conditional kernels."""

    state_nodes: np.ndarray
    mu0_marginal: np.ndarray  # probability weights per state node
    mu1_marginal: np.ndarray  # finite measure per state node
    eta0: Kernel
    eta1: Kernel

    @property
    def x_lo(self) -> float:
        return float(self.state_nodes[0])

    @property
    def x_hi(self) -> float:
        return float(self.state_nodes[-1])

    def to_text(self) -> str:
        lines = [f"# feedback policy on [{self.x_lo!r}, {self.x_hi!r}]"]
        for i, x in enumerate(self.state_nodes):
            if self.mu0_marginal[i] == 0 and self.mu1_marginal[i] == 0:
                continue
            lines.append(f"node {i} x={float(x)!r} mu0={float(self.mu0_marginal[i])!r} "
                         f"mu1={float(self.mu1_marginal[i])!r}")
            for tag, kern in (("eta0", self.eta0), ("eta1", self.eta1)):
                if i in kern.rows:
                    u, p = kern.rows[i]
                    pairs = " ".join(f"{float(uu)!r}:{float(pp)!r}"
                                     for uu, pp in zip(u, p))
                    lines.append(f"  {tag} {pairs}")
        return "\n".join(lines) + "\n"


def _disintegrate(atoms: np.ndarray, w: np.ndarray, state_nodes: np.ndarray):
    """Split atom weights into a state marginal and per-node control kernels.

    Weights of at most SUPPORT_TOL times the measure's total are simplex
    round-off: they count as zero, so they make no marginal mass and no
    kernel row.
    """
    marginal = np.zeros(state_nodes.size)
    kernel = Kernel()
    if atoms.shape[0] == 0:
        return marginal, kernel
    w = np.where(w > SUPPORT_TOL * w.sum(), w, 0.0)
    node_of = nearest_node(state_nodes, atoms[:, 0])
    np.add.at(marginal, node_of, w)
    for i in np.flatnonzero(marginal > 0):
        sel = (node_of == i) & (w > 0)
        u = atoms[sel, 1]
        p = w[sel] / marginal[i]
        order = np.argsort(u)
        kernel.rows[int(i)] = (u[order], p[order])
    return marginal, kernel


def marginals_and_kernels(grid: Grid, measures: MeasurePair) -> FeedbackPolicy:
    """Disintegrate (w0, w1) into marginals and kernels over the state nodes.

    An all-zero w1 is legal (no singular action); an all-zero w0 violates
    the probability-mass requirement and is an error.
    """
    if not np.any(measures.w0 > 0):
        raise ValueError("mu0 weights are all zero; a probability measure is required")
    mu0_marginal, eta0 = _disintegrate(grid.mu0_atoms, measures.w0, grid.state_nodes)
    mu1_marginal, eta1 = _disintegrate(grid.mu1_atoms, measures.w1, grid.state_nodes)
    return FeedbackPolicy(state_nodes=grid.state_nodes.copy(),
                          mu0_marginal=mu0_marginal, mu1_marginal=mu1_marginal,
                          eta0=eta0, eta1=eta1)


def extract_strict(policy: FeedbackPolicy) -> tuple[dict[int, float] | None, list[int]]:
    """Collapse point-mass kernels to a strict map.

    Returns (strict map, non-degenerate node list).  The map is None when
    any covered node fails the point-mass test; controls are never averaged
    (a barycenter need not be optimal without the convexity condition).
    """
    strict: dict[int, float] = {}
    bad: list[int] = []
    nodes = sorted(set(policy.eta0.rows) | set(policy.eta1.rows))
    # Point-mass agreement scale for comparing the two kernels' argmax controls.
    u_scale = 0.0
    for kern in (policy.eta0, policy.eta1):
        for u, _ in kern.rows.values():
            if u.size:
                u_scale = max(u_scale, float(np.abs(u).max()))
    u_tol = 1e-9 * (1.0 + u_scale)
    for i in nodes:
        picks = []
        ok = True
        for kern in (policy.eta0, policy.eta1):
            if i in kern.rows:
                pmax, ustar = kern.prob_max(i)
                if pmax < 1.0 - DEGENERACY_TOL:
                    ok = False
                picks.append(ustar)
        if ok and len(picks) == 2 and abs(picks[0] - picks[1]) > u_tol:
            ok = False
        if ok:
            strict[i] = picks[0]
        else:
            bad.append(i)
    return (strict if not bad else None), bad


def boundary_mass_diagnostic(policy: FeedbackPolicy) -> float:
    """Mass (mu0 plus normalized mu1) within BOUNDARY_MARGIN of either boundary.

    Monitors the state-space truncation: large values mean the interval was
    chosen too narrow.
    """
    margin = BOUNDARY_MARGIN * (policy.x_hi - policy.x_lo)
    near = ((policy.state_nodes <= policy.x_lo + margin)
            | (policy.state_nodes >= policy.x_hi - margin))
    total0 = float(policy.mu0_marginal.sum())
    mass = float(policy.mu0_marginal[near].sum()) / total0 if total0 > 0 else 0.0
    total1 = float(policy.mu1_marginal.sum())
    if total1 > 0:
        mass += float(policy.mu1_marginal[near].sum()) / total1
    return mass
