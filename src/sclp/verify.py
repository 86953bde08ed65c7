"""Monte Carlo verification of extracted policies.

simulate() runs the controlled diffusion in closed loop under an extracted
policy.  _ClosedLoop(problem, policy) decides once what the policy does: the
node cuts and the mu0 mode; the eta0 table, in which a node without an eta0
row reads the row of its nearest covered node (a bridged step); the eta1
table and the mu1 support clusters; the start states (nu0 draws when
discounted, else the mode); and one singular action, or none.  Jump problems
jump when a path crosses down to a cluster's top node (band behaviour);
gradient problems reflect at the two barriers around the mode.  Each step is
one Euler step under a control drawn from eta0, then that action.  The
run's ledger, _Ledger(problem, cfg, basis, start states, nodes), decides
the criterion's time weights once: its step count, its burn-in step, and
the discount weights of each step's running charges and singular action.
It holds the per-path cost, budget and martingale sums, and charges each
event in one call (step, jump, push, finish).  Budgets hold in mean, as the
LP's budget rows do: singular action never stops on a path.  simulate()
reports cost and budget estimates with confidence intervals, martingale
residuals for the supplied test functions, and (long-term average) a
stationarity distance.  For a fixed seed the random draws come in a fixed
order: the nu0 draw of the start states (discounted), then per step one
eta0 uniform per path (only when some eta0 row holds more than one
control), the normals, and the action's uniforms.  A jump draws one per
acting path, cluster by cluster; reflection draws one set over both
barriers, one per acting path, the lower barrier's paths first.

band_policy_oracle() is an independent renewal-reward estimator for
inventory-shaped problems under an (s, S) ordering band; band_search()
brute-forces the best band.  Both run one Euler/bridge step loop,
_band_cycles(), over groups: an order-up-to level S with its reorder
levels.  A cycle's path from S does not depend on s, which only decides
when the cycle stops, so a group runs its cycles from S down to its lowest
s and every band (s, S) reads its estimate off them.  At most _POOL_CYCLES
cycles are live at once.  Each group draws from its own generator, so its
estimates do not depend on which groups share the loop, and a one-level
group is band_policy_oracle's run.  band_search groups its pairs by S: the
bands of one S share their paths.

exact_band_cost() gives the same bands' long-run average costs without
Monte Carlo, from the renewal-reward ODE solved on one mesh
(_RenewalMesh), with a quadrature error estimate; exact_optimal_band()
finds the cheapest band on that mesh's nodes.  The report uses the latter.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import PathSums
from .discretize import nearest_node, node_cuts
from .model import DISCOUNTED, JUMP, ProblemSpec, eval2, jump_targets
from .policy import FeedbackPolicy, Kernel

DISCOUNT_CUTOFF = 1e-8


class SimulationError(RuntimeError):
    """A simulation run failed (e.g. excessive state-interval truncation)."""


class OracleNotApplicable(ValueError):
    """The problem lacks the inventory shape the band oracle requires."""


@dataclass(frozen=True)
class SimConfig:
    """Euler step, path count and seed of a simulation.

    horizon and burn_in apply to long-term-average simulate runs only, and
    are checked only when a horizon is given: a discounted run stops at
    DISCOUNT_CUTOFF, and the band oracle runs n_paths regenerative cycles.
    The burn-in must leave a whole step of dt before the horizon, by the
    rounding simulate counts steps with (_window_steps).
    """
    dt: float
    horizon: float | None
    n_paths: int
    seed: int
    burn_in: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.horizon is not None and not self.dt <= self.horizon / 100.0 < math.inf:
            raise ValueError("horizon must be finite, and dt at most horizon/100")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.horizon is not None:
            if not 0.0 <= self.burn_in < self.horizon:
                raise ValueError("burn_in must lie in [0, horizon)")
            _window_steps(self.horizon, self.burn_in, self.dt)


def _window_steps(horizon: float, burn_in: float, dt: float) -> tuple[int, int]:
    """The steps of dt in horizon and in burn_in, each rounded to the nearest.

    Raises ValueError unless at least one step is left after the burn-in.
    """
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError(f"dt {dt!r} leaves no step in a horizon of {horizon!r}")
    burn_steps = int(round(burn_in / dt))
    if burn_steps >= n_steps:
        raise ValueError(f"burn_in {burn_in!r} leaves no step of dt {dt!r} "
                         f"before the horizon {horizon!r}")
    return n_steps, burn_steps


@dataclass(frozen=True)
class BandPolicy:
    """(s, S) ordering band: order up to S whenever the state hits s."""

    s: float
    big_s: float

    def __post_init__(self):
        if not self.s < self.big_s:
            raise ValueError("band requires s < S")


@dataclass
class Estimate:
    name: str
    value: float
    half_width: float
    n: int


@dataclass
class VerificationReport:
    cost: Estimate
    budgets: list[Estimate]
    martingale_residuals: list[Estimate]  # (name, mean, 1.96 * stderr)
    stationarity_distance: float | None
    truncation_events: int
    total_steps: int
    bridged_steps: int
    multi_cluster_support: bool
    budget_exhausted_paths: int
    n_paths: int

    def all_estimates(self) -> list[Estimate]:
        return [self.cost] + self.budgets + self.martingale_residuals

    def to_csv(self) -> str:
        lines = ["name,estimate,half_width,n"]
        for e in self.all_estimates():
            lines.append(f"{e.name},{e.value!r},{e.half_width!r},{e.n}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = []
        for e in self.all_estimates():
            lines.append(f"{e.name}: {e.value!r} +/- {e.half_width!r} (n={e.n})")
        if self.stationarity_distance is not None:
            lines.append(f"stationarity_tv: {self.stationarity_distance!r}")
        lines.append(f"truncation_events: {self.truncation_events} of {self.total_steps} steps")
        lines.append(f"bridged_steps: {self.bridged_steps}")
        lines.append(f"multi_cluster_support: {self.multi_cluster_support}")
        lines.append(f"budget_exhausted_paths: {self.budget_exhausted_paths}")
        return "\n".join(lines) + "\n"


def _half_width(samples: np.ndarray) -> float:
    n = samples.size
    if n < 2:
        return float("nan")
    return 1.96 * float(samples.std(ddof=1)) / math.sqrt(n)


class _KernelSampler:
    """Dense cdf tables for vectorized per-node categorical sampling."""

    def __init__(self, kernel, n_nodes):
        kmax = max((u.size for u, _ in kernel.rows.values()), default=1)
        self.uval = np.zeros((n_nodes, kmax))
        self.cdf = np.ones((n_nodes, kmax))
        for i, (u, p) in kernel.rows.items():
            self.uval[i, :u.size] = u
            self.uval[i, u.size:] = u[-1]
            self.cdf[i, :p.size] = np.cumsum(p)
            self.cdf[i, p.size:] = 1.0

    def sample(self, node_idx: np.ndarray, r: np.ndarray | None) -> np.ndarray:
        """Controls at node_idx for the uniforms r (None when no row has two)."""
        if self.uval.shape[1] == 1:
            return self.uval[node_idx, 0]
        return self._sample_cdf(node_idx, r)

    def _sample_cdf(self, node_idx: np.ndarray, r: np.ndarray) -> np.ndarray:
        choice = (r[:, None] > self.cdf[node_idx]).sum(axis=1)
        choice = np.minimum(choice, self.uval.shape[1] - 1)
        return self.uval[node_idx, choice]


def _cluster_node(cuts: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """nearest_node(nodes[lo:hi + 1], x) + lo, from cuts = node_cuts(nodes).

    The slice's cuts are cuts[lo:hi]; a one-node slice has none.
    """
    return cuts[lo:hi].searchsorted(x) + lo


class _Ledger:
    """The per-path sums of one simulate run, and the time weights they take.

    The constructor decides the run once: its step count (the discount
    cutoff's horizon, or cfg.horizon), its burn-in step (0 when
    discounted), and what the estimates divide by: the window's whole
    steps times dt, or 1 for discounted totals.  Step k's running charges
    take the weight exp(-alpha k dt) and count only from the burn-in step
    on; its singular action takes exp(-alpha (k dt + dt)) from then on,
    and 0.0 before (alpha = 0 for a long-term average).  Each event is one
    call: step charges c0 dt, g dt and (Af) dt and counts the node visits;
    jump and push charge c1, h and Bf at the action weight that step set;
    finish adds f(X_T).  Budgets are held to their caps only in mean, never
    per path.  With a basis, the martingale residuals
    f(X_T) - f(X_0) - sum of (Af) dt - sum of Bf are summed per test
    function (PathSums: each term goes to the 4 splines nonzero at its
    point).
    """

    def __init__(self, problem: ProblemSpec, cfg: SimConfig, basis,
                 x0: np.ndarray, nodes: np.ndarray):
        self.lta = problem.criterion.kind != DISCOUNTED
        self.costs = problem.costs
        self.direction = problem.gen_b.direction
        dt = self.dt = cfg.dt
        if self.lta:
            if cfg.horizon is None:
                raise ValueError("a long-term-average simulation needs a horizon")
            self.alpha, horizon, burn_in = 0.0, cfg.horizon, cfg.burn_in
        else:
            self.alpha = problem.criterion.alpha
            horizon, burn_in = math.log(1.0 / DISCOUNT_CUTOFF) / self.alpha, 0.0
        self.n_steps, self.burn_steps = _window_steps(horizon, burn_in, dt)
        # Long-run averages divide by the window's length.  Discounted totals
        # add the discount truncation's tail bound to their half-width.
        self.denom, self.tail = (self.n_steps - self.burn_steps) * dt, 0.0
        if not self.lta:
            xx, uu = np.meshgrid(nodes, np.array([problem.control.u_lo,
                                                  problem.control.u_hi]), indexing="ij")
            c0max = float(eval2(self.costs.c0, xx, uu).max())
            self.denom, self.tail = 1.0, c0max * DISCOUNT_CUTOFF / self.alpha
        n_paths = x0.size
        self.run_cost = np.zeros(n_paths)
        self.sing_cost = np.zeros(n_paths)
        self.bud_acc = np.zeros((len(self.costs.budgets), n_paths))
        # Visits per node before burn-in (row 0) and in the window (row 1).
        self.n_nodes = nodes.size
        self.visits = np.zeros((2, self.n_nodes), dtype=np.int64)
        self.action_weight = 0.0
        self.basis = basis
        self.mart = None
        if basis is not None:
            self.mart = PathSums(basis, n_paths)
            self.mart.add(x0, {0: -1.0})

    def step(self, k, x, u, node_idx, drift, sig):
        """Charge step k from x under control u, and set its action weight.

        Counts the node visits, charges c0 dt and g dt (from the burn-in
        step on) and takes (Af) dt = (f' drift + f'' sig^2 / 2) dt off
        every residual.
        """
        counted = k >= self.burn_steps
        self.visits[int(counted)] += np.bincount(node_idx, minlength=self.n_nodes)
        dt, t = self.dt, k * self.dt
        if counted:
            w = math.exp(-self.alpha * t)
            self.run_cost += w * eval2(self.costs.c0, x, u) * dt
            for i, bud in enumerate(self.costs.budgets):
                self.bud_acc[i] += w * eval2(bud.g, x, u) * dt
            self.action_weight = math.exp(-self.alpha * (t + dt))
        else:
            self.action_weight = 0.0
        if self.mart is not None:
            self.mart.add(x, {1: drift * -dt, 2: sig * sig * (-0.5 * dt)})

    def _charge(self, sub, xs, u, size):
        """c1 size and h size of singular actions on the paths sub."""
        wc = self.action_weight
        self.sing_cost[sub] += wc * eval2(self.costs.c1, xs, u) * size
        for i, bud in enumerate(self.costs.budgets):
            self.bud_acc[i][sub] += wc * (eval2(bud.h, xs, u) * size)

    def jump(self, sub, xs, u, target):
        """Charge the jumps of the paths sub from xs to target under u.

        Takes Bf = f(target) - f(xs) off the residuals, the points in time
        order: the path leaves xs, then lands on target.
        """
        self._charge(sub, xs, u, 1.0)
        if self.mart is not None:
            self.mart.add(np.concatenate([xs, target]),
                          {0: np.repeat([1.0, -1.0], sub.size)}, np.tile(sub, 2))

    def push(self, sub, xs, edge, u, dxi):
        """Charge the pushes of size dxi of the paths sub from xs back to edge.

        Takes Bf = f'(xm) gamma(xm, u) dxi off the residuals, at the
        midpoint xm of xs and edge.
        """
        self._charge(sub, xs, u, dxi)
        if self.mart is not None:
            xm = 0.5 * (xs + edge)
            self.mart.add(xm, {1: -eval2(self.direction, xm, u) * dxi}, sub)

    def finish(self, x):
        """Add f(X_T) to the residuals."""
        if self.mart is not None:
            self.mart.add(x, {0: 1.0})

    def estimates(self, mu0: np.ndarray, covered: np.ndarray) -> dict:
        """The report's estimates and diagnostics of the run.

        Costs and budgets are discounted totals, or averages over the
        window's whole steps.  budget_exhausted_paths counts the paths
        whose own budget sample passed a cap; the caps bind only the
        means, so this is a diagnostic.  The stationarity distance, for a
        long-term average only, is the total variation between the
        window's node visits and the mu0 marginal.  bridged_steps counts
        the visits to nodes that are not covered.
        """
        n_paths = self.run_cost.size
        budgets = self.costs.budgets
        cost_paths = (self.run_cost + self.sing_cost) / self.denom
        name = "lta_cost" if self.lta else "discounted_cost"
        cost = Estimate(name, float(cost_paths.mean()),
                        _half_width(cost_paths) + self.tail, n_paths)
        samples = self.bud_acc / self.denom
        budget_estimates = [
            Estimate(f"budget_{b.name}", float(self.bud_acc[i].mean() / self.denom),
                     _half_width(samples[i]), n_paths) for i, b in enumerate(budgets)]
        caps = np.array([b.cap for b in budgets])[:, None]
        stat_tv = None
        if self.lta:
            hist = self.visits[1]
            stat_tv = 0.5 * float(np.abs(hist / hist.sum() - mu0 / mu0.sum()).sum())
        residuals = [] if self.mart is None else [
            Estimate(f"mart[{name}]", float(row.mean()), _half_width(row), n_paths)
            for name, row in zip(self.basis.names, self.mart.rows())]
        return dict(cost=cost, budgets=budget_estimates, martingale_residuals=residuals,
                    stationarity_distance=stat_tv,
                    bridged_steps=int(self.visits.sum(axis=0)[~covered].sum()),
                    budget_exhausted_paths=int((samples > caps).any(axis=0).sum()))


def _gradient_barriers(problem: ProblemSpec, policy: FeedbackPolicy, clusters, mode: float):
    """(edge value, outer node, side) of the two barriers around the mu0 mode.

    side -1 pushes down from the top, +1 pushes up from the bottom, as the
    direction of the outer node's most likely control says.  The edge sits
    at the mu1-weighted mean of the cluster's nodes: the LP spreads the
    push over the nodes that bracket that point.  At the outer node, Euler
    overshoot would carry paths past the end of the support.  Only the
    highest up-pushing edge at or below the mode and the lowest
    down-pushing edge at or above it reflect: paths between them never
    reach the clusters beyond.
    """
    nodes, eta1, mu1 = policy.state_nodes, policy.eta1, policy.mu1_marginal
    direction = problem.gen_b.direction
    barriers = []
    for lo, hi in clusters:
        w = mu1[lo:hi + 1]
        edge = float(np.dot(w, nodes[lo:hi + 1]) / w.sum())
        if float(eval2(direction, nodes[hi], eta1.prob_max(hi)[1])) < 0:
            barriers.append((edge, hi, -1))
        elif float(eval2(direction, nodes[lo], eta1.prob_max(lo)[1])) > 0:
            barriers.append((edge, lo, +1))
    up = [b for b in barriers if b[2] > 0 and b[0] <= mode]
    down = [b for b in barriers if b[2] < 0 and b[0] >= mode]
    return up[-1:] + down[:1]


class _ClosedLoop:
    """The extracted policy as simulate runs it, decided once.

    cuts = node_cuts(state nodes); mode is the node of largest mu0 mass.
    eta0 samples the absolutely continuous control: a node that is not
    covered (has no eta0 row) reads the row of the covered node nearest in
    state, ties to the left, and a step from it is a bridged step.  eta1 samples
    the singular control; clusters are the runs of adjacent nodes with an
    eta1 row.  act(acc, rng, x, x_new) is the singular action, charged to
    the ledger acc, or None when the policy has none: jump problems jump
    at the clusters' top nodes (triggers), gradient problems reflect at
    the two barriers around the mode.
    """

    def __init__(self, problem: ProblemSpec, policy: FeedbackPolicy):
        nodes = policy.state_nodes
        self.problem = problem
        self.cuts = node_cuts(nodes)
        self.mode = float(nodes[int(np.argmax(policy.mu0_marginal))])
        self.covered = np.zeros(nodes.size, dtype=bool)
        self.covered[list(policy.eta0.rows)] = True
        owners = np.flatnonzero(self.covered)
        if not owners.size:
            raise ValueError("kernel covers no state node")
        bridge = owners[nearest_node(nodes[owners], nodes)].tolist()
        bridged = Kernel({i: policy.eta0.rows[j] for i, j in enumerate(bridge)})
        self.eta0 = _KernelSampler(bridged, nodes.size)
        self.eta1 = _KernelSampler(policy.eta1, nodes.size)
        self.clusters: list[tuple[int, int]] = []
        for i in sorted(policy.eta1.rows):
            if self.clusters and i == self.clusters[-1][1] + 1:
                self.clusters[-1] = (self.clusters[-1][0], i)
            else:
                self.clusters.append((i, i))
        if problem.gen_b.kind == JUMP:
            self.triggers = [(float(nodes[hi]), lo, hi) for lo, hi in self.clusters]
            self.act = self._jump if self.triggers else None
        else:
            barriers = _gradient_barriers(problem, policy, self.clusters, self.mode)
            self.barriers = tuple(np.array(column) for column in zip(*barriers))
            self.act = self._reflect if barriers else None

    def start(self, rng, n_paths: int) -> np.ndarray:
        """Start states: nu0 draws (discounted), else every path at the mode."""
        criterion = self.problem.criterion
        if criterion.kind != DISCOUNTED:
            return np.full(n_paths, self.mode)
        pts, probs = (np.array(column) for column in zip(*criterion.nu0))
        return rng.choice(pts, size=n_paths, p=probs / probs.sum())

    def _jump(self, acc, rng, x, x_new):
        """Jump the paths that crossed down to a cluster's top node this step.

        A path crosses the trigger level when it steps from above it to at
        or below it; on the first step x is math.inf, so every path at or
        below it acts.  Its jump is drawn from eta1 at its nearest node of
        the cluster.
        """
        for trig, lo, hi in self.triggers:
            sub = ((x_new <= trig) & (x > trig)).nonzero()[0]
            if not sub.size:
                continue
            xs = x_new[sub]
            u = self.eta1.sample(_cluster_node(self.cuts, xs, lo, hi), rng.random(sub.size))
            target = jump_targets(self.problem.gen_b, xs, u)
            acc.jump(sub, xs, u, target)
            x_new[sub] = target

    def _reflect(self, acc, rng, x, x_new):
        """Reflect the paths that stepped past a barrier's edge, in one pass.

        barriers holds the arrays (edge, outer node, side) of at most two
        barriers, whose paths are disjoint: the up edge lies at or below the
        down edge.  The paths past each edge are taken in barrier order, and
        one uniform per path, drawn in that order, picks u from eta1 at its
        barrier's outer node.  Each is pushed back to its edge along
        gamma(edge, u); the push size is |x - edge| / max(|gamma|, 1e-12).
        x (the state before the step) plays no part in reflection.
        """
        edges, outers, sides = self.barriers
        subs = [(x_new > e if s < 0 else x_new < e).nonzero()[0] for e, s in zip(edges, sides)]
        sub = np.concatenate(subs)
        if not sub.size:
            return
        which = np.repeat(np.arange(len(subs)), [s.size for s in subs])
        u = self.eta1.sample(outers[which], rng.random(sub.size))
        xs = x_new[sub]
        edge = edges[which]
        gam = np.maximum(np.abs(eval2(self.problem.gen_b.direction, edge, u)), 1e-12)
        dxi = np.abs(xs - edge) / gam
        acc.push(sub, xs, edge, u, dxi)
        x_new[sub] = edge


def simulate(problem: ProblemSpec, policy: FeedbackPolicy, cfg: SimConfig,
             basis=None) -> VerificationReport:
    """Simulate the controlled process and estimate costs, budgets and residuals.

    basis, when given, is a BasisFamily whose elements' martingale residuals
    are reported.  Deterministic for fixed (problem, policy, cfg).
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x_lo, x_hi = policy.x_lo, policy.x_hi
    law = _ClosedLoop(problem, policy)
    cuts, eta0, act = law.cuts, law.eta0, law.act
    relaxed = eta0.uval.shape[1] > 1
    x = law.start(rng, cfg.n_paths)
    acc = _Ledger(problem, cfg, basis, x, policy.state_nodes)
    step = acc.step
    drift_fn, diffusion_fn = problem.gen_a.drift, problem.gen_a.diffusion
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    truncations = 0

    for k in range(acc.n_steps):
        node_idx = cuts.searchsorted(x)
        u = eta0.sample(node_idx, rng.random(x.size) if relaxed else None)
        drift = eval2(drift_fn, x, u)
        sig = eval2(diffusion_fn, x, u)
        step(k, x, u, node_idx, drift, sig)
        x_new = x + drift * dt + sig * sqdt * rng.standard_normal(x.size)
        if act is not None:
            act(acc, rng, x if k else math.inf, x_new)
        if x_new.min() < x_lo or x_new.max() > x_hi:
            truncations += int((x_new < x_lo).sum()) + int((x_new > x_hi).sum())
            x_new = np.clip(x_new, x_lo, x_hi)
        x = x_new

    total_steps = acc.n_steps * cfg.n_paths
    if truncations > 0.01 * total_steps:
        raise SimulationError(
            f"{truncations} of {total_steps} steps left the state interval")
    acc.finish(x)
    return VerificationReport(
        **acc.estimates(policy.mu0_marginal, law.covered),
        truncation_events=truncations, total_steps=total_steps,
        multi_cluster_support=len(law.clusters) > 1, n_paths=cfg.n_paths)


@dataclass
class OracleEstimate:
    cost: float
    half_width: float
    mean_cycle_length: float
    cycle_length_half_width: float
    mean_cycle_cost: float
    n_cycles: int


def _inventory_shape(problem: ProblemSpec):
    """Check the inventory preconditions (else OracleNotApplicable); returns mu_d."""
    if problem.gen_b.kind != JUMP:
        raise OracleNotApplicable("band oracle requires a jump singular generator")
    xs = np.linspace(problem.state.x_lo, problem.state.x_hi, 7)
    us = np.linspace(problem.control.u_lo, problem.control.u_hi, 5)
    xx, uu = np.meshgrid(xs, us, indexing="ij")
    dj = eval2(problem.gen_b.displacement, xx, uu)
    if not np.allclose(dj, uu, atol=1e-12):
        raise OracleNotApplicable(
            "band oracle requires jump displacement d(x, u) = u")
    dr = eval2(problem.gen_a.drift, xx, uu)
    if np.ptp(dr) > 1e-12:
        raise OracleNotApplicable("band oracle requires a constant drift")
    mu_d = -float(dr.flat[0])
    if mu_d <= 0:
        raise OracleNotApplicable("band oracle requires strictly negative drift "
                                  "(cycles may not terminate otherwise)")
    if problem.costs.budgets:
        raise OracleNotApplicable("band oracle ignores budget constraints")
    return mu_d


# Below this log crossing probability no uniform but 0.0 falls under
# exp(log_p): uniforms are multiples of 2**-53 and exp(-40) < 2**-53.  The
# oracle skips those exp calls, which underflow slowly far from s.
_LOG_P_FLOOR = -40.0

# Most regenerative cycles the band oracle steps at once.  Whole groups are
# admitted while they fit, and always at least one.
_POOL_CYCLES = 4096


@dataclass
class _LiveGroup:
    """An order-up-to level S with cycles in the oracle's step loop."""

    index: int  # position in the caller's group list
    rng: np.random.Generator
    slots: list[int]  # result slot of each reorder level, highest first
    start: int  # step at which its cycles began
    deadline: int  # start + the step limit of its lowest level


def _band_estimate(cycle_cost: np.ndarray, t_acc: np.ndarray) -> OracleEstimate:
    """Renewal-reward reduction of one band's n cycles, in cycle order."""
    rate = float(cycle_cost.sum() / t_acc.sum())
    mean_length = float(t_acc.mean())
    return OracleEstimate(
        cost=rate, half_width=_half_width(cycle_cost - rate * t_acc) / mean_length,
        mean_cycle_length=mean_length,
        cycle_length_half_width=_half_width(t_acc),
        mean_cycle_cost=float(cycle_cost.mean()),
        n_cycles=cycle_cost.size,
    )


def _crossed(x, x1, s, sig, r, dt) -> np.ndarray:
    """Whether each Euler step from x > s to x1 crosses s.

    It does if x1 <= s, or else if the uniform r falls under the crossing
    probability exp(log_p) of the Brownian bridge from x to x1.
    """
    crossed = x1 <= s
    log_p = (-2.0 * (x - s) * (x1 - s)) / (sig ** 2 * dt)
    # exp(log_p) decides only above s, and where it can exceed the uniform.
    near = (~crossed & ((log_p > _LOG_P_FLOOR) | (r == 0.0))).nonzero()[0]
    crossed[near] = r.take(near) < np.exp(log_p.take(near))
    return crossed


def _band_cycles(problem: ProblemSpec, groups, cfg: SimConfig) -> list[list[OracleEstimate]]:
    """Renewal-reward estimates of groups of bands, from one Euler/bridge step loop.

    A group (S, levels) holds the bands (s, S) of its reorder levels
    s_1 >= ... >= s_L.  A cycle's path from S does not depend on s, which
    only decides when the cycle stops, so the group runs n cycles from S
    down to s_L and every level reads its cycles off them.  Checks the
    problem, then every group in order.  Each group draws from its own
    generator seeded with cfg.seed (common random numbers across groups):
    per step one normal per live cycle, then one uniform per live cycle
    still above s_L.  A cycle tests only its highest uncrossed level; when
    it crosses it, the level records the cycle's cost and step, and the
    cycle tests the next level on the same step with the same uniform.  So
    s_L's estimate, and that of a one-level group, is the band's run alone.
    Whole groups join while at most max(_POOL_CYCLES, n) cycles are live,
    and always at least one.  Results go into slots of n entries, one per
    level, twice as many as the larger of the groups of n that fit and the
    deepest group's levels, so a group joins while another finishes.  A
    cycle's time is the prefix sum of dt up to its step count from its
    group's start.  When a group's last cycle ends, each level's estimate
    is reduced on its own n cycles, in cycle order.  Returns the estimates
    group by group, level by level.
    """
    mu_d = _inventory_shape(problem)
    for big_s, levels in groups:
        for s in levels:
            if not (problem.state.x_lo <= s < big_s <= problem.state.x_hi):
                raise ValueError("band levels must lie inside the state interval")
    n, dt = cfg.n_paths, cfg.dt
    sq_dt, drift = math.sqrt(dt), mu_d * dt
    diffusion, c0, c1 = problem.gen_a.diffusion, problem.costs.c0, problem.costs.c1
    cap = max(_POOL_CYCLES, n)
    n_slots = 2 * max(cap // n, max(len(levels) for _, levels in groups))
    res_cost, res_end = np.empty(n_slots * n), np.empty(n_slots * n, dtype=np.int64)
    # Each slot's reorder level, and the slot of its group's next lower
    # level (-1 after the lowest).
    slot_s, slot_next = np.empty(n_slots), np.empty(n_slots, dtype=np.intp)
    free = list(range(n_slots - 1, -1, -1))
    draws, uniforms, u0 = np.empty(cap), np.zeros(cap), np.zeros(cap)
    # The live cycles, group by group: state, cost so far, highest uncrossed
    # level, their group's lowest level, and the result entry of the level
    # tested (slot * n + cycle).  live[i]'s cycles end at ends[i].
    x, c, s, low = np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    dest = np.empty(0, dtype=np.intp)
    live: list[_LiveGroup] = []
    ends: list[int] = []
    results: list[list[OracleEstimate] | None] = [None] * len(groups)
    queued = k = 0
    while True:
        while (queued < len(groups) and len(free) >= len(groups[queued][1])
               and x.size + n <= cap):
            big_s, levels = groups[queued]
            max_steps = int(math.ceil(50.0 * (big_s - levels[-1]) / mu_d / dt)) + 10_000
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            slots = [free.pop() for _ in levels]
            slot_s[slots] = levels
            slot_next[slots] = slots[1:] + [-1]
            live.append(_LiveGroup(queued, rng, slots, k, k + max_steps))
            x = np.append(x, np.full(n, big_s))
            c = np.append(c, np.zeros(n))
            s = np.append(s, np.full(n, levels[0]))
            low = np.append(low, np.full(n, levels[-1]))
            dest = np.append(dest, np.arange(slots[0] * n, slots[0] * n + n))
            ends.append(x.size)
            queued += 1
        if not live:
            return results
        m = x.size
        sig = eval2(diffusion, x, u0[:m])
        for g, lo, hi in zip(live, [0] + ends, ends):
            g.rng.standard_normal(out=draws[lo:hi])
        # The Euler step (sig sqrt(dt)) z + (x - mu_d dt), rounded in this order.
        x1 = (sig * sq_dt) * draws[:m] + (x - drift)
        c += eval2(c0, x, u0[:m]) * dt
        above = (x1 > low).nonzero()[0]
        up_ends = above.searchsorted(ends).tolist()  # where each group's uniforms end
        for g, lo, hi in zip(live, [0] + up_ends, up_ends):
            if hi > lo:
                g.rng.random(out=draws[lo:hi])
        # A cycle at or below s_L draws no uniform and keeps an r left from
        # an earlier step: it crosses every level left at the endpoint,
        # whatever r is.
        r = uniforms[:m]
        r[above] = draws[:above.size]
        down = _crossed(x, x1, s, sig, r, dt)
        k += 1
        # Record each crossed level; a cycle with a level left tests it on
        # the same step, and down keeps only the cycles that crossed their last.
        gone = down.nonzero()[0]
        while gone.size:
            d = dest.take(gone)
            res_cost[d] = c.take(gone)
            res_end[d] = k
            nxt = slot_next.take(d // n)
            more = (nxt >= 0).nonzero()[0]
            if not more.size:
                break
            gone, nxt = gone.take(more), nxt.take(more)
            dest[gone] = nxt * n + d.take(more) % n
            s[gone] = level = slot_s.take(nxt)
            down[gone] = again = _crossed(x.take(gone), x1.take(gone), level,
                                          sig.take(gone), r.take(gone), dt)
            gone = gone[again]
        kept = (~down).nonzero()[0]
        if kept.size < m:
            x1, c, s, low, dest = (a.take(kept) for a in (x1, c, s, low, dest))
            ends = kept.searchsorted(ends).tolist()
            segments = list(zip(live, [0] + ends, ends))
            for g, lo, hi in segments:
                if lo == hi:  # the group's last cycle ended
                    big_s, levels = groups[g.index]
                    t = np.cumsum(np.full(k - g.start, dt))
                    ests = []
                    for level, slot in zip(levels, g.slots):
                        row = slice(slot * n, (slot + 1) * n)
                        order_cost = float(eval2(c1, np.array(level),
                                                 np.array(big_s - level)))
                        ests.append(_band_estimate(res_cost[row] + order_cost,
                                                   t[res_end[row] - g.start - 1]))
                    results[g.index] = ests
                    free.extend(g.slots)
            live = [g for g, lo, hi in segments if lo < hi]
            ends = [hi for g, lo, hi in segments if lo < hi]
        x = x1
        if any(k >= g.deadline for g in live):
            raise SimulationError("some regenerative cycles did not terminate")


def band_policy_oracle(problem: ProblemSpec, band: BandPolicy,
                       cfg: SimConfig) -> OracleEstimate:
    """Renewal-reward estimate of the long-run average cost of an (s, S) band.

    Each regenerative cycle starts at S and runs the diffusion to the hitting
    time of s (with a Brownian-bridge crossing test to remove the first-order
    discrete-monitoring bias), then pays the ordering cost of jumping back to
    S.  cfg.n_paths is the number of cycles; cfg.horizon and cfg.burn_in go
    unread.  It runs band_search's step loop (_band_cycles) on a group of
    one level, so its cycles stop at s and draw uniforms only above s.
    """
    return _band_cycles(problem, [(band.big_s, [band.s])], cfg)[0][0]


@dataclass
class BandSearchResult:
    best: BandPolicy
    cost: float
    half_width: float
    table: list[tuple[float, float, float, float]]  # (s, S, cost, half_width)


def band_search(problem: ProblemSpec, s_grid, S_grid,
                cfg: SimConfig) -> BandSearchResult:
    """Evaluate every s < S pair with common random numbers; return the minimizer.

    The pairs are sorted in lexicographic (s, S) order, and those that share
    S form one group of _band_cycles: n cycles from S, run down to the
    lowest s, give every pair with that S.  So the pairs of one S share
    their paths, and every group draws from a generator seeded with
    cfg.seed.  Only the row of each S's lowest s equals band_policy_oracle's
    estimate: the rows above it share a stream that draws uniforms down to
    that lowest s.  Every pair is checked before any cycle runs, and at most
    _POOL_CYCLES cycles are live at once.  Only strictly lower costs replace the incumbent, so exact-cost
    ties resolve to the lexicographically smallest pair.
    """
    pairs = [(float(s), float(S)) for s in s_grid for S in S_grid if s < S]
    if not pairs:
        raise ValueError("no (s, S) pairs with s < S")
    pairs.sort()
    levels: dict[float, list[float]] = {}
    for s, S in pairs:
        levels.setdefault(S, []).append(s)
    groups = [(S, ss[::-1]) for S, ss in sorted(levels.items())]
    ests = {(s, S): e for (S, ss), row in zip(groups, _band_cycles(problem, groups, cfg))
            for s, e in zip(ss, row)}
    table = [(s, S, ests[s, S].cost, ests[s, S].half_width) for s, S in pairs]
    best = min(table, key=lambda row: row[2])
    return BandSearchResult(best=BandPolicy(best[0], best[1]), cost=best[2],
                            half_width=best[3], table=table)


# 4-point Gauss-Legendre nodes and weights on [-1, 1].
_GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526])
_GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357])
# The renewal mesh's step h is the state interval's width over this.
_MESH_CELLS = 2000
# The tail above the highest band damps the error of its start value by at
# least exp(-_TAIL_DECAY), in at most _TAIL_CELLS cells of theta dx at most
# _TAIL_THETA_DX.  Wider cells cost more quadrature error where theta varies.
_TAIL_DECAY = 30.0
_TAIL_THETA_DX = 0.1
_TAIL_CELLS = 1000


@dataclass(frozen=True)
class BandCost:
    """Long-run average cost of an (s, S) band from the renewal-reward ODE.

    cost is the value on the mesh of step h/2; half_width is its distance
    to the value on the mesh of step h, the quadrature error estimate.
    """

    band: BandPolicy
    cost: float
    half_width: float


class _RenewalMesh:
    """The renewal-reward ODE of an inventory-shaped problem, solved on a mesh.

    Between orders the state is a diffusion with drift -mu_d and volatility
    sigma(x) = diffusion(x, 0), started at S and stopped at s.  By
    renewal-reward (Bather 1966; Harrison, Sellke and Taylor 1983) a band
    costs C(s, S) = mu_d (V(S) - V(s) + c1(s, S - s)) / (S - s), where
    V' = w solves

        w' = theta w - 2 c0 / sigma^2,   theta = 2 mu_d / sigma^2,

    with c0 = c0(x, 0), and w does not grow like exp(int theta).  The mesh
    runs through the given points, in cells of at most h between them, and
    on through a tail of growing cells above the highest point until
    int theta over the tail reaches _TAIL_DECAY.  w starts at the top at
    the balance theta w = 2 c0 / sigma^2 and is integrated downward, where
    the ODE damps errors.  Each cell takes one exponential-integrator step
    with theta at its Gauss-Legendre mean and c0 at its Gauss-Legendre
    points, and adds (w(b) - w(a) + int f) / theta to V.  V is solved on the
    mesh and on the mesh with every cell halved.
    """

    def __init__(self, problem: ProblemSpec, points, h: float):
        self.problem = problem
        self.mu_d = _inventory_shape(problem)
        pts = np.unique(np.asarray(points, dtype=float))
        gaps = np.diff(pts)
        counts = np.maximum(np.ceil(gaps / h), 1).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)])
        cell = np.repeat(np.arange(gaps.size), counts)
        k = np.arange(starts[-1]) - starts[cell]
        self.points, self.point_nodes = pts, starts
        self.nodes = np.append(pts[cell] + gaps[cell] * (k / counts[cell]), pts[-1])
        coarse = self._with_tail(self.nodes)
        fine = np.empty(2 * coarse.size - 1)
        fine[::2] = coarse
        fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
        n = self.nodes.size
        self.v_coarse = self._primitive(coarse)[:n]
        self.v_fine = self._primitive(fine)[:2 * n - 1:2]

    def _theta(self, x):
        sig2 = eval2(self.problem.gen_a.diffusion, x, 0.0) ** 2
        if not np.all((sig2 > 0.0) & (sig2 < math.inf)):
            raise OracleNotApplicable(
                "band oracle requires a positive finite diffusion above s")
        return 2.0 * self.mu_d / sig2

    def _with_tail(self, nodes: np.ndarray) -> np.ndarray:
        """nodes, then cells that grow by 10% while theta dx <= _TAIL_THETA_DX."""
        edges, width, decay = [float(nodes[-1])], float(nodes[-1] - nodes[-2]), 0.0
        while decay < _TAIL_DECAY:
            if len(edges) > _TAIL_CELLS:
                raise OracleNotApplicable("band oracle requires the diffusion to damp "
                                          "the renewal ODE above the bands")
            theta = float(self._theta(edges[-1]))
            width = min(1.1 * width, _TAIL_THETA_DX / theta)
            edges.append(edges[-1] + width)
            decay += theta * width
        return np.concatenate([nodes, edges[1:]])

    def _primitive(self, mesh: np.ndarray) -> np.ndarray:
        """V at the mesh nodes, V(mesh[0]) = 0."""
        a, half = mesh[:-1, None], 0.5 * np.diff(mesh)[:, None]
        z = a + half * (1.0 + _GAUSS_X)
        theta_z = self._theta(z)
        f = eval2(self.problem.costs.c0, z, 0.0) * (theta_z / self.mu_d)
        theta = 0.5 * (theta_z @ _GAUSS_W)
        int_f = (half * f) @ _GAUSS_W
        int_fe = (half * f * np.exp(-theta[:, None] * (z - a))) @ _GAUSS_W
        damp = np.exp(-theta * (2.0 * half[:, 0]))
        top = float(eval2(self.problem.costs.c0, mesh[-1], 0.0)) / self.mu_d
        w = np.fromiter(itertools.accumulate(
            zip(damp[::-1].tolist(), int_fe[::-1].tolist()),
            lambda w_b, step: step[0] * w_b + step[1], initial=top),
            float, mesh.size)[::-1]
        v = np.concatenate([[0.0], np.cumsum((w[1:] - w[:-1] + int_f) / theta)])
        if not np.all(np.isfinite(v)):
            raise OracleNotApplicable(
                "band oracle requires a finite running cost above s")
        return v

    def costs(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """(cost, half_width) of the bands (nodes[i], nodes[j]), i < j."""
        s, big_s = self.nodes[i], self.nodes[j]
        order = eval2(self.problem.costs.c1, s, big_s - s)
        rate = self.mu_d / (big_s - s)
        fine = rate * (self.v_fine[j] - self.v_fine[i] + order)
        coarse = rate * (self.v_coarse[j] - self.v_coarse[i] + order)
        return fine, np.abs(fine - coarse)


def _mesh_step(problem: ProblemSpec) -> float:
    return (problem.state.x_hi - problem.state.x_lo) / _MESH_CELLS


def exact_band_cost(problem: ProblemSpec, bands) -> list[BandCost]:
    """Long-run average cost of each (s, S) band from the renewal-reward ODE.

    Applies where band_policy_oracle does (else OracleNotApplicable), and to
    the same process, whose cycles are not held to the state interval.
    Every band's s and S are nodes of one mesh (_RenewalMesh).
    """
    bands = list(bands)
    x_lo, x_hi = problem.state.x_lo, problem.state.x_hi
    if not bands:
        raise ValueError("no bands")
    for band in bands:
        if not x_lo <= band.s < band.big_s <= x_hi:
            raise ValueError("band levels must lie inside the state interval")
    mesh = _RenewalMesh(problem, [v for b in bands for v in (b.s, b.big_s)],
                        _mesh_step(problem))
    node = dict(zip(mesh.points.tolist(), mesh.point_nodes.tolist()))
    i = np.array([node[b.s] for b in bands])
    j = np.array([node[b.big_s] for b in bands])
    cost, half = mesh.costs(i, j)
    return [BandCost(b, float(c), float(e)) for b, c, e in zip(bands, cost, half)]


def exact_optimal_band(problem: ProblemSpec, s_range, S_range) -> BandCost:
    """The cheapest band with s in s_range and S in S_range, on mesh nodes.

    One mesh of step at most h runs from the lowest s to the highest S
    (_RenewalMesh).  A scan of the node pairs at a stride of 1/32 of the
    mesh finds a start, and windows of 5 x 5 pairs at half the stride each
    time zoom in on it, then move at stride 1 until no neighbour is cheaper.  A window's ties go to
    its lowest s, then its lowest S.  The mesh step limits how close the
    band comes to the continuous optimum; its cost has the quadrature error
    estimate of exact_band_cost.
    """
    (s_lo, s_hi), (big_lo, big_hi) = map(float, s_range), map(float, S_range)
    if not (problem.state.x_lo <= s_lo <= s_hi and big_lo <= big_hi <= problem.state.x_hi
            and s_lo < big_hi):
        raise ValueError("band ranges must lie inside the state interval and "
                         "admit some s < S")
    mesh = _RenewalMesh(problem, [s_lo, big_hi], _mesh_step(problem))
    nodes = mesh.nodes
    i_hi = int(nodes.searchsorted(s_hi, "right")) - 1
    j_lo, j_hi = int(nodes.searchsorted(big_lo)), nodes.size - 1

    def cheapest(ii, jj):
        i, j = np.meshgrid(ii, jj, indexing="ij")
        ok = i < j
        cost = np.full(i.shape, math.inf)
        cost[ok] = mesh.costs(i[ok], j[ok])[0]
        k = np.unravel_index(int(np.argmin(cost)), cost.shape)
        return int(i[k]), int(j[k])

    stride = max(nodes.size // 32, 1)
    best = cheapest(np.append(np.arange(0, i_hi, stride), i_hi),
                    np.append(np.arange(j_lo, j_hi, stride), j_hi))
    window = np.arange(-2, 3)
    while True:
        stride = max(stride // 2, 1)
        i, j = best
        nxt = cheapest(np.unique(np.clip(i + stride * window, 0, i_hi)),
                       np.unique(np.clip(j + stride * window, j_lo, j_hi)))
        if stride == 1 and nxt == best:
            break
        best = nxt
    i, j = best
    cost, half = mesh.costs(i, j)
    return BandCost(BandPolicy(float(nodes[i]), float(nodes[j])), float(cost), float(half))
