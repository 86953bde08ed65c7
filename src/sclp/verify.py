"""Monte Carlo verification of extracted policies.

simulate() runs the controlled diffusion under a feedback policy with
committed singular-action semantics.  Each step is one shared Euler step
(_euler_step) under a control drawn from the policy's eta0 kernel, then the
singular action of the problem's kind: jump problems act when the state
crosses into the singular support from above (_jump_action, band
behaviour); gradient problems reflect at the two support clusters around
the mu0 mode (_gradient_action).  Per-path cost, budget and martingale sums
live in _Accumulators.  Budgets hold in mean, as the LP's budget rows do:
singular action never stops on a path.  simulate() reports cost and budget
estimates with confidence intervals, martingale residuals for the supplied
test functions, and (long-term average) a stationarity distance.  For a fixed
seed the random draws come in a fixed order: the nu0 draw of the initial
states (discounted), then per step one eta0 uniform per path (only when
some eta0 row holds more than one control), the normals, and one uniform
per acting path and cluster.

band_policy_oracle() is an independent renewal-reward estimator for
inventory-shaped problems under an (s, S) ordering band; band_search()
brute-forces the best band with common random numbers.  Both run one
Euler/bridge step loop, _band_cycles(), over the regenerative cycles of
whole bands, at most _POOL_CYCLES of them live at once.  Each band draws
from its own generator exactly what it would draw alone, so every
estimate equals that of the band run alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .discretize import nearest_node, node_cuts
from .model import DISCOUNTED, JUMP, ProblemSpec, eval2
from .policy import FeedbackPolicy

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
    """
    dt: float
    horizon: float | None
    n_paths: int
    seed: int
    burn_in: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon is not None and self.dt > self.horizon / 100.0:
            raise ValueError("dt must be at most horizon/100")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.horizon is not None and not 0.0 <= self.burn_in < self.horizon:
            raise ValueError("burn_in must lie in [0, horizon)")


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
        self.covered = np.zeros(n_nodes, dtype=bool)
        for i, (u, p) in kernel.rows.items():
            self.uval[i, :u.size] = u
            self.uval[i, u.size:] = u[-1]
            self.cdf[i, :p.size] = np.cumsum(p)
            self.cdf[i, p.size:] = 1.0
            self.covered[i] = True

    def sample(self, node_idx: np.ndarray, r: np.ndarray | None) -> np.ndarray:
        """Controls at node_idx for the uniforms r (None when no row has two)."""
        if self.uval.shape[1] == 1:
            return self.uval[node_idx, 0]
        return self._sample_cdf(node_idx, r)

    def _sample_cdf(self, node_idx: np.ndarray, r: np.ndarray) -> np.ndarray:
        choice = (r[:, None] > self.cdf[node_idx]).sum(axis=1)
        choice = np.minimum(choice, self.uval.shape[1] - 1)
        return self.uval[node_idx, choice]


def _bridge_map(covered: np.ndarray) -> np.ndarray:
    """Map every node index to the nearest covered node index."""
    idxs = np.flatnonzero(covered)
    if idxs.size == 0:
        raise ValueError("kernel covers no state node")
    return idxs[nearest_node(idxs, np.arange(covered.size))]


def _cluster_node(cuts: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Index of the node of nodes[lo:hi + 1] nearest to each x.

    cuts is node_cuts(nodes).  The global nearest node clamped into the
    cluster: for sorted nodes this is nearest_node on the slice, ties
    included.
    """
    return np.minimum(np.maximum(cuts.searchsorted(x), lo), hi)


def _support_clusters(policy: FeedbackPolicy):
    """Index clusters of the mu1 support (adjacent nodes with an eta1 row)."""
    clusters: list[tuple[int, int]] = []
    for i in sorted(policy.eta1.rows):
        if clusters and i == clusters[-1][1] + 1:
            clusters[-1] = (clusters[-1][0], i)
        else:
            clusters.append((i, i))
    return clusters


class _Accumulators:
    """Per-path sums of one run.

    Running and singular cost, discount-weighted budget usage (held to its
    cap only in mean, never per path) and, when a basis is given, the
    martingale residuals f(X_T) - f(X_0) - sum of (Af) dt and of Bf over
    the singular actions, one row per test function.
    """

    def __init__(self, problem: ProblemSpec, basis, x0: np.ndarray, dt: float):
        n_paths = x0.size
        self.costs = problem.costs
        self.direction = problem.gen_b.direction
        self.dt = dt
        self.run_cost = np.zeros(n_paths)
        self.sing_cost = np.zeros(n_paths)
        budgets = self.costs.budgets
        self.bud_acc = np.zeros((len(budgets), n_paths))
        self.basis = basis
        if basis is not None:
            self.mart = np.zeros((len(basis), n_paths))
            (self.f0,) = basis.evaluate(x0, (0,))
            self.step_rows = (np.empty_like(self.mart), np.empty_like(self.mart))

    def running(self, x, u, w: float, counted: bool):
        """Running cost c0 dt and budget usage g dt of a counted step."""
        if not counted:
            return
        dt = self.dt
        c0 = eval2(self.costs.c0, x, u)
        self.run_cost += w * c0 * dt
        for i, bud in enumerate(self.costs.budgets):
            self.bud_acc[i] += w * eval2(bud.g, x, u) * dt

    def generator(self, x, drift, sig):
        """Take (Af) dt = (f' drift + f'' sig^2 / 2) dt off every residual."""
        if self.basis is None:
            return
        d1, d2 = self.basis.evaluate(x, (1, 2), out=self.step_rows)
        d2 *= 0.5 * sig * sig
        d1 *= drift
        d2 += d1
        d2 *= self.dt
        self.mart -= d2

    def singular(self, sub, xs, u, wc: float, dxi=None):
        """Cost c1 and budget usage h of singular actions on the paths sub.

        dxi is the size of a gradient push (None for a jump); wc is the
        discount weight, 0 before burn-in.
        """
        c1 = wc * eval2(self.costs.c1, xs, u)
        self.sing_cost[sub] += c1 if dxi is None else c1 * dxi
        for i, bud in enumerate(self.costs.budgets):
            hv = eval2(bud.h, xs, u)
            if dxi is not None:
                hv = hv * dxi
            self.bud_acc[i][sub] += wc * hv

    def jump(self, sub, xs, target):
        """Take Bf = f(target) - f(xs) of a jump off the residuals of sub."""
        if self.basis is None:
            return
        (df,) = self.basis.evaluate(target, (0,))
        df -= self.basis.evaluate(xs, (0,))[0]
        self.mart[:, sub] -= df

    def push(self, sub, xm, u, dxi):
        """Take Bf = f'(xm) gamma(xm, u) dxi of a push off the residuals of sub."""
        if self.basis is None:
            return
        (df,) = self.basis.evaluate(xm, (1,))
        df *= eval2(self.direction, xm, u)
        df *= dxi
        self.mart[:, sub] -= df

    def finish(self, x):
        """Add f(X_T) - f(X_0) to the residuals."""
        if self.basis is not None:
            (f1,) = self.basis.evaluate(x, (0,))
            f1 -= self.f0
            self.mart += f1


def _euler_step(problem: ProblemSpec, acc: _Accumulators, rng, x, u,
                sqdt: float, w: float, counted: bool) -> np.ndarray:
    """One Euler-Maruyama step under control u; charges the step's costs."""
    acc.running(x, u, w, counted)
    drift = eval2(problem.gen_a.drift, x, u)
    sig = eval2(problem.gen_a.diffusion, x, u)
    acc.generator(x, drift, sig)
    z = rng.standard_normal(x.size)
    return x + drift * acc.dt + sig * sqdt * z


def _jump_action(problem, cuts, triggers, sampler, acc, rng, x, x_new, wc):
    """Jump the paths that crossed down to a cluster's top node this step.

    A path crosses the trigger level when it steps from above it to at or
    below it; on the first step (x is None) every path at or below it acts.
    Its jump is drawn from eta1 at its nearest node of the cluster.
    """
    for trig, lo, hi in triggers:
        crossed = x_new <= trig
        if x is not None:
            crossed &= x > trig
        sub = crossed.nonzero()[0]
        if not sub.size:
            continue
        xs = x_new[sub]
        near = np.full(sub.size, lo) if lo == hi else _cluster_node(cuts, xs, lo, hi)
        u = sampler.sample(near, rng.random(sub.size))
        target = xs + eval2(problem.gen_b.displacement, xs, u)
        acc.singular(sub, xs, u, wc)
        acc.jump(sub, xs, target)
        x_new[sub] = target


def _gradient_action(problem, barriers, sampler, acc, rng, x, x_new, wc):
    """Reflect the paths that stepped past a cluster's edge.

    Each is pushed back to the edge along gamma(edge, u), with u drawn from
    eta1 at the cluster's outer node; the push size is |x - edge| / |gamma|.
    x (the state before the step) plays no part in reflection.
    """
    for edge, outer, side in barriers:
        over = x_new > edge if side < 0 else x_new < edge
        sub = over.nonzero()[0]
        if not sub.size:
            continue
        u = sampler.sample(np.full(sub.size, outer), rng.random(sub.size))
        xs = x_new[sub]
        gam = eval2(problem.gen_b.direction, np.full(sub.size, edge), u)
        gam = np.where(np.abs(gam) < 1e-12, np.copysign(1e-12, -side), gam)
        dxi = np.abs(xs - edge) / np.abs(gam)
        acc.singular(sub, xs, u, wc, dxi)
        acc.push(sub, 0.5 * (xs + edge), u, dxi)
        x_new[sub] = edge


def _gradient_barriers(problem: ProblemSpec, policy: FeedbackPolicy, clusters):
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
    mode = nodes[int(np.argmax(policy.mu0_marginal))]
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


def _singular_action(problem: ProblemSpec, policy: FeedbackPolicy, clusters, cuts):
    """The policy's singular action as action(acc, rng, x, x_new, wc), or None.

    Jump problems act when a path crosses into the support from above (band
    behaviour; cuts is node_cuts(policy.state_nodes)); gradient problems
    reflect at the support edge.
    """
    nodes = policy.state_nodes
    if problem.gen_b.kind == JUMP:
        triggers = [(float(nodes[hi]), lo, hi) for lo, hi in clusters]
        if not triggers:
            return None
        sampler = _KernelSampler(policy.eta1, nodes.size)
        return partial(_jump_action, problem, cuts, triggers, sampler)
    barriers = _gradient_barriers(problem, policy, clusters)
    if not barriers:
        return None
    sampler = _KernelSampler(policy.eta1, nodes.size)
    return partial(_gradient_action, problem, barriers, sampler)


def _initial_states(problem: ProblemSpec, policy: FeedbackPolicy, rng, n_paths):
    """nu0 draws (discounted), else every path at the mu0 mode."""
    if problem.criterion.kind == DISCOUNTED:
        pts = np.array([x for x, _ in problem.criterion.nu0])
        probs = np.array([p for _, p in problem.criterion.nu0])
        return rng.choice(pts, size=n_paths, p=probs / probs.sum())
    nodes = policy.state_nodes
    return np.full(n_paths, float(nodes[int(np.argmax(policy.mu0_marginal))]))


def simulate(problem: ProblemSpec, policy: FeedbackPolicy, cfg: SimConfig,
             basis=None) -> VerificationReport:
    """Simulate the controlled process and estimate costs, budgets and residuals.

    basis, when given, is a BasisFamily whose elements' martingale residuals
    are reported.  Deterministic for fixed (problem, policy, cfg).
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nodes = policy.state_nodes
    cuts = node_cuts(nodes)
    x_lo, x_hi = policy.x_lo, policy.x_hi
    disc = problem.criterion.kind == DISCOUNTED
    if not disc and cfg.horizon is None:
        raise ValueError("a long-term-average simulation needs a horizon")
    alpha = problem.criterion.alpha if disc else 0.0
    horizon = math.log(1.0 / DISCOUNT_CUTOFF) / alpha if disc else cfg.horizon
    n_steps = int(round(horizon / cfg.dt))
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    burn_steps = int(round(cfg.burn_in / dt)) if not disc else 0  # disc counts all

    # eta0, with each uncovered node's row borrowed from its nearest covered
    # node (a bridged step).
    eta0 = _KernelSampler(policy.eta0, nodes.size)
    bridge = _bridge_map(eta0.covered)
    eta0.uval, eta0.cdf = eta0.uval[bridge], eta0.cdf[bridge]
    relaxed = eta0.uval.shape[1] > 1
    clusters = _support_clusters(policy)
    action = _singular_action(problem, policy, clusters, cuts)
    x = _initial_states(problem, policy, rng, cfg.n_paths)
    acc = _Accumulators(problem, basis, x, dt)
    # Visits per node before burn-in (row 0) and in the window (row 1).
    visits = np.zeros((2, nodes.size), dtype=np.int64)
    truncations = 0

    for k in range(n_steps):
        t = k * dt
        counted = k >= burn_steps
        w = math.exp(-alpha * t)
        node_idx = cuts.searchsorted(x)
        visits[int(counted)] += np.bincount(node_idx, minlength=nodes.size)
        u = eta0.sample(node_idx, rng.random(x.size) if relaxed else None)
        x_new = _euler_step(problem, acc, rng, x, u, sqdt, w, counted)
        if action is not None:
            wc = math.exp(-alpha * (t + dt)) if counted else 0.0
            action(acc, rng, x if k else None, x_new, wc)
        if x_new.min() < x_lo or x_new.max() > x_hi:
            truncations += int((x_new < x_lo).sum()) + int((x_new > x_hi).sum())
            x_new = np.clip(x_new, x_lo, x_hi)
        x = x_new

    total_steps = n_steps * cfg.n_paths
    if truncations > 0.01 * total_steps:
        raise SimulationError(
            f"{truncations} of {total_steps} steps left the state interval")
    acc.finish(x)

    cost, budgets, exhausted = _cost_estimates(problem, cfg, acc, nodes, horizon)
    stat_tv = None
    hist = visits[1]
    if not disc and hist.sum() > 0:
        p_emp = hist / hist.sum()
        p_ref = policy.mu0_marginal / policy.mu0_marginal.sum()
        stat_tv = 0.5 * float(np.abs(p_emp - p_ref).sum())
    residuals = [] if basis is None else [
        Estimate(f"mart[{name}]", float(row.mean()), _half_width(row), cfg.n_paths)
        for name, row in zip(basis.names, acc.mart)]

    return VerificationReport(
        cost=cost, budgets=budgets, martingale_residuals=residuals,
        stationarity_distance=stat_tv,
        truncation_events=truncations, total_steps=total_steps,
        bridged_steps=int(visits.sum(axis=0)[~eta0.covered].sum()),
        multi_cluster_support=len(clusters) > 1,
        budget_exhausted_paths=exhausted,
        n_paths=cfg.n_paths,
    )


def _cost_estimates(problem: ProblemSpec, cfg: SimConfig, acc: _Accumulators,
                    nodes: np.ndarray, horizon: float):
    """Cost and budget estimates: discounted totals or long-run averages.

    Also counts the paths whose own budget sample passed a cap; the caps
    bind only the means, so this is a diagnostic.
    """
    n_paths = cfg.n_paths
    budgets = problem.costs.budgets
    if problem.criterion.kind == DISCOUNTED:
        alpha = problem.criterion.alpha
        cost_paths = acc.run_cost + acc.sing_cost
        # Discount-truncation tail bound, added to the half-width.
        xx, uu = np.meshgrid(nodes, np.array([problem.control.u_lo,
                                              problem.control.u_hi]), indexing="ij")
        c0max = float(eval2(problem.costs.c0, xx, uu).max())
        tail = c0max * DISCOUNT_CUTOFF / alpha
        cost = Estimate("discounted_cost", float(cost_paths.mean()),
                        _half_width(cost_paths) + tail, n_paths)
        denom = 1.0
    else:
        denom = horizon - cfg.burn_in
        cost_paths = (acc.run_cost + acc.sing_cost) / denom
        cost = Estimate("lta_cost", float(cost_paths.mean()),
                        _half_width(cost_paths), n_paths)
    samples = acc.bud_acc / denom
    estimates = [Estimate(f"budget_{b.name}", float(acc.bud_acc[i].mean() / denom),
                          _half_width(samples[i]), n_paths)
                 for i, b in enumerate(budgets)]
    caps = np.array([b.cap for b in budgets])[:, None]
    exhausted = int((samples > caps).any(axis=0).sum())
    return cost, estimates, exhausted


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
    return mu_d


# Below this log crossing probability no uniform but 0.0 falls under
# exp(log_p): uniforms are multiples of 2**-53 and exp(-40) < 2**-53.  The
# oracle skips those exp calls, which underflow slowly far from s.
_LOG_P_FLOOR = -40.0

# Most regenerative cycles the band oracle steps at once.  Whole bands are
# admitted while they fit, and always at least one.
_POOL_CYCLES = 4096


@dataclass
class _LiveBand:
    """A band with cycles in the oracle's step loop."""

    index: int  # position in the caller's band list
    rng: np.random.Generator
    slot: int  # its n entries of the per-cycle result arrays
    start: int  # step at which its cycles began
    deadline: int  # start + its step limit


def _band_estimate(cycle_cost: np.ndarray, t_acc: np.ndarray) -> OracleEstimate:
    """Renewal-reward reduction of one band's n cycles, in cycle order."""
    n = cycle_cost.size
    rate = float(cycle_cost.sum() / t_acc.sum())
    centered = cycle_cost - rate * t_acc
    if n >= 2:
        half = 1.96 * float(centered.std(ddof=1)) / math.sqrt(n) / float(t_acc.mean())
    else:
        half = float("nan")
    return OracleEstimate(
        cost=rate, half_width=half,
        mean_cycle_length=float(t_acc.mean()),
        cycle_length_half_width=_half_width(t_acc),
        mean_cycle_cost=float(cycle_cost.mean()),
        n_cycles=n,
    )


def _band_cycles(problem: ProblemSpec, bands, cfg: SimConfig) -> list[OracleEstimate]:
    """Renewal-reward estimates of the bands, from one Euler/bridge step loop.

    Checks the problem, then every band in order.  Each band draws from its
    own generator seeded with cfg.seed (common random numbers across bands)
    exactly what it would draw alone: per step one normal per live cycle,
    then one uniform per live cycle still above s.  Whole bands join while
    at most max(_POOL_CYCLES, n) cycles are live, and always at least one.
    Results go into twice as many slots of n entries as bands of n fit, so
    new bands join while earlier ones finish their last cycles.  A cycle's
    time is the prefix sum of dt up to its step count.  When a band's last
    cycle ends, its estimate is reduced on its own n cycles, in cycle order.
    """
    mu_d = _inventory_shape(problem)
    for band in bands:
        if not (problem.state.x_lo <= band.s < band.big_s <= problem.state.x_hi):
            raise ValueError("band levels must lie inside the state interval")
    n, dt = cfg.n_paths, cfg.dt
    sq_dt, drift = math.sqrt(dt), mu_d * dt
    diffusion, c0, c1 = problem.gen_a.diffusion, problem.costs.c0, problem.costs.c1
    cap = max(_POOL_CYCLES, n)
    n_slots = 2 * (cap // n)
    res_cost, res_end = np.empty(n_slots * n), np.empty(n_slots * n, dtype=np.int64)
    free = list(range(n_slots - 1, -1, -1))
    draws, u0 = np.empty(cap), np.zeros(cap)
    # The live cycles, band by band: state, cost so far, their band's s and
    # result entry (slot * n + cycle).  live[i]'s cycles end at ends[i].
    x, c, s = np.empty(0), np.empty(0), np.empty(0)
    dest = np.empty(0, dtype=np.intp)
    live: list[_LiveBand] = []
    ends: list[int] = []
    results: list[OracleEstimate | None] = [None] * len(bands)
    queued = k = 0
    while True:
        while queued < len(bands) and free and x.size + n <= cap:
            band = bands[queued]
            max_steps = int(math.ceil(50.0 * (band.big_s - band.s) / mu_d / dt)) + 10_000
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            slot = free.pop()
            live.append(_LiveBand(queued, rng, slot, k, k + max_steps))
            x = np.append(x, np.full(n, band.big_s))
            c = np.append(c, np.zeros(n))
            s = np.append(s, np.full(n, band.s))
            dest = np.append(dest, np.arange(slot * n, slot * n + n))
            ends.append(x.size)
            queued += 1
        if not live:
            return results
        m = x.size
        sig = eval2(diffusion, x, u0[:m])
        for b, lo, hi in zip(live, [0] + ends, ends):
            b.rng.standard_normal(out=draws[lo:hi])
        # The Euler step (sig sqrt(dt)) z + (x - mu_d dt), rounded in this order.
        x1 = (sig * sq_dt) * draws[:m] + (x - drift)
        c += eval2(c0, x, u0[:m]) * dt
        hit = x1 <= s
        above = (~hit).nonzero()[0]
        up_ends = above.searchsorted(ends).tolist()  # where each band's uniforms end
        for b, lo, hi in zip(live, [0] + up_ends, up_ends):
            if hi > lo:
                b.rng.random(out=draws[lo:hi])
        sa = s.take(above)
        log_p = (-2.0 * (x.take(above) - sa) * (x1.take(above) - sa)
                 / (sig.take(above) ** 2 * dt))
        # The crossing probability exp(log_p) decides only where it can
        # exceed the uniform.
        r = draws[:above.size]
        near = (log_p > _LOG_P_FLOOR) | (r == 0.0)
        crossed = np.zeros(above.size, dtype=bool)
        crossed[near] = r[near] < np.exp(log_p[near])
        hit[above] = crossed
        kept = above[~crossed]
        k += 1
        if kept.size < m:
            gone = hit.nonzero()[0]
            ended = dest.take(gone)
            res_cost[ended] = c.take(gone)
            res_end[ended] = k
            x1, c, s, dest = x1.take(kept), c.take(kept), s.take(kept), dest.take(kept)
            ends = kept.searchsorted(ends).tolist()
            segments = list(zip(live, [0] + ends, ends))
            for b, lo, hi in segments:
                if lo == hi:  # the band's last cycle ended
                    band = bands[b.index]
                    row = slice(b.slot * n, (b.slot + 1) * n)
                    steps = res_end[row] - b.start
                    t_acc = np.cumsum(np.full(k - b.start, dt))[steps - 1]
                    order_cost = float(eval2(c1, np.array(band.s),
                                             np.array(band.big_s - band.s)))
                    results[b.index] = _band_estimate(res_cost[row] + order_cost, t_acc)
                    free.append(b.slot)
            live = [b for b, lo, hi in segments if lo < hi]
            ends = [hi for b, lo, hi in segments if lo < hi]
        x = x1
        if any(k >= b.deadline for b in live):
            raise SimulationError("some regenerative cycles did not terminate")


def band_policy_oracle(problem: ProblemSpec, band: BandPolicy,
                       cfg: SimConfig) -> OracleEstimate:
    """Renewal-reward estimate of the long-run average cost of an (s, S) band.

    Each regenerative cycle starts at S and runs the diffusion to the hitting
    time of s (with a Brownian-bridge crossing test to remove the first-order
    discrete-monitoring bias), then pays the ordering cost of jumping back to
    S.  cfg.n_paths is the number of cycles; cfg.horizon and cfg.burn_in go
    unread.  It runs band_search's step loop (_band_cycles) on one band.
    """
    return _band_cycles(problem, [band], cfg)[0]


@dataclass
class BandSearchResult:
    best: BandPolicy
    cost: float
    half_width: float
    table: list[tuple[float, float, float, float]]  # (s, S, cost, half_width)


def band_search(problem: ProblemSpec, s_grid, S_grid,
                cfg: SimConfig) -> BandSearchResult:
    """Evaluate every s < S pair with common random numbers; return the minimizer.

    Every pair is checked first, in lexicographic (s, S) order, and then all
    run in one batched step loop (_band_cycles): each pair draws from its own
    generator seeded with cfg.seed, so its estimate equals band_policy_oracle's,
    and at most _POOL_CYCLES cycles are live at once.  Only strictly lower
    costs replace the incumbent, so exact-cost ties resolve to the
    lexicographically smallest pair.
    """
    pairs = [(float(s), float(S)) for s in s_grid for S in S_grid if s < S]
    if not pairs:
        raise ValueError("no (s, S) pairs with s < S")
    pairs.sort()
    ests = _band_cycles(problem, [BandPolicy(s, S) for s, S in pairs], cfg)
    table = [(s, S, e.cost, e.half_width) for (s, S), e in zip(pairs, ests)]
    best = min(table, key=lambda row: row[2])
    return BandSearchResult(best=BandPolicy(best[0], best[1]), cost=best[2],
                            half_width=best[3], table=table)
