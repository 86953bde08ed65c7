"""Monte Carlo verification of extracted policies.

simulate() runs the controlled diffusion under a feedback policy with
committed singular-action semantics.  Each step is one shared Euler step
(_euler_step) under the absolutely continuous control (_Control), then the
singular action of the problem's kind: jump problems act when the state
crosses into the singular support from above (_jump_action, band
behaviour); gradient problems reflect at the two support clusters around
the mu0 mode (_gradient_action).  Per-path cost, budget and martingale sums
live in _Accumulators.  Budgets hold in mean, as the LP's budget rows do:
singular action never stops on a path.  simulate() reports cost and budget
estimates with confidence intervals, martingale residuals for the supplied
test functions, and (long-term average) a stationarity distance.  For a fixed
seed the random draws come in a fixed order: the nu0 draw of the initial
states (discounted), then per step the kernel control's uniforms, the
normals, and one uniform per acting path and cluster.

band_policy_oracle() is an independent renewal-reward estimator for
inventory-shaped problems under an (s, S) ordering band; band_search()
brute-forces the best band with common random numbers.  Both run one
batched core, _band_cycles(): the regenerative cycles of many bands share
one Euler/bridge step loop in a pool of at most _POOL_CYCLES live cycles
(whole bands join while they fit, always at least one).  Each band keeps
its own generator seeded with cfg.seed and draws per step one normal per
live cycle, then one uniform per live cycle still above s, so every
estimate equals that of the band run alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .discretize import nearest_node
from .model import DISCOUNTED, JUMP, ProblemSpec, eval2
from .policy import FeedbackPolicy

DISCOUNT_CUTOFF = 1e-8
SUPPORT_TOL = 1e-7  # mu1 share below which a node is not in the singular support


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

    def sample(self, node_idx: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Controls at node_idx for the uniforms r (drawn even when unused)."""
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


def _cluster_node(nodes: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Index of the node of nodes[lo:hi + 1] nearest to each x.

    The global nearest node clamped into the cluster: for sorted nodes this
    is nearest_node on the slice, ties included.
    """
    return np.minimum(np.maximum(nearest_node(nodes, x), lo), hi)


def _support_clusters(policy: FeedbackPolicy):
    """Index clusters of the mu1 support (adjacent covered state nodes)."""
    total = float(policy.mu1_marginal.sum())
    if total <= 0:
        return []
    sig = np.flatnonzero(policy.mu1_marginal > SUPPORT_TOL * total)
    sig = np.array([i for i in sig if i in policy.eta1.rows], dtype=int)
    if sig.size == 0:
        return []
    clusters = []
    start = prev = sig[0]
    for i in sig[1:]:
        if i == prev + 1:
            prev = i
            continue
        clusters.append((int(start), int(prev)))
        start = prev = i
    clusters.append((int(start), int(prev)))
    return clusters


class _Control:
    """The absolutely continuous control at each path's nearest node.

    A node the policy does not cover borrows the control of the nearest
    covered node (a bridged step).
    """

    def __init__(self, policy: FeedbackPolicy):
        n_nodes = policy.state_nodes.size
        if policy.strict:
            self.sampler = None
            self.covered = np.zeros(n_nodes, dtype=bool)
            uvals = np.zeros(n_nodes)
            for i, u in policy.strict.items():
                self.covered[i] = True
                uvals[i] = u
            self.bridge = _bridge_map(self.covered)
            self.strict_u = uvals[self.bridge]  # the bridged control per node
        else:
            self.sampler = _KernelSampler(policy.eta0, n_nodes)
            self.covered = self.sampler.covered
            self.bridge = _bridge_map(self.covered)

    def __call__(self, node_idx: np.ndarray, rng) -> np.ndarray:
        if self.sampler is None:
            return self.strict_u[node_idx]
        return self.sampler.sample(self.bridge[node_idx], rng.random(node_idx.size))


class _Accumulators:
    """Per-path sums of one run.

    Running and singular cost, discount-weighted budget usage (held to its
    cap only in mean, never per path) and, when a basis is given, the
    martingale residuals f(X_T) - f(X_0) - sum of (Af) dt and of Bf over
    the singular actions, one row per test function.  A weight of exactly 1 is never
    multiplied in, which leaves every sum unchanged.
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
        self.run_cost += (c0 if w == 1.0 else w * c0) * dt
        for i, bud in enumerate(self.costs.budgets):
            gv = eval2(bud.g, x, u)
            self.bud_acc[i] += (gv if w == 1.0 else w * gv) * dt

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
        c1 = eval2(self.costs.c1, xs, u)
        if wc != 1.0:
            c1 = wc * c1
        self.sing_cost[sub] += c1 if dxi is None else c1 * dxi
        for i, bud in enumerate(self.costs.budgets):
            hv = eval2(bud.h, xs, u)
            if dxi is not None:
                hv = hv * dxi
            self.bud_acc[i][sub] += hv if wc == 1.0 else wc * hv

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


def _jump_action(problem, nodes, triggers, sampler, acc, rng, x, x_new, wc):
    """Jump the paths that crossed down to a cluster's top node this step.

    A path crosses the trigger level when it steps from above it to at or
    below it; on the first step (x is None) every path at or below it acts.
    Its jump is drawn from eta1 at its nearest node of the cluster.
    """
    for trig, lo, hi in triggers:
        crossed = x_new <= trig
        if x is not None:
            crossed &= x > trig
        if not crossed.any():
            continue
        sub = np.flatnonzero(crossed)
        xs = x_new[sub]
        near = np.full(sub.size, lo) if lo == hi else _cluster_node(nodes, xs, lo, hi)
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
        if not over.any():
            continue
        sub = np.flatnonzero(over)
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


def _singular_action(problem: ProblemSpec, policy: FeedbackPolicy, clusters):
    """The policy's singular action as action(acc, rng, x, x_new, wc), or None.

    Jump problems act when a path crosses into the support from above (band
    behaviour); gradient problems reflect at the support edge.
    """
    nodes = policy.state_nodes
    if problem.gen_b.kind == JUMP:
        triggers = [(float(nodes[hi]), lo, hi) for lo, hi in clusters]
        if not triggers:
            return None
        sampler = _KernelSampler(policy.eta1, nodes.size)
        return partial(_jump_action, problem, nodes, triggers, sampler)
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

    control = _Control(policy)
    clusters = _support_clusters(policy)
    action = _singular_action(problem, policy, clusters)
    x = _initial_states(problem, policy, rng, cfg.n_paths)
    acc = _Accumulators(problem, basis, x, dt)
    # Visits per node before burn-in (row 0) and in the window (row 1).
    visits = np.zeros((2, nodes.size), dtype=np.int64)
    truncations = 0

    for k in range(n_steps):
        t = k * dt
        counted = k >= burn_steps
        w = math.exp(-alpha * t) if disc else 1.0
        node_idx = nearest_node(nodes, x)
        visits[int(counted)] += np.bincount(node_idx, minlength=nodes.size)
        u = control(node_idx, rng)
        x_new = _euler_step(problem, acc, rng, x, u, sqdt, w, counted)
        if action is not None:
            wc = (math.exp(-alpha * (t + dt)) if disc else 1.0) if counted else 0.0
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
        bridged_steps=int(visits.sum(axis=0)[~control.covered].sum()),
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
    """A band whose cycles are in the oracle's pool."""

    index: int  # position in the caller's band list
    rng: np.random.Generator
    slot: int  # its n entries of the per-cycle result buffers
    start: int  # pool step at which its cycles began
    deadline: int  # start + its step limit
    lo: int  # pool position of its first live cycle
    n_live: int


class _CyclePool:
    """The live regenerative cycles of several bands, stored band by band.

    Per live cycle: its state before and after the step, its cost so far,
    its band's s, where its results go (slot * n + cycle) and the step's
    draws (normals, then uniforms).  A band's slot holds the cost and the
    ending pool step of each of its n cycles.  The buffers are allocated
    once; slots serve twice the bands that fit at once, so new bands join
    while earlier ones finish their last cycles.
    """

    def __init__(self, problem: ProblemSpec, mu_d: float, n: int, dt: float):
        self.diffusion, self.c0 = problem.gen_a.diffusion, problem.costs.c0
        self.mu_d, self.n, self.dt = mu_d, n, dt
        self.cap = cap = max(_POOL_CYCLES, n)
        self.x, self.x1, self.c, self.s, self.draws = (np.empty(cap) for _ in range(5))
        self.u0 = np.zeros(cap)
        self.dest = np.empty(cap, dtype=np.intp)
        self.hit, self.keep = np.empty(cap, dtype=bool), np.empty(cap, dtype=bool)
        n_slots = 2 * (cap // n)
        self.res_cost = np.empty(n_slots * n)
        self.res_end = np.empty(n_slots * n, dtype=np.int64)
        self.free = list(range(n_slots - 1, -1, -1))
        self.live: list[_LiveBand] = []
        self.size = 0

    def has_room(self) -> bool:
        return bool(self.free) and self.size + self.n <= self.cap

    def admit(self, index: int, band: BandPolicy, rng, k: int, max_steps: int):
        """Start the n cycles of a band at S, at pool step k."""
        n, lo = self.n, self.size
        slot = self.free.pop()
        seg = slice(lo, lo + n)
        self.x[seg] = band.big_s
        self.c[seg] = 0.0
        self.s[seg] = band.s
        self.dest[seg] = np.arange(slot * n, slot * n + n)
        self.live.append(_LiveBand(index, rng, slot, k, k + max_steps, lo, n))
        self.size += n

    def _counts(self, mask: np.ndarray) -> list[int]:
        """Number of True entries of mask in each live band's segment."""
        if len(self.live) == 1:
            return [int(np.count_nonzero(mask))]
        return np.add.reduceat(mask, [b.lo for b in self.live], dtype=np.intp).tolist()

    def step(self):
        """One Euler step of every live cycle and its bridge crossing test.

        Leaves the new states in x1 and the cycles that reached s in hit.
        Each band draws one normal per live cycle, then one uniform per
        live cycle still above s, as it would alone.
        """
        m, dt = self.size, self.dt
        xs, xn, sl, u = self.x[:m], self.x1[:m], self.s[:m], self.u0[:m]
        zl, hl, kl = self.draws[:m], self.hit[:m], self.keep[:m]
        sig = eval2(self.diffusion, xs, u)
        for b in self.live:
            b.rng.standard_normal(out=self.draws[b.lo:b.lo + b.n_live])
        # xn = (xs - mu_d dt) + (sig sqrt(dt)) z, as one band alone computes it.
        np.multiply(sig, math.sqrt(dt), out=xn)
        xn *= zl
        np.subtract(xs, self.mu_d * dt, out=zl)
        xn += zl
        self.c[:m] += eval2(self.c0, xs, u) * dt
        np.less_equal(xn, sl, out=hl)
        np.logical_not(hl, out=kl)
        counts = self._counts(kl)
        n_above = sum(counts)
        if not n_above:
            return
        off = 0
        for b, cnt in zip(self.live, counts):
            if cnt:
                b.rng.random(out=self.draws[off:off + cnt])
                off += cnt
        sa = sl[kl]
        num = -2.0 * (xs[kl] - sa) * (xn[kl] - sa)
        log_p = num / (sig[kl] ** 2 * dt)
        # The crossing probability exp(log_p) decides only where it can
        # exceed the uniform.
        r = self.draws[:n_above]
        near = (log_p > _LOG_P_FLOOR) | (r == 0.0)
        crossed = np.zeros(n_above, dtype=bool)
        crossed[near] = r[near] < np.exp(log_p[near])
        hl[kl] = crossed

    def retire(self, k: int) -> list[_LiveBand]:
        """Record the cycles that ended at pool step k and compact the pool.

        Returns the bands left with no live cycle; their slots are free again
        once the caller has read them.
        """
        m = self.size
        hl, kl = self.hit[:m], self.keep[:m]
        np.logical_not(hl, out=kl)
        n_kept = int(np.count_nonzero(kl))
        if n_kept == m:
            self.x, self.x1 = self.x1, self.x
            return []
        ended = self.dest[:m][hl]
        self.res_cost[ended] = self.c[:m][hl]
        self.res_end[ended] = k
        kept = self._counts(kl)
        self.x[:n_kept] = self.x1[:m][kl]
        self.c[:n_kept] = self.c[:m][kl]
        self.s[:n_kept] = self.s[:m][kl]
        self.dest[:n_kept] = self.dest[:m][kl]
        self.size = n_kept
        still, done, lo = [], [], 0
        for b, cnt in zip(self.live, kept):
            if cnt:
                b.lo, b.n_live = lo, cnt
                lo += cnt
                still.append(b)
            else:
                done.append(b)
                self.free.append(b.slot)
        self.live = still
        return done


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
    exactly what it would draw alone.  Whole bands join a pool of at most
    _POOL_CYCLES live cycles (or one band) while they fit.  A cycle's time
    is the prefix sum of dt up to its step count.  When a band's last cycle
    ends, its estimate is reduced on its own n cycles, in cycle order.
    """
    mu_d = _inventory_shape(problem)
    for band in bands:
        if not (problem.state.x_lo <= band.s < band.big_s <= problem.state.x_hi):
            raise ValueError("band levels must lie inside the state interval")
    n, dt = cfg.n_paths, cfg.dt
    pool = _CyclePool(problem, mu_d, n, dt)
    results: list[OracleEstimate | None] = [None] * len(bands)
    queued = k = 0
    while True:
        while queued < len(bands) and pool.has_room():
            band = bands[queued]
            max_steps = int(math.ceil(50.0 * (band.big_s - band.s) / mu_d / dt)) + 10_000
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            pool.admit(queued, band, rng, k, max_steps)
            queued += 1
        if not pool.live:
            return results
        pool.step()
        k += 1
        for b in pool.retire(k):
            band = bands[b.index]
            row = slice(b.slot * n, (b.slot + 1) * n)
            steps = pool.res_end[row] - b.start
            t_acc = np.cumsum(np.full(k - b.start, dt))[steps - 1]
            order_cost = float(eval2(problem.costs.c1, np.array(band.s),
                                     np.array(band.big_s - band.s)))
            results[b.index] = _band_estimate(pool.res_cost[row] + order_cost, t_acc)
        if any(k >= b.deadline for b in pool.live):
            raise SimulationError("some regenerative cycles did not terminate")


def band_policy_oracle(problem: ProblemSpec, band: BandPolicy,
                       cfg: SimConfig) -> OracleEstimate:
    """Renewal-reward estimate of the long-run average cost of an (s, S) band.

    Each regenerative cycle starts at S and runs the diffusion to the hitting
    time of s (with a Brownian-bridge crossing test to remove the first-order
    discrete-monitoring bias), then pays the ordering cost of jumping back to
    S.  cfg.n_paths is the number of cycles; cfg.horizon and cfg.burn_in go
    unread.  The step loop is the one
    band_search uses (_band_cycles), here with a single band.
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
