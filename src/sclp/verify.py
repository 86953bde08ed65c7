"""Monte Carlo verification of extracted policies.

simulate() runs the controlled diffusion under a feedback policy with
committed singular-action semantics.  Each step is one shared Euler step
(_euler_step) under the absolutely continuous control (_Control), then the
singular action of the problem's kind: jump problems act when the state
crosses into the singular support from above (_jump_action, band
behaviour); gradient problems reflect the state at the support edge
(_gradient_action).  Per-path cost, budget and martingale sums live in
_Accumulators.  simulate() reports cost and budget estimates with
confidence intervals, martingale residuals for the supplied test
functions, and (long-term average) a stationarity distance.  For a fixed
seed the random draws come in a fixed order: the nu0 draw of the initial
states (discounted), then per step the kernel control's uniforms, the
normals, and one uniform per acting path and cluster.

band_policy_oracle() is an independent renewal-reward estimator for
inventory-shaped problems under an (s, S) ordering band; band_search()
brute-forces the best band with common random numbers.
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


class SimulationError(RuntimeError):
    """A simulation run failed (e.g. excessive state-interval truncation)."""


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    n_paths: int
    seed: int
    burn_in: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt > self.horizon / 100.0:
            raise ValueError("dt must be at most horizon/100")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0.0 <= self.burn_in < self.horizon:
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


def _support_clusters(policy: FeedbackPolicy, rel_tol: float = 1e-7):
    """Index clusters of the mu1 support (adjacent covered state nodes)."""
    total = float(policy.mu1_marginal.sum())
    if total <= 0:
        return []
    sig = np.flatnonzero(policy.mu1_marginal > rel_tol * total)
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

    Running and singular cost, budget usage (discount-weighted and raw),
    which paths may still act, and, when a basis is given, the martingale
    residuals f(X_T) - f(X_0) - sum of (Af) dt and of Bf over the singular
    actions, one row per test function.  A weight of exactly 1 is never
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
        self.bud_raw = np.zeros((len(budgets), n_paths))
        self.caps = np.array([b.cap for b in budgets])[:, None]
        # Pathwise budget exhaustion (discounted hard constraints only).
        self.capped = problem.criterion.kind == DISCOUNTED and bool(budgets)
        self.sing_enabled = np.ones(n_paths, dtype=bool)
        self.basis = basis
        if basis is not None:
            self.mart = np.zeros((len(basis), n_paths))
            (self.f0,) = basis.evaluate(x0, (0,))
            self.step_rows = (np.empty_like(self.mart), np.empty_like(self.mart))

    def running(self, x, u, w: float, counted: bool):
        """Running cost c0 dt (when counted) and budget usage g dt of a step."""
        dt = self.dt
        if counted:
            c0 = eval2(self.costs.c0, x, u)
            self.run_cost += (c0 if w == 1.0 else w * c0) * dt
        for i, bud in enumerate(self.costs.budgets):
            gv = eval2(bud.g, x, u)
            if counted:
                self.bud_acc[i] += (gv if w == 1.0 else w * gv) * dt
            self.bud_raw[i] += gv * dt

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
            self.bud_raw[i][sub] += hv

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

    def exhaust(self):
        """Stop singular action on paths whose raw usage passed a budget cap."""
        self.sing_enabled &= ~(self.bud_raw > self.caps).any(axis=0)

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
        if acc.capped:
            crossed &= acc.sing_enabled
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
    """Reflect the paths that stepped past a cluster's outer edge.

    Each is pushed back to the edge along gamma(edge, u), with u drawn from
    eta1 at the edge node; the push size is |x - edge| / |gamma|.  x (the
    state before the step) plays no part in reflection.
    """
    for edge, enode, side in barriers:
        over = x_new > edge if side < 0 else x_new < edge
        if acc.capped:
            over &= acc.sing_enabled
        if not over.any():
            continue
        sub = np.flatnonzero(over)
        u = sampler.sample(np.full(sub.size, enode), rng.random(sub.size))
        xs = x_new[sub]
        gam = eval2(problem.gen_b.direction, np.full(sub.size, edge), u)
        gam = np.where(np.abs(gam) < 1e-12, np.copysign(1e-12, -side), gam)
        dxi = np.abs(xs - edge) / np.abs(gam)
        acc.singular(sub, xs, u, wc, dxi)
        acc.push(sub, 0.5 * (xs + edge), u, dxi)
        x_new[sub] = edge


def _gradient_barriers(problem: ProblemSpec, policy: FeedbackPolicy, clusters):
    """(edge value, edge node, side) of each cluster that pushes outward.

    side -1 pushes down at the top edge, +1 pushes up at the bottom edge,
    as the direction of the edge node's most likely control says.
    """
    nodes, eta1 = policy.state_nodes, policy.eta1
    direction = problem.gen_b.direction
    barriers = []
    for lo, hi in clusters:
        u_outer_hi = eta1.prob_max(hi)[1] if hi in eta1.rows else 0.0
        if float(eval2(direction, nodes[hi], u_outer_hi)) < 0:
            barriers.append((float(nodes[hi]), hi, -1))
            continue
        u_outer_lo = eta1.prob_max(lo)[1] if lo in eta1.rows else 0.0
        if float(eval2(direction, nodes[lo], u_outer_lo)) > 0:
            barriers.append((float(nodes[lo]), lo, +1))
    return barriers


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
        if acc.capped:
            acc.exhaust()
        if x_new.min() < x_lo or x_new.max() > x_hi:
            truncations += int((x_new < x_lo).sum()) + int((x_new > x_hi).sum())
            x_new = np.clip(x_new, x_lo, x_hi)
        x = x_new

    total_steps = n_steps * cfg.n_paths
    if truncations > 0.01 * total_steps:
        raise SimulationError(
            f"{truncations} of {total_steps} steps left the state interval")
    acc.finish(x)

    cost, budgets = _cost_estimates(problem, cfg, acc, nodes, horizon)
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
        budget_exhausted_paths=int((~acc.sing_enabled).sum()),
        n_paths=cfg.n_paths,
    )


def _cost_estimates(problem: ProblemSpec, cfg: SimConfig, acc: _Accumulators,
                    nodes: np.ndarray, horizon: float):
    """Cost and budget estimates: discounted totals or long-run averages."""
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
        return cost, [Estimate(f"budget_{b.name}", float(acc.bud_acc[i].mean()),
                               _half_width(acc.bud_acc[i]), n_paths)
                      for i, b in enumerate(budgets)]
    denom = horizon - cfg.burn_in
    cost_paths = (acc.run_cost + acc.sing_cost) / denom
    cost = Estimate("lta_cost", float(cost_paths.mean()),
                    _half_width(cost_paths), n_paths)
    return cost, [Estimate(f"budget_{b.name}", float(acc.bud_acc[i].mean() / denom),
                           _half_width(acc.bud_acc[i] / denom), n_paths)
                  for i, b in enumerate(budgets)]


@dataclass
class OracleEstimate:
    cost: float
    half_width: float
    mean_cycle_length: float
    cycle_length_half_width: float
    mean_cycle_cost: float
    n_cycles: int


def _inventory_shape(problem: ProblemSpec):
    """Check the inventory preconditions; returns (mu_d, constant drift flag)."""
    if problem.gen_b.kind != JUMP:
        raise ValueError("band oracle requires a jump singular generator")
    xs = np.linspace(problem.state.x_lo, problem.state.x_hi, 7)
    us = np.linspace(problem.control.u_lo, problem.control.u_hi, 5)
    xx, uu = np.meshgrid(xs, us, indexing="ij")
    dj = eval2(problem.gen_b.displacement, xx, uu)
    if not np.allclose(dj, uu, atol=1e-12):
        raise ValueError("band oracle requires jump displacement d(x, u) = u")
    dr = eval2(problem.gen_a.drift, xx, uu)
    if np.ptp(dr) > 1e-12:
        raise ValueError("band oracle requires a constant drift")
    mu_d = -float(dr.flat[0])
    if mu_d <= 0:
        raise ValueError("band oracle requires strictly negative drift "
                         "(cycles may not terminate otherwise)")
    return mu_d


def band_policy_oracle(problem: ProblemSpec, band: BandPolicy,
                       cfg: SimConfig) -> OracleEstimate:
    """Renewal-reward estimate of the long-run average cost of an (s, S) band.

    Each regenerative cycle starts at S and runs the diffusion to the hitting
    time of s (with a Brownian-bridge crossing test to remove the first-order
    discrete-monitoring bias), then pays the ordering cost of jumping back to
    S.  cfg.n_paths is the number of cycles.
    """
    mu_d = _inventory_shape(problem)
    if not (problem.state.x_lo <= band.s < band.big_s <= problem.state.x_hi):
        raise ValueError("band levels must lie inside the state interval")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n = cfg.n_paths
    dt = cfg.dt
    sqdt = math.sqrt(dt)
    s, big_s = band.s, band.big_s
    order_cost = float(eval2(problem.costs.c1, np.array(s), np.array(big_s - s)))

    x = np.full(n, big_s)
    t_acc = np.zeros(n)
    c_acc = np.zeros(n)
    active = np.ones(n, dtype=bool)
    max_steps = int(math.ceil(50.0 * (big_s - s) / mu_d / dt)) + 10_000
    u0 = np.zeros(n)
    for _ in range(max_steps):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xs = x[idx]
        sig = eval2(problem.gen_a.diffusion, xs, u0[:idx.size])
        z = rng.standard_normal(idx.size)
        x1 = xs - mu_d * dt + sig * sqdt * z
        c_acc[idx] += eval2(problem.costs.c0, xs, u0[:idx.size]) * dt
        t_acc[idx] += dt
        hit = x1 <= s
        both_above = ~hit
        if both_above.any():
            num = -2.0 * (xs[both_above] - s) * (x1[both_above] - s)
            p_cross = np.exp(num / (sig[both_above] ** 2 * dt))
            hit[both_above] = rng.random(both_above.sum()) < p_cross
        x[idx] = x1
        done = idx[hit]
        active[done] = False
    if active.any():
        raise SimulationError("some regenerative cycles did not terminate")

    cycle_cost = c_acc + order_cost
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


@dataclass
class BandSearchResult:
    best: BandPolicy
    cost: float
    half_width: float
    table: list[tuple[float, float, float, float]]  # (s, S, cost, half_width)


def band_search(problem: ProblemSpec, s_grid, S_grid, cfg: SimConfig) -> BandSearchResult:
    """Evaluate every s < S pair with common random numbers; return the minimizer.

    Pairs are scanned in lexicographic (s, S) order and only strictly lower
    costs replace the incumbent, so exact-cost ties resolve to the
    lexicographically smallest pair.
    """
    pairs = [(float(s), float(S)) for s in s_grid for S in S_grid if s < S]
    if not pairs:
        raise ValueError("no (s, S) pairs with s < S")
    pairs.sort()
    best = None
    table = []
    for s, S in pairs:
        est = band_policy_oracle(problem, BandPolicy(s, S), cfg)
        table.append((s, S, est.cost, est.half_width))
        if best is None or est.cost < best[2]:
            best = (s, S, est.cost, est.half_width)
    return BandSearchResult(best=BandPolicy(best[0], best[1]), cost=best[2],
                            half_width=best[3], table=table)
