"""Monte Carlo verification of extracted policies.

simulate() runs the controlled diffusion under a feedback policy with
committed singular-action semantics: jump problems act when the state
crosses into the singular support from above (band behavior); gradient
problems reflect the state at the support edge.  It reports cost and
budget estimates with confidence intervals, martingale residuals for the
supplied test functions, and (long-term average) a stationarity distance.

band_policy_oracle() is an independent renewal-reward estimator for
inventory-shaped problems under an (s, S) ordering band; band_search()
brute-forces the best band with common random numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        choice = (r[:, None] > self.cdf[node_idx]).sum(axis=1)
        choice = np.minimum(choice, self.uval.shape[1] - 1)
        return self.uval[node_idx, choice]


def _bridge_map(covered: np.ndarray) -> np.ndarray:
    """Map every node index to the nearest covered node index."""
    idxs = np.flatnonzero(covered)
    if idxs.size == 0:
        raise ValueError("kernel covers no state node")
    return idxs[nearest_node(idxs, np.arange(covered.size))]


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


def simulate(problem: ProblemSpec, policy: FeedbackPolicy, cfg: SimConfig,
             basis=None) -> VerificationReport:
    """Simulate the controlled process and estimate costs, budgets and residuals.

    basis, when given, is a BasisFamily whose elements' martingale residuals
    are reported.  Deterministic for fixed (problem, policy, cfg).
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nodes = policy.state_nodes
    n_nodes = nodes.size
    x_lo, x_hi = policy.x_lo, policy.x_hi
    disc = problem.criterion.kind == DISCOUNTED
    alpha = problem.criterion.alpha if disc else 0.0
    horizon = math.log(1.0 / DISCOUNT_CUTOFF) / alpha if disc else cfg.horizon
    n_steps = int(round(horizon / cfg.dt))
    n_paths = cfg.n_paths
    dt = cfg.dt
    sqdt = math.sqrt(dt)

    # Absolutely continuous control lookup.
    strict = policy.strict
    if strict:
        covered0 = np.zeros(n_nodes, dtype=bool)
        uvals0 = np.zeros(n_nodes)
        for i, u in strict.items():
            covered0[i] = True
            uvals0[i] = u
        sampler0 = None
    else:
        sampler0 = _KernelSampler(policy.eta0, n_nodes)
        covered0 = sampler0.covered
        uvals0 = None
    bridge0 = _bridge_map(covered0)

    # Singular-action setup.
    clusters = _support_clusters(policy)
    multi_cluster = len(clusters) > 1
    sampler1 = _KernelSampler(policy.eta1, n_nodes) if policy.eta1.rows else None
    jump_kind = problem.gen_b.kind == JUMP
    grad_barriers = []  # (edge value, edge node, +1 pushes up / -1 pushes down)
    jump_triggers = []  # (trigger value, cluster lo idx, cluster hi idx)
    for lo, hi in clusters:
        if jump_kind:
            jump_triggers.append((float(nodes[hi]), lo, hi))
        else:
            u_outer_hi = policy.eta1.prob_max(hi)[1] if hi in policy.eta1.rows else 0.0
            gdir = float(eval2(problem.gen_b.direction, nodes[hi], u_outer_hi))
            if gdir < 0:
                grad_barriers.append((float(nodes[hi]), hi, -1))
            else:
                u_outer_lo = policy.eta1.prob_max(lo)[1] if lo in policy.eta1.rows else 0.0
                gdir = float(eval2(problem.gen_b.direction, nodes[lo], u_outer_lo))
                if gdir > 0:
                    grad_barriers.append((float(nodes[lo]), lo, +1))

    # Initial states.
    if disc:
        pts = np.array([x for x, _ in problem.criterion.nu0])
        probs = np.array([p for _, p in problem.criterion.nu0])
        x = rng.choice(pts, size=n_paths, p=probs / probs.sum())
    else:
        x = np.full(n_paths, float(nodes[int(np.argmax(policy.mu0_marginal))]))

    # Martingale residuals f(X_T) - f(X_0) - sum of Af dt and Bf over the
    # singular actions, one row per test function.
    if basis is not None:
        mart = np.zeros((len(basis), n_paths))
        (f0_vals,) = basis.evaluate(x, (0,))
        step_rows = (np.empty_like(mart), np.empty_like(mart))  # f', f''

    run_cost = np.zeros(n_paths)
    sing_cost = np.zeros(n_paths)
    n_budgets = len(problem.costs.budgets)
    bud_acc = np.zeros((n_budgets, n_paths))
    bud_raw = np.zeros((n_budgets, n_paths))
    sing_enabled = np.ones(n_paths, dtype=bool)
    hist = np.zeros(n_nodes)
    truncations = 0
    bridged = 0

    burn_steps = int(round(cfg.burn_in / dt)) if not disc else 0

    for k in range(n_steps):
        t = k * dt
        w = math.exp(-alpha * t) if disc else 1.0
        in_window = (not disc) and k >= burn_steps

        node_idx = nearest_node(nodes, x)
        bridged_now = ~covered0[node_idx]
        bridged += int(bridged_now.sum())
        lookup = bridge0[node_idx]
        if strict:
            u = uvals0[lookup]
        else:
            u = sampler0.sample(lookup, rng.random(n_paths))

        if in_window:
            np.add.at(hist, node_idx, 1.0)

        if disc or in_window:
            run_cost += w * eval2(problem.costs.c0, x, u) * dt
        for i, bud in enumerate(problem.costs.budgets):
            gv = eval2(bud.g, x, u)
            if disc or in_window:
                bud_acc[i] += w * gv * dt
            bud_raw[i] += gv * dt

        drift = eval2(problem.gen_a.drift, x, u)
        sig = eval2(problem.gen_a.diffusion, x, u)
        if basis is not None:
            d1, d2 = basis.evaluate(x, (1, 2), out=step_rows)
            d2 *= 0.5 * sig * sig
            d1 *= drift
            d2 += d1
            d2 *= dt
            mart -= d2

        z = rng.standard_normal(n_paths)
        x_new = x + drift * dt + sig * sqdt * z

        # Singular actions.
        if jump_kind and jump_triggers and sampler1 is not None:
            for trig, lo, hi in jump_triggers:
                crossed = (x > trig) & (x_new <= trig) & sing_enabled
                if k == 0:
                    crossed |= (x_new <= trig) & sing_enabled
                if not crossed.any():
                    continue
                sub = np.flatnonzero(crossed)
                near = nearest_node(nodes[lo:hi + 1], x_new[sub]) + lo
                uj = sampler1.sample(near, rng.random(sub.size))
                xs = x_new[sub]
                dj = eval2(problem.gen_b.displacement, xs, uj)
                target = xs + dj
                wj = math.exp(-alpha * (t + dt)) if disc else 1.0
                wc = wj if (disc or k >= burn_steps) else 0.0
                sing_cost[sub] += wc * eval2(problem.costs.c1, xs, uj)
                for i, bud in enumerate(problem.costs.budgets):
                    hv = eval2(bud.h, xs, uj)
                    bud_acc[i][sub] += wc * hv
                    bud_raw[i][sub] += hv
                if basis is not None:
                    (jump,) = basis.evaluate(target, (0,))
                    jump -= basis.evaluate(xs, (0,))[0]
                    mart[:, sub] -= jump
                x_new[sub] = target
        elif (not jump_kind) and grad_barriers and sampler1 is not None:
            for edge, enode, side in grad_barriers:
                if side < 0:
                    over = (x_new > edge) & sing_enabled
                else:
                    over = (x_new < edge) & sing_enabled
                if not over.any():
                    continue
                sub = np.flatnonzero(over)
                ug = sampler1.sample(np.full(sub.size, enode), rng.random(sub.size))
                xs = x_new[sub]
                gam = eval2(problem.gen_b.direction, np.full(sub.size, edge), ug)
                gam = np.where(np.abs(gam) < 1e-12, np.copysign(1e-12, -side), gam)
                dxi = np.abs(xs - edge) / np.abs(gam)
                xm = 0.5 * (xs + edge)
                wj = math.exp(-alpha * (t + dt)) if disc else 1.0
                wc = wj if (disc or k >= burn_steps) else 0.0
                sing_cost[sub] += wc * eval2(problem.costs.c1, xs, ug) * dxi
                for i, bud in enumerate(problem.costs.budgets):
                    hv = eval2(bud.h, xs, ug) * dxi
                    bud_acc[i][sub] += wc * hv
                    bud_raw[i][sub] += hv
                if basis is not None:
                    (push,) = basis.evaluate(xm, (1,))
                    push *= eval2(problem.gen_b.direction, xm, ug)
                    push *= dxi
                    mart[:, sub] -= push
                x_new[sub] = edge

        # Pathwise budget exhaustion (discounted hard constraints only).
        if disc and n_budgets:
            exceeded = (bud_raw > np.array([b.cap for b in problem.costs.budgets]
                                           )[:, None]).any(axis=0)
            sing_enabled &= ~exceeded

        below = x_new < x_lo
        above = x_new > x_hi
        truncations += int(below.sum()) + int(above.sum())
        x = np.clip(x_new, x_lo, x_hi)

    total_steps = n_steps * n_paths
    if truncations > 0.01 * total_steps:
        raise SimulationError(
            f"{truncations} of {total_steps} steps left the state interval")

    if basis is not None:
        (f1_vals,) = basis.evaluate(x, (0,))
        f1_vals -= f0_vals
        mart += f1_vals

    if disc:
        cost_paths = run_cost + sing_cost
        # Discount-truncation tail bound, added to the half-width.
        xx, uu = np.meshgrid(nodes, np.array([problem.control.u_lo,
                                              problem.control.u_hi]), indexing="ij")
        c0max = float(eval2(problem.costs.c0, xx, uu).max())
        tail = c0max * DISCOUNT_CUTOFF / alpha
        cost = Estimate("discounted_cost", float(cost_paths.mean()),
                        _half_width(cost_paths) + tail, n_paths)
        budgets = [Estimate(f"budget_{b.name}", float(bud_acc[i].mean()),
                            _half_width(bud_acc[i]), n_paths)
                   for i, b in enumerate(problem.costs.budgets)]
        stat_tv = None
    else:
        denom = horizon - cfg.burn_in
        cost_paths = (run_cost + sing_cost) / denom
        cost = Estimate("lta_cost", float(cost_paths.mean()),
                        _half_width(cost_paths), n_paths)
        budgets = [Estimate(f"budget_{b.name}", float(bud_acc[i].mean() / denom),
                            _half_width(bud_acc[i] / denom), n_paths)
                   for i, b in enumerate(problem.costs.budgets)]
        total_hist = hist.sum()
        if total_hist > 0:
            p_emp = hist / total_hist
            p_ref = policy.mu0_marginal / policy.mu0_marginal.sum()
            stat_tv = 0.5 * float(np.abs(p_emp - p_ref).sum())
        else:
            stat_tv = None

    residuals = [] if basis is None else [
        Estimate(f"mart[{name}]", float(row.mean()), _half_width(row), n_paths)
        for name, row in zip(basis.names, mart)]

    return VerificationReport(
        cost=cost, budgets=budgets, martingale_residuals=residuals,
        stationarity_distance=stat_tv,
        truncation_events=truncations, total_steps=total_steps,
        bridged_steps=bridged,
        multi_cluster_support=multi_cluster,
        budget_exhausted_paths=int((~sing_enabled).sum()),
        n_paths=n_paths,
    )


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
