import math

import numpy as np
import pytest

from sclp.basis import BasisFamily, C2Function, constant_one
from sclp.discretize import (Grid, assemble_discounted_lp, assemble_lta_lp,
                             build_grid, nearest_node, node_cuts)
from sclp.model import (Criterion, CostSpec, ControlSpace, DISCOUNTED,
                        GeneratorA, GeneratorB, JUMP, LONG_TERM_AVERAGE,
                        ProblemSpec, StateSpace, eval2)
from sclp.policy import FeedbackPolicy, Kernel, MeasurePair, marginals_and_kernels
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import solve
from sclp.verify import (BandPolicy, SimConfig, SimulationError, _ClosedLoop,
                         _cluster_node, _KernelSampler, _Ledger, band_policy_oracle,
                         band_search, simulate)


def make_problem(drift, diffusion, c0, c1, x_lo=-2.0, x_hi=2.0):
    return ProblemSpec(
        state=StateSpace(x_lo, x_hi),
        control=ControlSpace(0.0, 1.0),
        gen_a=GeneratorA(drift=drift, diffusion=diffusion),
        gen_b=GeneratorB(kind=JUMP, displacement=lambda x, u: u),
        costs=CostSpec(c0=c0, c1=c1),
        criterion=Criterion(kind=LONG_TERM_AVERAGE),
        name="toy")


def idle_policy(problem, n_state=9):
    """A do-nothing policy: all mu0 mass at the middle node, no mu1 mass."""
    grid = build_grid(problem, n_state, 2)
    w0 = np.zeros(grid.n0)
    # atoms are ordered x-major; pick the (middle node, u=0) atom
    mid = np.argmin(np.abs(grid.mu0_atoms[:, 0]) + grid.mu0_atoms[:, 1])
    w0[mid] = 1.0
    return marginals_and_kernels(grid, MeasurePair(w0=w0, w1=np.zeros(grid.n1)))


ZERO = lambda x, u: np.zeros_like(np.asarray(x, float))
ONE = lambda x, u: np.ones_like(np.asarray(x, float))


def test_zero_cost_gives_zero_estimate():
    p = make_problem(drift=ZERO, diffusion=lambda x, u: 0.3 * ONE(x, u),
                     c0=ZERO, c1=ZERO)
    rep = simulate(p, idle_policy(p), SimConfig(dt=0.01, horizon=5.0,
                                                n_paths=8, seed=0))
    assert rep.cost.value == 0.0
    assert rep.cost.half_width == 0.0


def test_constant_cost_frozen_dynamics():
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=ONE, c1=ZERO)
    rep = simulate(p, idle_policy(p), SimConfig(dt=0.01, horizon=5.0,
                                                n_paths=4, seed=0))
    assert rep.cost.value == pytest.approx(1.0, abs=1e-12)
    assert rep.cost.half_width == pytest.approx(0.0, abs=1e-12)


def test_constant_test_function_residual_exactly_zero():
    p = inventory_problem()
    grid = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    sol = solve(assemble_lta_lp(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    fam = BasisFamily((constant_one(),))
    rep = simulate(p, pol, SimConfig(dt=0.01, horizon=5.0, n_paths=4, seed=1),
                   basis=fam)
    e = rep.martingale_residuals[0]
    assert e.value == 0.0 and e.half_width == 0.0


def test_simulation_deterministic():
    p = inventory_problem()
    grid = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    sol = solve(assemble_lta_lp(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    cfg = SimConfig(dt=0.01, horizon=20.0, n_paths=12, seed=42, burn_in=2.0)
    r1 = simulate(p, pol, cfg)
    r2 = simulate(p, pol, cfg)
    assert r1.cost.value == r2.cost.value
    assert r1.cost.half_width == r2.cost.half_width
    assert r1.stationarity_distance == r2.stationarity_distance
    assert r1.to_csv() == r2.to_csv()


def test_truncation_failure():
    # Strong outward drift with no singular control pins paths at the wall.
    p = make_problem(drift=lambda x, u: 10.0 * ONE(x, u),
                     diffusion=ONE, c0=ZERO, c1=ZERO,
                     x_lo=-1.0, x_hi=1.0)
    with pytest.raises(SimulationError, match="state interval"):
        simulate(p, idle_policy(p), SimConfig(dt=0.01, horizon=10.0,
                                              n_paths=4, seed=0))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.5, horizon=10.0, n_paths=4, seed=0)  # dt > horizon/100
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=10.0, n_paths=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=10.0, n_paths=4, seed=0, burn_in=10.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, horizon=None, n_paths=4, seed=0)
    # Without a horizon, dt and burn_in have nothing to be checked against,
    # and only a long-term-average simulation needs one.
    cfg = SimConfig(dt=0.5, horizon=None, n_paths=4, seed=0)
    p = make_problem(drift=ZERO, diffusion=ONE, c0=ZERO, c1=ZERO)
    with pytest.raises(ValueError, match="needs a horizon"):
        simulate(p, idle_policy(p), cfg)


@pytest.mark.parametrize("dt, horizon", [(math.inf, None), (math.nan, None),
                                         (0.01, math.inf), (0.01, math.nan)])
def test_sim_config_rejects_non_finite_dt_and_horizon(dt, horizon):
    with pytest.raises(ValueError):
        SimConfig(dt=dt, horizon=horizon, n_paths=4, seed=0)


def test_simulation_without_a_step_raises():
    # A discounted run lasts log(1 / DISCOUNT_CUTOFF) / alpha = 18.4: a
    # step of 50 rounds it to no step at all.
    p = make_problem(drift=ZERO, diffusion=ONE, c0=ONE, c1=ZERO)
    p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a, gen_b=p.gen_b,
                    costs=p.costs, criterion=Criterion(kind=DISCOUNTED, alpha=1.0,
                                                       nu0=((0.0, 1.0),)))
    with pytest.raises(ValueError, match="no step"):
        simulate(p, idle_policy(p), SimConfig(dt=50.0, horizon=None, n_paths=4, seed=0))


@pytest.mark.parametrize("burn_in", [0.996, 0.994, 0.99, 0.9])
def test_lta_window_counts_whole_steps(burn_in):
    # Unit running cost: the long-run average is 1 over the window's whole
    # steps, and a burn-in that rounds to the horizon leaves no step.
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=ONE, c1=ZERO)
    if burn_in == 0.996:
        with pytest.raises(ValueError, match="leaves no step"):
            SimConfig(dt=0.01, horizon=1.0, n_paths=4, seed=0, burn_in=burn_in)
    else:
        cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=4, seed=0, burn_in=burn_in)
        assert simulate(p, idle_policy(p), cfg).cost.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("discounted, burn_in", [(True, 0.0), (False, 0.0), (False, 0.05)])
def test_ledger_weights_match_a_plain_loop(discounted, burn_in):
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=lambda x, u: 1.0 + x * x,
                     c1=lambda x, u: 0.5 + x)
    alpha = 0.7 if discounted else 0.0
    if discounted:
        p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                        gen_b=p.gen_b, costs=p.costs,
                        criterion=Criterion(kind=DISCOUNTED, alpha=alpha,
                                            nu0=((0.0, 1.0),)))
    dt = 0.01
    cfg = SimConfig(dt=dt, horizon=1.0, n_paths=3, seed=0, burn_in=burn_in)
    nodes = np.linspace(-2.0, 2.0, 9)
    acc = _Ledger(p, cfg, None, np.zeros(3), nodes)
    burn = round(burn_in / dt)
    x = np.array([-0.3, 0.1, 1.7])
    sub = np.array([0, 2])
    run, sing = [0.0] * 3, [0.0] * 3
    # Visit counts per bin: the 3 paths at node 0, which is bin 1.
    counts = np.bincount(np.ones(3, dtype=np.intp), minlength=nodes.size + 2)
    for k in range(12):
        xk = x + 0.01 * k
        acc.step(k, xk, np.zeros(3), counts, np.zeros(3), np.zeros(3))
        acc.jump(sub, xk[sub], np.ones(2), xk[sub] + 1.0)
        t = k * dt
        wc = math.exp(-alpha * (t + dt)) if k >= burn else 0.0
        assert acc.action_weight == wc
        for i in range(3):
            if k >= burn:
                run[i] += math.exp(-alpha * t) * (1.0 + xk[i] * xk[i]) * dt
            if i in (0, 2):
                sing[i] += wc * (0.5 + xk[i])
    assert acc.run_cost.tolist() == run
    assert acc.sing_cost.tolist() == sing
    assert acc.visits.sum(axis=1).tolist() == [3 * min(burn, 12), 3 * (12 - min(burn, 12))]


def _reference_run(problem, policy, cfg):
    """simulate's long-term-average steps as a plain loop, without singular action.

    Each step finds every path's nearest node, samples its control from the
    row of the covered node nearest in state (ties to the left), charges
    c0 dt and takes the Euler step; then it clips, after the (absent)
    action, counting the paths below and above the interval.  Returns the
    per-path running costs, the visits per node before the burn-in and in
    the window, and the two truncation counts.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    nodes = policy.state_nodes
    lo, hi = nodes[0], nodes[-1]
    owners = sorted(policy.eta0.rows)
    rows = [policy.eta0.rows[min(owners, key=lambda j: (abs(nodes[j] - x), j))]
            for x in nodes]
    cdfs = [np.cumsum(p) for _, p in rows]
    relaxed = any(u.size > 1 for u, _ in rows)
    dt = cfg.dt
    n_steps, burn = round(cfg.horizon / dt), round(cfg.burn_in / dt)
    x = np.full(cfg.n_paths, nodes[np.argmax(policy.mu0_marginal)])
    run = np.zeros(cfg.n_paths)
    visits = np.zeros((2, nodes.size), dtype=np.int64)
    below = above = 0
    for k in range(n_steps):
        node = nearest_node(nodes, x)
        r = rng.random(x.size) if relaxed else np.zeros(x.size)
        u = np.array([rows[j][0][min(int((ri > cdfs[j]).sum()), rows[j][0].size - 1)]
                      for j, ri in zip(node, r)])
        np.add.at(visits[int(k >= burn)], node, 1)
        drift = eval2(problem.gen_a.drift, x, u)
        sig = eval2(problem.gen_a.diffusion, x, u)
        if k >= burn:
            run += math.exp(-0.0 * k * dt) * eval2(problem.costs.c0, x, u) * dt
        x_new = x + drift * dt + sig * math.sqrt(dt) * rng.standard_normal(x.size)
        below += int((x_new < lo).sum())
        above += int((x_new > hi).sum())
        x = np.clip(x_new, lo, hi)
    return run, visits, below, above


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("diffusion", ["constant", "state"])
def test_step_bookkeeping_matches_a_plain_loop(monkeypatch, relaxed, diffusion):
    # Mean reversion to about 0 on [-1.5, 1.5] (nodes 0.25 apart, exact in
    # binary): paths are clipped at both ends.  Nodes 3 and 9 have no eta0
    # row, so their steps are bridged.
    sig = (lambda x, u: 0.7) if diffusion == "constant" else (lambda x, u: 0.7 + 0.2 * u)
    p = make_problem(drift=lambda x, u: u - x, diffusion=sig,
                     c0=lambda x, u: x * x + u, c1=ZERO, x_lo=-1.5, x_hi=1.5)
    nodes = np.linspace(-1.5, 1.5, 13)
    covered = [i for i in range(13) if i not in (3, 9)]
    if relaxed:
        row = lambda i: (np.array([-0.25, 0.125 + 0.01 * i]), np.array([0.375, 0.625]))
    else:
        row = lambda i: (np.array([0.02 * i - 0.12]), np.array([1.0]))
    mu0 = np.where(nodes == 0.0, 0.5, 0.5 / 12)
    pol = FeedbackPolicy(nodes, mu0, np.zeros(13), eta0=Kernel({i: row(i) for i in covered}),
                         eta1=Kernel())
    cfg = SimConfig(dt=0.01, horizon=6.0, n_paths=48, seed=5, burn_in=1.0)
    seen = {}
    estimates = _Ledger.estimates

    def spy(acc, mu0, covered):
        seen.update(visits=acc.visits.copy(), run=acc.run_cost.copy(), sing=acc.sing_cost.copy())
        return estimates(acc, mu0, covered)

    monkeypatch.setattr(_Ledger, "estimates", spy)
    rep = simulate(p, pol, cfg)
    run, visits, below, above = _reference_run(p, pol, cfg)
    assert below > 0 and above > 0
    assert rep.truncation_events == below + above
    assert seen["visits"][:, 1:-1].tolist() == visits.tolist()
    assert seen["visits"][:, [0, -1]].tolist() == [[0, 0], [0, 0]]
    assert rep.bridged_steps == int(visits[:, [3, 9]].sum()) > 0
    assert seen["run"].tobytes() == run.tobytes()
    assert not seen["sing"].any()


def test_a_start_outside_the_interval_visits_its_end_node(monkeypatch):
    # Frozen dynamics from a nu0 point below x_lo = -2: step 0 charges c0 at
    # the start as it is (6.25), at node 0, and its end state is clipped to
    # -2 (one truncation per path), where every later step charges 4.
    alpha, dt = 2.0, 0.01
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=lambda x, u: x * x, c1=ZERO)
    p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a, gen_b=p.gen_b,
                    costs=p.costs, criterion=Criterion(kind=DISCOUNTED, alpha=alpha,
                                                       nu0=((-2.5, 1.0),)))
    point = (np.array([0.0]), np.array([1.0]))
    pol = FeedbackPolicy(np.linspace(-2.0, 2.0, 9), np.full(9, 1.0 / 9), np.zeros(9),
                         eta0=Kernel({i: point for i in range(9)}), eta1=Kernel())
    seen = {}
    estimates = _Ledger.estimates

    def spy(acc, mu0, covered):
        seen["visits"] = acc.visits.copy()
        return estimates(acc, mu0, covered)

    monkeypatch.setattr(_Ledger, "estimates", spy)
    rep = simulate(p, pol, SimConfig(dt=dt, horizon=None, n_paths=4, seed=0))
    n_steps = rep.total_steps // 4
    assert rep.truncation_events == 4
    assert seen["visits"][1].tolist() == [0, 4 * n_steps] + [0] * 9
    later = sum(math.exp(-alpha * k * dt) for k in range(1, n_steps))
    assert rep.cost.value == pytest.approx((6.25 + 4.0 * later) * dt, rel=1e-12)


def test_nan_state_raises_naming_its_step():
    # From x = 0 in steps of 1/8, the drift turns NaN above 0.5: step 4 takes
    # the paths from 0.5 to 0.625, and step 5 leaves them NaN.  Unchecked,
    # the run printed lta_cost nan with no truncation.
    p = make_problem(drift=lambda x, u: np.where(x > 0.5, np.nan, 1.0), diffusion=ZERO,
                     c0=ONE, c1=ZERO)
    with pytest.raises(SimulationError, match=r"^step 5 left a path's state NaN$"):
        simulate(p, idle_policy(p), SimConfig(dt=0.125, horizon=12.5, n_paths=4, seed=0))


def test_band_policy_validation():
    with pytest.raises(ValueError):
        BandPolicy(1.0, 1.0)


def test_oracle_constant_cost_rate():
    # c0 = 1, no ordering cost: the long-run average cost is exactly 1.
    p = inventory_problem(c_b=0.0, c_h=0.0, k1=1.0, k2=0.0)
    p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                    gen_b=p.gen_b,
                    costs=CostSpec(c0=ONE, c1=ZERO), criterion=p.criterion)
    est = band_policy_oracle(p, BandPolicy(0.0, 2.0),
                             SimConfig(dt=0.005, horizon=10.0, n_paths=200, seed=0))
    assert est.cost == pytest.approx(1.0, abs=1e-9)


def test_oracle_cycle_length_small_sigma():
    # E[cycle length] = (S - s)/mu_d for every sigma; sigma -> 0 makes it sharp.
    p = inventory_problem(sigma=1e-3)
    est = band_policy_oracle(p, BandPolicy(0.0, 2.0),
                             SimConfig(dt=0.002, horizon=10.0, n_paths=100, seed=0))
    assert est.mean_cycle_length == pytest.approx(2.0, abs=0.01)


def test_oracle_preconditions():
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=4, seed=0)
    with pytest.raises(ValueError, match="drift"):
        band_policy_oracle(make_problem(drift=lambda x, u: x, diffusion=ONE,
                                        c0=ZERO, c1=ZERO),
                           BandPolicy(-1.0, 1.0), cfg)
    with pytest.raises(ValueError, match="negative drift"):
        band_policy_oracle(make_problem(drift=ONE, diffusion=ONE,
                                        c0=ZERO, c1=ZERO),
                           BandPolicy(-1.0, 1.0), cfg)
    p = inventory_problem()
    with pytest.raises(ValueError, match="state interval"):
        band_policy_oracle(p, BandPolicy(-10.0, 0.0), cfg)
    with pytest.raises(ValueError, match="gradient|jump"):
        band_policy_oracle(finite_fuel_problem(), BandPolicy(-1.0, 1.0), cfg)


def test_band_search_single_pair():
    p = inventory_problem()
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=50, seed=0)
    res = band_search(p, [-1.0], [0.5], cfg)
    assert (res.best.s, res.best.big_s) == (-1.0, 0.5)
    assert len(res.table) == 1


def test_band_search_exact_tie_is_lexicographic():
    # Constant cost rate 1 for every band: exact ties everywhere.
    p = inventory_problem()
    p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                    gen_b=p.gen_b, costs=CostSpec(c0=ONE, c1=ZERO),
                    criterion=p.criterion)
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=20, seed=0)
    res = band_search(p, [-1.0, -0.5], [0.5, 1.0], cfg)
    assert (res.best.s, res.best.big_s) == (-1.0, 0.5)


def test_band_search_large_k1_prefers_wide_bands():
    # With a huge fixed ordering cost, cost ~ k1*mu_d/(S-s): monotone
    # decreasing in the band width at a fixed midpoint.
    p = inventory_problem(c_b=0.0, c_h=0.0, k1=1000.0, k2=0.0)
    cfg = SimConfig(dt=0.005, horizon=10.0, n_paths=300, seed=0)
    widths = [0.5, 1.0, 2.0, 3.0]
    costs = [band_policy_oracle(p, BandPolicy(-w / 2, w / 2), cfg).cost
             for w in widths]
    assert all(costs[i + 1] < costs[i] for i in range(len(widths) - 1))
    res = band_search(p, [-1.5, -0.5], [0.5, 1.5], cfg)
    assert (res.best.s, res.best.big_s) == (-1.5, 1.5)


def test_band_search_empty():
    p = inventory_problem()
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=4, seed=0)
    with pytest.raises(ValueError, match="pairs"):
        band_search(p, [1.0], [0.5], cfg)


def test_clt_halving():
    p = inventory_problem()
    grid = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    sol = solve(assemble_lta_lp(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    hw = []
    for n in (40, 160):
        cfg = SimConfig(dt=0.01, horizon=30.0, n_paths=n, seed=9, burn_in=3.0)
        hw.append(simulate(p, pol, cfg).cost.half_width)
    ratio = hw[1] / hw[0]
    assert 0.35 <= ratio <= 0.65


def test_dt_refinement_consistent():
    p = inventory_problem()
    grid = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    sol = solve(assemble_lta_lp(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    reps = [simulate(p, pol, SimConfig(dt=dt, horizon=60.0, n_paths=64,
                                       seed=13, burn_in=6.0))
            for dt in (0.02, 0.01)]
    gap = abs(reps[0].cost.value - reps[1].cost.value)
    assert gap < reps[0].cost.half_width + reps[1].cost.half_width


def test_report_serialization():
    p = inventory_problem()
    grid = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    sol = solve(assemble_lta_lp(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    rep = simulate(p, pol, SimConfig(dt=0.01, horizon=10.0, n_paths=8, seed=3),
                   basis=b)
    csv = rep.to_csv()
    assert csv.startswith("name,estimate,half_width,n\n")
    assert len(csv.strip().splitlines()) == 1 + 1 + len(b.functions)
    text = rep.to_text()
    assert "lta_cost" in text and "stationarity_tv" in text


def _wrapped(fam):
    """The same test functions as plain C2Functions: evaluated one by one."""
    return BasisFamily(tuple(C2Function(f.value, f.d1, f.d2, name=f.name)
                             for f in fam.functions))


def _lp_policy(p, n_state, n_control, n_basis, assemble):
    grid = build_grid(p, n_state, n_control)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, n_basis)
    sol = solve(assemble(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    return pol, b


@pytest.mark.parametrize("kind", ["jump", "gradient"])
def test_family_residuals_match_per_member_evaluation(kind):
    if kind == "jump":
        p = inventory_problem()
        pol, b = _lp_policy(p, 21, 5, 8, assemble_lta_lp)
        # Only the ordering cost is counted, so a positive cost shows jumps.
        p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                        gen_b=p.gen_b, costs=CostSpec(c0=ZERO, c1=p.costs.c1),
                        criterion=p.criterion)
        cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=32, seed=5, burn_in=0.5)
    else:
        p = finite_fuel_problem(alpha=2.0, x_lo=-8.0, x_hi=8.0)
        pol, b = _lp_policy(p, 41, 11, 12, assemble_discounted_lp)
        cfg = SimConfig(dt=0.02, horizon=10.0, n_paths=32, seed=2)
    fast = simulate(p, pol, cfg, basis=b)
    slow = simulate(p, pol, cfg, basis=_wrapped(b))
    # The splines' residuals are summed on their 4 local pieces, from the
    # tau table, so they agree with per-member evaluation to round-off;
    # every other line is byte-equal.
    fast_lines, slow_lines = fast.to_csv().splitlines(), slow.to_csv().splitlines()
    assert ([ln for ln in fast_lines if not ln.startswith("mart[")]
            == [ln for ln in slow_lines if not ln.startswith("mart[")])
    assert len(fast.martingale_residuals) == len(b)
    for f, s in zip(fast.martingale_residuals, slow.martingale_residuals):
        assert f.name == s.name and f.n == s.n
        for a, z in ((f.value, s.value), (f.half_width, s.half_width)):
            assert abs(a - z) <= 1e-12, (f, s)
            assert (a == 0.0) == (z == 0.0), (f, s)
    assert fast.martingale_residuals[-1].name == "mart[1]"
    assert fast.martingale_residuals[-1].value == 0.0
    # Singular actions happened, so their martingale updates were exercised.
    if kind == "jump":
        assert fast.cost.value > 0
    else:
        assert fast.budgets[0].value > 0


def _finite_fuel_exact(alpha=1.0, sigma=1.0, fuel=1.0):
    """Optimal reflection level b* and cost C* of finite fuel from x0 = 0.

    Reflection at +-b costs v(0) = sigma^2/alpha^2 + A with v'(b) = 0 and
    spends cosh(0) / (kappa sinh(kappa b)) discounted fuel, kappa =
    sqrt(2 alpha)/sigma (Benes, Shepp and Witsenhausen 1980; Karatzas 1983).
    The budget binds at b*.
    """
    kappa = math.sqrt(2.0 * alpha) / sigma
    b = math.asinh(1.0 / (kappa * fuel)) / kappa
    return b, sigma ** 2 / alpha ** 2 - 2.0 * b * fuel / alpha


def test_finite_fuel_sandwich():
    # LP bound <= exact C* <= simulated cost of the extracted policy, and
    # the policy keeps its fuel budget in mean.
    p = finite_fuel_problem()
    b, c_star = _finite_fuel_exact()
    assert (b, c_star) == pytest.approx((0.4656149, 0.0687701), abs=1e-7)
    grid = build_grid(p, 41, 2)
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 16)
    sol = solve(assemble_discounted_lp(p, grid, basis))
    assert sol.objective == pytest.approx(0.06426, abs=1e-5)
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    rep = simulate(p, pol, SimConfig(dt=0.005, horizon=20.0, n_paths=200, seed=0))
    assert sol.objective <= c_star <= rep.cost.value + rep.cost.half_width
    fuel = rep.budgets[0]
    assert fuel.value - fuel.half_width <= p.costs.budgets[0].cap
    assert rep.truncation_events == 0


@pytest.mark.parametrize("kwargs, n_control, n_basis, want", [
    # 12 support clusters, 10 of them pushing up: only the two around the
    # mu0 mode reflect.
    (dict(alpha=2.0, x_lo=-8.0, x_hi=8.0), 11, 12, [(-0.8, 18, 1), (0.4, 21, -1)]),
    ({}, 2, 12, [(-0.471357, 17, 1), (0.471357, 23, -1)]),
    ({}, 2, 16, [(-0.467868, 17, 1), (0.467868, 23, -1)]),
])
def test_gradient_barriers_enclose_the_mu0_mode(kwargs, n_control, n_basis, want):
    p = finite_fuel_problem(**kwargs)
    pol, _ = _lp_policy(p, 41, n_control, n_basis, assemble_discounted_lp)
    barriers = list(zip(*_ClosedLoop(p, pol).barriers))
    assert [(o, s) for _, o, s in barriers] == [(o, s) for _, o, s in want]
    assert [e for e, _, _ in barriers] == pytest.approx([e for e, _, _ in want],
                                                        abs=1e-6)


def _reflect_one_barrier_at_a_time(problem, barriers, sampler, acc, rng, x_new):
    """Reflection as it ran before both barriers were reflected in one pass."""
    for edge, outer, side in barriers:
        over = x_new > edge if side < 0 else x_new < edge
        sub = over.nonzero()[0]
        if not sub.size:
            continue
        u = sampler.sample(np.full(sub.size, outer), rng.random(sub.size))
        xs = x_new[sub]
        gam = eval2(problem.gen_b.direction, edge, u)
        gam = np.where(np.abs(gam) < 1e-12, np.copysign(1e-12, -side), gam)
        dxi = np.abs(xs - edge) / np.abs(gam)
        acc.push(sub, xs, edge, u, dxi)
        x_new[sub] = edge


def test_gradient_action_matches_one_barrier_at_a_time():
    p = finite_fuel_problem()
    pol, b = _lp_policy(p, 41, 11, 12, assemble_discounted_lp)
    # A push cost that depends on the state, and three atoms at each outer
    # node (one with gamma = 0), so that each path's uniform matters.
    p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                    gen_b=p.gen_b, criterion=p.criterion,
                    costs=CostSpec(c0=p.costs.c0, budgets=p.costs.budgets,
                                   c1=lambda x, u: 0.5 + 0.25 * x))
    barriers = list(zip(*_ClosedLoop(p, pol).barriers))
    (low, _, up), (high, _, down) = barriers
    assert (up, down) == (1, -1)
    rows = dict(pol.eta1.rows)
    for _, outer, _ in barriers:
        u0 = rows[outer][0][0]
        rows[outer] = (np.array([u0, 0.5 * u0, 0.0]), np.array([0.5, 0.3, 0.2]))
    pol.eta1 = Kernel(rows)
    law = _ClosedLoop(p, pol)
    assert list(zip(*law.barriers)) == barriers
    states = np.random.default_rng(3).normal(0.0, 0.6, (24, 64))
    states[8:12] = np.maximum(states[8:12], low)  # only the down barrier acts
    states[12:16] = np.minimum(states[12:16], high)  # only the up barrier acts
    states[16:20] = np.clip(states[16:20], low, high)  # neither acts
    acting = {tuple(side for edge, _, side in barriers
                    if (x < edge if side > 0 else x > edge).any()) for x in states}
    assert acting == {(), (1,), (-1,), (1, -1)}
    runs = []
    for one_pass in (True, False):
        acc = _Ledger(p, SimConfig(dt=0.01, horizon=None, n_paths=64, seed=0), b,
                      np.zeros(64), pol.state_nodes)
        rng = np.random.default_rng(9)
        ends = []
        for k, x in enumerate(states):
            x_new = x.copy()
            acc.action_weight = 0.9 ** k
            if one_pass:
                law.act(acc, rng, x, x_new)
            else:
                _reflect_one_barrier_at_a_time(p, barriers, law.eta1, acc, rng, x_new)
            ends.append(x_new)
        runs.append((np.array(ends), acc.sing_cost, acc.bud_acc, acc.mart.rows(),
                     rng.bit_generator.state))
    (*arrays, state), (*want, want_state) = runs
    for got, expected in zip(arrays, want):
        assert got.tobytes() == expected.tobytes()
    assert state == want_state


def test_alpha_2_fuel_keeps_its_cap_in_mean():
    # The lowest down-pushing cluster (-6.4) no longer catches every path:
    # discounted fuel is within its cap of 1 in mean, not 275.
    p = finite_fuel_problem(alpha=2.0, x_lo=-8.0, x_hi=8.0)
    pol, _ = _lp_policy(p, 41, 11, 12, assemble_discounted_lp)
    rep = simulate(p, pol, SimConfig(dt=0.02, horizon=10.0, n_paths=64, seed=0))
    fuel = rep.budgets[0]
    assert fuel.value - fuel.half_width <= p.costs.budgets[0].cap
    assert rep.truncation_events == 0


def test_node_without_mu0_mass_borrows_the_nearest_eta0_control():
    # Node 2 (x = -1) carries only eta1 mass: a jump of size 1.  Every other
    # node applies u = 0, so paths fall at rate 1 from x = 0 (dt = 1/8, no
    # noise, exact in binary).  At node 2 a path must borrow u = 0 from node 1;
    # the jump size as control would stop it at x = -0.75 (drift u - 1 = 0)
    # and charge c0 = u there.  Each cycle of 8 steps starts two at node 2
    # (x = -0.75 and -0.875), both bridged, and ends in a jump back to 0.
    p = make_problem(drift=lambda x, u: u - 1.0, diffusion=ZERO,
                     c0=lambda x, u: u + 0.0 * x, c1=ONE)
    nodes = np.linspace(-2.0, 2.0, 9)
    mu0 = np.where(nodes == 0.0, 0.5, 0.0625)
    mu0[2] = 0.0
    mu1 = np.zeros(9)
    mu1[2] = 1.0
    point = lambda u: (np.array([u]), np.array([1.0]))
    pol = FeedbackPolicy(nodes, mu0, mu1,
                         eta0=Kernel({i: point(0.0) for i in range(9) if i != 2}),
                         eta1=Kernel({2: point(1.0)}))
    rep = simulate(p, pol, SimConfig(dt=0.125, horizon=12.5, n_paths=2, seed=0))
    # 100 steps: 12 whole cycles (12 jumps, no running cost) and 4 steps.
    assert rep.cost.value == 12.0 / 12.5
    assert rep.bridged_steps == 2 * 12 * 2
    assert rep.truncation_events == 0


def test_eta0_kernel_without_rows_raises():
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=ZERO, c1=ZERO)
    pol = FeedbackPolicy(np.linspace(-2.0, 2.0, 9), np.full(9, 1.0 / 9), np.zeros(9),
                         eta0=Kernel(), eta1=Kernel())
    with pytest.raises(ValueError, match="^kernel covers no state node$"):
        simulate(p, pol, SimConfig(dt=0.01, horizon=5.0, n_paths=4, seed=0))


@pytest.mark.parametrize("x0, jumps", [(-1.5, True), (-1.0, True),
                                       (np.nextafter(-1.0, 0.0), False), (0.5, False)])
def test_first_step_jumps_at_or_below_the_trigger(x0, jumps):
    # Frozen dynamics under u = 0 and a trigger at node 2 (x = -1) with a
    # jump of 1: a path that starts at or below the trigger jumps on step 0,
    # once, and one that starts above it never does.
    alpha, dt = 2.0, 0.125
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=ZERO, c1=ONE)
    p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a, gen_b=p.gen_b,
                    costs=p.costs, name=p.name,
                    criterion=Criterion(kind=DISCOUNTED, alpha=alpha, nu0=((x0, 1.0),)))
    nodes = np.linspace(-2.0, 2.0, 9)
    mu1 = np.zeros(9)
    mu1[2] = 1.0
    point = lambda u: (np.array([u]), np.array([1.0]))
    pol = FeedbackPolicy(nodes, np.full(9, 1.0 / 9), mu1,
                         eta0=Kernel({i: point(0.0) for i in range(9)}),
                         eta1=Kernel({2: point(1.0)}))
    rep = simulate(p, pol, SimConfig(dt=dt, horizon=None, n_paths=4, seed=0))
    assert rep.cost.value == pytest.approx(math.exp(-alpha * dt) if jumps else 0.0, abs=1e-15)
    assert rep.cost.half_width == 0.0
    assert rep.truncation_events == 0


# ---------------------------------------------------------------------------
# The random stream of simulate(), pinned: one run per singular action and
# control kind, recorded before the simulator was split by singular kind.
# gradient_budget was recorded again once budgets held only in mean, and
# again once only the two barriers around the mu0 mode reflected.  Only
# jump_kernel has an eta0 row with two controls, so only it draws eta0
# uniforms; jump_strict and discounted_jump were recorded again when point-
# mass eta0 rows stopped drawing them.  (jump_strict's eta0 and eta1 disagree
# at node 10, so extract_strict finds no strict map there.)  gradient_budget
# counts its eta1-only nodes as bridged since eta0 alone decides coverage.
# jump_cluster (a two-node eta1 cluster) and truncated (clipped paths) were
# recorded before nearest_node became a search on precomputed cuts.
# Any change to the order or size of the draws, or to the arithmetic of an
# update, shows up here and must be deliberate.

def _two_atom_rows(kernel, u_alt, p_alt):
    """Every other covered row gains a second atom u_alt of probability p_alt."""
    rows = {}
    for k, (i, (u, p)) in enumerate(sorted(kernel.rows.items())):
        if k % 2 == 0:
            rows[i] = (np.array([u[0], u_alt(u[0])]), np.array([1.0 - p_alt, p_alt]))
        else:
            rows[i] = (u, p)
    return Kernel(rows)


def _discounted_inventory(alpha):
    p = inventory_problem()
    return ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                       gen_b=p.gen_b, costs=p.costs,
                       criterion=Criterion(kind=DISCOUNTED, alpha=alpha,
                                           nu0=((0.0, 1.0),)))


def _pinned_run(name):
    if name == "jump_kernel":
        p = inventory_problem()
        pol, _ = _lp_policy(p, 21, 5, 8, assemble_lta_lp)
        pol.eta0 = _two_atom_rows(pol.eta0, lambda u: 0.5 * u + 1.0, 0.25)
        pol.eta1 = _two_atom_rows(pol.eta1, lambda u: 0.5 * u, 0.4)
        cfg = SimConfig(dt=0.01, horizon=4.0, n_paths=16, seed=3, burn_in=1.0)
        fam = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 6)
    elif name == "jump_strict":
        p = inventory_problem()
        pol, _ = _lp_policy(p, 21, 5, 8, assemble_lta_lp)
        cfg = SimConfig(dt=0.01, horizon=4.0, n_paths=16, seed=7, burn_in=1.0)
        fam = None
    elif name == "gradient_budget":
        p = finite_fuel_problem(alpha=2.0, x_lo=-8.0, x_hi=8.0)
        pol, _ = _lp_policy(p, 41, 11, 12, assemble_discounted_lp)
        # A push cost, so that the push size enters the cost as well.
        p = ProblemSpec(state=p.state, control=p.control, gen_a=p.gen_a,
                        gen_b=p.gen_b, criterion=p.criterion,
                        costs=CostSpec(c0=p.costs.c0, budgets=p.costs.budgets,
                                       c1=lambda x, u: 0.5 + 0.25 * x))
        cfg = SimConfig(dt=0.02, horizon=10.0, n_paths=16, seed=2)
        fam = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 6)
    elif name == "jump_cluster":
        # jump_strict's eta1 row copied onto the node below, half a unit
        # smaller: the cluster spans two nodes, so _cluster_node picks each
        # acting path's row.  At dt 0.04 some paths overshoot to node 9.
        p = inventory_problem()
        pol, _ = _lp_policy(p, 21, 5, 8, assemble_lta_lp)
        u, prob = pol.eta1.rows[10]
        pol.eta1 = Kernel({9: (u - 0.5, prob), 10: (u, prob)})
        cfg = SimConfig(dt=0.04, horizon=8.0, n_paths=16, seed=13, burn_in=1.0)
        fam = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 6)
    elif name == "truncated":
        # sim-long's 25x11/18 policy: a few paths step past x_hi and are
        # clipped back (truncation_events > 0).
        p = inventory_problem()
        pol, _ = _lp_policy(p, 25, 11, 18, assemble_lta_lp)
        cfg = SimConfig(dt=0.01, horizon=20.0, n_paths=256, seed=0, burn_in=2.0)
        fam = None
    else:
        assert name == "discounted_jump"
        p = _discounted_inventory(0.5)
        pol, _ = _lp_policy(p, 21, 5, 8, assemble_discounted_lp)
        cfg = SimConfig(dt=0.02, horizon=10.0, n_paths=16, seed=11)
        fam = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 6)
    return simulate(p, pol, cfg, basis=fam)


# to_csv() text and the diagnostics (stationarity TV, truncations, total,
# bridged steps, multi-cluster support, exhausted paths) of each run.
PINNED = {
    "discounted_jump": (
        (
            "name,estimate,half_width,n\n"
            "discounted_cost,3.631025656953241,0.5446364828016829,16\n"
            "mart[bspl000],0.0024147864557935057,0.0010503134753884734,16\n"
            "mart[bspl001],0.09160415908162353,0.29868641144065255,16\n"
            "mart[bspl002],-0.34587413804208045,1.0991012968800762,16\n"
            "mart[bspl003],0.10608155187161125,1.0501655204277784,16\n"
            "mart[bspl004],-0.3281151182779955,1.7016495926731252,16\n"
            "mart[bspl005],0.30521645167104905,0.5181311318812719,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (None, 0, 29472, 6387, False, 0),
    ),
    "gradient_budget": (
        (
            "name,estimate,half_width,n\n"
            "discounted_cost,0.2154866773917825,0.07100442529343208,16\n"
            "budget_fuel,0.31141555248572617,0.11099188126860023,16\n"
            "mart[bspl000],0.00027005272920039913,0.00012950221146565145,16\n"
            "mart[bspl001],-0.06908876572635259,0.24349087250727156,16\n"
            "mart[bspl002],-0.5302297031076437,0.4818207414033789,16\n"
            "mart[bspl003],0.48927932129139295,0.5773542113462339,16\n"
            "mart[bspl004],0.10976909481340359,0.11153161259159879,16\n"
            "mart[bspl005],0.0,0.0,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (None, 0, 7376, 4991, True, 0),
    ),
    "jump_kernel": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.7473157210720283,0.3282456468277711,16\n"
            "mart[bspl000],0.0,0.0,16\n"
            "mart[bspl001],0.007374631102112585,0.012850522077933973,16\n"
            "mart[bspl002],-0.16199825037683346,0.2481938025051655,16\n"
            "mart[bspl003],-0.20866721712648706,0.38535535685031064,16\n"
            "mart[bspl004],0.37431986322705485,0.5141353917827646,16\n"
            "mart[bspl005],0.02702735759831256,0.3290049107154351,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (0.3882008519673862, 0, 6400, 1601, False, 0),
    ),
    "jump_cluster": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.7461017627062623,0.14919148105970487,16\n"
            "mart[bspl000],0.0,0.0,16\n"
            "mart[bspl001],0.018979467397239522,0.04572206989202075,16\n"
            "mart[bspl002],-0.24345326009456186,0.39188817162123746,16\n"
            "mart[bspl003],-0.18158936259158456,0.49775497734797813,16\n"
            "mart[bspl004],0.18137906242734592,0.45490026924773025,16\n"
            "mart[bspl005],0.21096249274688408,0.3748347160544216,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (0.38954013768167195, 0, 3200, 751, False, 0),
    ),
    "jump_strict": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.8945059847310728,0.34799360178439026,16\n"
        ),
        (0.4257008519673863, 0, 6400, 1856, False, 0),
    ),
    "truncated": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.8216697991050652,0.03202887073813382,256\n"
        ),
        (0.047146553118749164, 7, 512000, 483, False, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_random_stream_pinned(name):
    csv, diagnostics = PINNED[name]
    rep = _pinned_run(name)
    assert rep.to_csv() == "".join(csv)
    assert (rep.stationarity_distance, rep.truncation_events, rep.total_steps,
            rep.bridged_steps, rep.multi_cluster_support,
            rep.budget_exhausted_paths) == diagnostics


def test_single_atom_sample_equals_cdf_path():
    rows = {i: (np.array([0.25 * i - 1.0]), np.array([1.0])) for i in (1, 2, 5, 6)}
    sampler = _KernelSampler(Kernel(rows), 8)
    assert sampler.uval.shape == (8, 1)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 8, 200)
    r = rng.random(200)
    r[:3] = [0.0, np.nextafter(1.0, 0.0), 0.5]
    fast = sampler.sample(idx, r)
    assert np.array_equal(fast, sampler._sample_cdf(idx, r))
    assert np.array_equal(fast, sampler.uval[idx, 0])


def test_multi_atom_sample_follows_cdf():
    rows = {0: (np.array([1.0, 2.0]), np.array([0.25, 0.75])),
            2: (np.array([3.0]), np.array([1.0]))}
    sampler = _KernelSampler(Kernel(rows), 3)
    r = np.array([0.0, 0.25, np.nextafter(0.25, 1.0), np.nextafter(1.0, 0.0),
                  0.5, 0.9])
    idx = np.array([0, 0, 0, 0, 2, 1])
    assert sampler.sample(idx, r).tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 0.0]


def test_bridge_map_ties_borrow_the_left_row():
    # Node 2 is two indices from covered nodes 0 and 4; nodes 5 and 6 are not tied.
    rows = {0: (np.array([1.0]), np.array([1.0])), 4: (np.array([2.0]), np.array([1.0])),
            7: (np.array([3.0]), np.array([1.0]))}
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=ZERO, c1=ZERO)
    pol = FeedbackPolicy(np.linspace(-2.0, 2.0, 8), np.full(8, 0.125), np.zeros(8),
                         eta0=Kernel(rows), eta1=Kernel())
    law = _ClosedLoop(p, pol)
    assert np.flatnonzero(law.covered).tolist() == [0, 4, 7]
    # eta0's row b is bin b: node b - 1, the end nodes' rows padding the sentinels.
    assert law.eta0.uval[1:-1, 0].tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]
    assert law.eta0.uval[[0, -1], 0].tolist() == [1.0, 3.0]


def test_bridge_map_borrows_the_row_nearest_in_state():
    # Node 9 is next to node 0 by index but next to node 10 in state.
    rows = {0: (np.array([1.0]), np.array([1.0])), 2: (np.array([2.0]), np.array([1.0]))}
    p = make_problem(drift=ZERO, diffusion=ZERO, c0=ZERO, c1=ZERO)
    pol = FeedbackPolicy(np.array([0.0, 9.0, 10.0]), np.full(3, 1 / 3), np.zeros(3),
                         eta0=Kernel(rows), eta1=Kernel())
    assert _ClosedLoop(p, pol).eta0.uval[1:-1, 0].tolist() == [1.0, 2.0, 2.0]


def test_cluster_node_equals_nearest_node_on_the_slice():
    nodes = np.linspace(-2.0, 2.0, 9)
    cuts = node_cuts(nodes)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    x = np.concatenate([nodes, mids, np.nextafter(mids, -np.inf),
                        np.nextafter(mids, np.inf), [-5.0, -2.1, 2.1, 5.0],
                        np.random.default_rng(1).uniform(-3.0, 3.0, 50)])
    for lo in range(nodes.size):
        for hi in range(lo, nodes.size):
            want = nearest_node(nodes[lo:hi + 1], x) + lo
            assert np.array_equal(_cluster_node(cuts, x, lo, hi), want), (lo, hi)
