import numpy as np
import pytest

from sclp.basis import BasisFamily, C2Function, constant_one
from sclp.discretize import (Grid, assemble_discounted_lp, assemble_lta_lp,
                             build_grid)
from sclp.model import (Criterion, CostSpec, ControlSpace, GeneratorA,
                        GeneratorB, JUMP, LONG_TERM_AVERAGE, ProblemSpec,
                        StateSpace)
from sclp.policy import MeasurePair, extract_strict, marginals_and_kernels
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import solve
from sclp.verify import (BandPolicy, SimConfig, SimulationError,
                         band_policy_oracle, band_search, simulate)


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
    pol = marginals_and_kernels(grid, MeasurePair(w0=w0, w1=np.zeros(grid.n1)))
    s, _ = extract_strict(pol)
    pol.strict = s
    return pol


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
    fam = BasisFamily((constant_one(),), includes_constant=True)
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
                             for f in fam.functions),
                       includes_constant=fam.includes_constant)


def _lp_policy(p, n_state, n_control, n_basis, assemble):
    grid = build_grid(p, n_state, n_control)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, n_basis)
    sol = solve(assemble(p, grid, b))
    pol = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    pol.strict, _ = extract_strict(pol)
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
    assert fast.to_csv() == slow.to_csv()
    assert len(fast.martingale_residuals) == len(b)
    # Singular actions happened, so their martingale updates were exercised.
    if kind == "jump":
        assert fast.cost.value > 0
    else:
        assert fast.budgets[0].value > 0
