import math

import numpy as np
import pytest

from sclp.basis import BasisFamily, C2Function, constant_one
from sclp.discretize import (Grid, assemble_discounted_lp, assemble_lta_lp,
                             build_grid, nearest_node, node_cuts)
from sclp.model import (Criterion, CostSpec, ControlSpace, DISCOUNTED,
                        GeneratorA, GeneratorB, JUMP, LONG_TERM_AVERAGE,
                        ProblemSpec, StateSpace)
from sclp.policy import FeedbackPolicy, Kernel, MeasurePair, marginals_and_kernels
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import solve
from sclp.verify import (BandPolicy, SimConfig, SimulationError, _bridge_map,
                         _cluster_node, _gradient_barriers, _KernelSampler,
                         _support_clusters, band_policy_oracle, band_search, simulate)


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
    assert fast.to_csv() == slow.to_csv()
    assert len(fast.martingale_residuals) == len(b)
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
    # 13 support clusters, 12 of them pushing down: only the two around the
    # mu0 mode reflect.
    (dict(alpha=2.0, x_lo=-8.0, x_hi=8.0), 11, 12, [(-0.8, 18, 1), (0.0, 20, -1)]),
    ({}, 2, 12, [(-0.471357, 17, 1), (0.471357, 23, -1)]),
    ({}, 2, 16, [(-0.467868, 17, 1), (0.467868, 23, -1)]),
])
def test_gradient_barriers_enclose_the_mu0_mode(kwargs, n_control, n_basis, want):
    p = finite_fuel_problem(**kwargs)
    pol, _ = _lp_policy(p, 41, n_control, n_basis, assemble_discounted_lp)
    barriers = _gradient_barriers(p, pol, _support_clusters(pol))
    assert [(o, s) for _, o, s in barriers] == [(o, s) for _, o, s in want]
    assert [e for e, _, _ in barriers] == pytest.approx([e for e, _, _ in want],
                                                        abs=1e-6)


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
            "mart[bspl000],0.002414786455793779,0.001050313475388483,16\n"
            "mart[bspl001],0.09160415908162847,0.29868641144065355,16\n"
            "mart[bspl002],-0.3458741380420785,1.099101296880076,16\n"
            "mart[bspl003],0.10608155187161553,1.0501655204277784,16\n"
            "mart[bspl004],-0.32811511827799633,1.7016495926731248,16\n"
            "mart[bspl005],0.3052164516710496,0.5181311318812719,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (None, 0, 29472, 6387, False, 0),
    ),
    "gradient_budget": (
        (
            "name,estimate,half_width,n\n"
            "discounted_cost,0.32591937943310384,0.06864291477964186,16\n"
            "budget_fuel,0.5494821674740578,0.13157284200172514,16\n"
            "mart[bspl000],0.00041462408240009564,0.00013798572209136581,16\n"
            "mart[bspl001],-0.03812979901066159,0.22671836710972396,16\n"
            "mart[bspl002],-0.2347611121862217,0.40205165666374454,16\n"
            "mart[bspl003],0.23661801130928564,0.5155967451960703,16\n"
            "mart[bspl004],0.03585827580519532,0.06696955891765764,16\n"
            "mart[bspl005],0.0,0.0,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (None, 0, 7376, 4995, True, 1),
    ),
    "jump_kernel": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.7473157210720283,0.3282456468277711,16\n"
            "mart[bspl000],0.0,0.0,16\n"
            "mart[bspl001],0.007374631102112674,0.012850522077933942,16\n"
            "mart[bspl002],-0.16199825037683496,0.24819380250516476,16\n"
            "mart[bspl003],-0.20866721712648348,0.3853553568503109,16\n"
            "mart[bspl004],0.37431986322705524,0.5141353917827649,16\n"
            "mart[bspl005],0.027027357598312943,0.3290049107154353,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (0.3882008519673867, 0, 6400, 1601, False, 0),
    ),
    "jump_cluster": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.7461017627062623,0.14919148105970487,16\n"
            "mart[bspl000],0.0,0.0,16\n"
            "mart[bspl001],0.018979467397239554,0.04572206989202061,16\n"
            "mart[bspl002],-0.24345326009456286,0.3918881716212377,16\n"
            "mart[bspl003],-0.18158936259158148,0.4977549773479786,16\n"
            "mart[bspl004],0.1813790624273456,0.4549002692477303,16\n"
            "mart[bspl005],0.21096249274688422,0.37483471605442176,16\n"
            "mart[1],0.0,0.0,16\n"
        ),
        (0.38954013768167245, 0, 3200, 751, False, 0),
    ),
    "jump_strict": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.8945059847310728,0.34799360178439026,16\n"
        ),
        (0.4257008519673868, 0, 6400, 1856, False, 0),
    ),
    "truncated": (
        (
            "name,estimate,half_width,n\n"
            "lta_cost,1.8216697991050652,0.03202887073813382,256\n"
        ),
        (0.04714655311875663, 7, 512000, 483, False, 0),
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
    eta0 = _KernelSampler(Kernel(rows), 8)
    bridge = _bridge_map(eta0.covered)
    assert bridge.tolist() == [0, 0, 0, 4, 4, 4, 7, 7]
    assert eta0.uval[bridge, 0].tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]


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
