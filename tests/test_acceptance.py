"""Acceptance gate: end-to-end checks with stated tolerances.

Each test prints a single `ACCEPTANCE <n> <name>: PASS|FAIL` line.  Seeds
are frozen; every tolerance is stated inline next to its check.
"""
import numpy as np
import pytest

from sclp.basis import BasisFamily
from sclp.discretize import (NORMALIZED, RESCALED, assemble_discounted_lp,
                             assemble_lta_lp, build_grid, constraint_residual)
from sclp.policy import MeasurePair, marginals_and_kernels
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve
from sclp.verify import BandPolicy, SimConfig, band_policy_oracle, band_search, simulate
from test_simplex import make_lp


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def agree(a, b, ci_a=0.0, ci_b=0.0, rel=0.05):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), ci_a + ci_b)


def solved_policy(problem, n_state, n_control, n_basis, form=None):
    grid = build_grid(problem, n_state, n_control)
    basis = BasisFamily.cubic_on_interval(problem.state.x_lo,
                                          problem.state.x_hi, n_basis)
    if form is None and problem.criterion.kind == "discounted":
        form = NORMALIZED
    if form is not None:
        lp = assemble_discounted_lp(problem, grid, basis, form=form)
    else:
        lp = assemble_lta_lp(problem, grid, basis)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    policy = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    return grid, basis, lp, sol, policy


# --------------------------------------------------------------------------
# 1. Inventory long-term-average three-way agreement: refined LP vs the
#    simulated extracted policy vs a brute-force band search, pairwise within
#    max(5% relative, combined 95% CIs).
def test_1_inventory_three_way_agreement():
    problem = inventory_problem()
    _, _, _, sol, policy = solved_policy(problem, 201, 101, 50)
    rep = simulate(problem, policy,
                   SimConfig(dt=0.0025, horizon=300.0, n_paths=32, seed=3,
                             burn_in=30.0))
    res = band_search(problem, np.linspace(-1.6, -0.4, 7),
                      np.linspace(0.0, 1.2, 7),
                      SimConfig(dt=0.002, horizon=10.0, n_paths=3000, seed=4))
    ok = (agree(sol.objective, rep.cost.value, 0.0, rep.cost.half_width)
          and agree(sol.objective, res.cost, 0.0, res.half_width)
          and agree(rep.cost.value, res.cost, rep.cost.half_width, res.half_width))
    print(f"  lp={sol.objective:.4f} sim={rep.cost.value:.4f}"
          f"(+/-{rep.cost.half_width:.4f}) band={res.cost:.4f}"
          f"(+/-{res.half_width:.4f})")
    report(1, "inventory-lta-agreement", ok)


# --------------------------------------------------------------------------
# 2. Discounted form equivalence: normalized vs rescaled objectives within
#    1e-6 relative; alpha-scaled rescaled weights normalized-feasible with
#    residual <= 1e-8.
def test_2_discounted_form_equivalence():
    ok = True
    for alpha in (0.1, 1.0):
        problem = finite_fuel_problem(alpha=alpha)
        grid = build_grid(problem, 41, 2)
        basis = BasisFamily.cubic_on_interval(problem.state.x_lo,
                                              problem.state.x_hi, 12)
        lpn = assemble_discounted_lp(problem, grid, basis, form=NORMALIZED)
        lpr = assemble_discounted_lp(problem, grid, basis, form=RESCALED)
        sn, sr = solve(lpn), solve(lpr)
        assert sn.status == OPTIMAL and sr.status == OPTIMAL
        rel = abs(sn.objective - sr.objective) / abs(sn.objective)
        eq_res, ub_res = constraint_residual(lpn, alpha * sr.weights)
        print(f"  alpha={alpha}: rel_diff={rel:.2e} residual=({eq_res:.2e},"
              f" {ub_res:.2e})")
        ok = ok and rel <= 1e-6 and eq_res <= 1e-8 and ub_res <= 1e-8
    report(2, "discounted-form-equivalence", ok)


# --------------------------------------------------------------------------
# 3. Adjoint exactness: every optimal solve has equality residual <= 1e-8,
#    correct total mass within 1e-8, and an exactly zero constant-function row.
def test_3_adjoint_exactness():
    ok = True
    cases = [
        (inventory_problem(), None, 1.0),
        (finite_fuel_problem(), NORMALIZED, 1.0),
        (finite_fuel_problem(alpha=0.5), RESCALED, 1.0 / 0.5),
    ]
    for problem, form, mass in cases:
        grid, basis, lp, sol, _ = solved_policy(problem, 41,
                                                11 if form is None else 2,
                                                14, form=form)
        eq_res, ub_res = constraint_residual(lp, sol.weights)
        mass_err = abs(sol.weights[:grid.n0].sum() - mass)
        # The constant test function is annihilated exactly on every atom.
        from sclp.basis import constant_one
        from generator_reference import eval_Af, eval_Bf
        one = constant_one()
        a1 = eval_Af(problem.gen_a, one, grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1])
        b1 = eval_Bf(problem.gen_b, one, grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1])
        unit_exact = np.all(a1 == 0.0) and np.all(b1 == 0.0)
        print(f"  {lp.name}: eq_res={eq_res:.2e} mass_err={mass_err:.2e} "
              f"unit_exact={unit_exact}")
        ok = ok and eq_res <= 1e-8 and ub_res <= 1e-8 and mass_err <= 1e-8 \
            and unit_exact
    report(3, "adjoint-exactness", ok)


# --------------------------------------------------------------------------
# 4. Martingale residuals: for the solved inventory and finite-fuel policies,
#    every reported basis residual lies within 3 standard errors of 0 with
#    n_paths >= 200.
def test_4_martingale_residuals():
    ok = True
    runs = [
        (inventory_problem(), (41, 11, 12),
         SimConfig(dt=0.0005, horizon=4.0, n_paths=400, seed=1)),
        (finite_fuel_problem(), (41, 2, 16),
         SimConfig(dt=0.002, horizon=20.0, n_paths=400, seed=5)),
    ]
    for problem, (ns, nc, nb), cfg in runs:
        _, basis, _, _, policy = solved_policy(problem, ns, nc, nb)
        rep = simulate(problem, policy, cfg, basis=basis)
        assert rep.n_paths >= 200
        worst = 0.0
        for e in rep.martingale_residuals:
            se = e.half_width / 1.96
            z = abs(e.value) / se if se > 0 else 0.0
            worst = max(worst, z)
            ok = ok and z <= 3.0
        print(f"  {problem.name}: max |z| = {worst:.2f} over "
              f"{len(rep.martingale_residuals)} test functions")
    report(4, "martingale-residuals", ok)


# --------------------------------------------------------------------------
# 5. Stationarity: the long-term-average simulated state histogram is within
#    total variation 0.1 of the LP state marginal on state-node bins.
def test_5_stationarity():
    problem = inventory_problem()
    _, _, _, _, policy = solved_policy(problem, 25, 11, 18)
    rep = simulate(problem, policy,
                   SimConfig(dt=0.0025, horizon=600.0, n_paths=24, seed=2,
                             burn_in=60.0))
    tv = rep.stationarity_distance
    print(f"  tv={tv:.4f}")
    report(5, "stationarity", tv is not None and tv <= 0.1)


# --------------------------------------------------------------------------
# 6. Grid refinement: nested atoms with a fixed basis give non-increasing
#    LP objectives (tolerance 1e-9) over 3 levels, on both built-ins.
def test_6_grid_refinement_monotone():
    ok = True
    inv = inventory_problem()
    basis = BasisFamily.cubic_on_interval(inv.state.x_lo, inv.state.x_hi, 12)
    objs = [solve(assemble_lta_lp(inv, build_grid(inv, ns, nc), basis)).objective
            for ns, nc in [(21, 6), (41, 11), (81, 21)]]
    print(f"  inventory: {['%.6f' % o for o in objs]}")
    ok = ok and all(objs[i + 1] <= objs[i] + 1e-9 for i in range(2))
    fuel = finite_fuel_problem()
    basis = BasisFamily.cubic_on_interval(fuel.state.x_lo, fuel.state.x_hi, 12)
    objs = [solve(assemble_discounted_lp(fuel, build_grid(fuel, ns, 2),
                                         basis)).objective
            for ns in (21, 41, 81)]
    print(f"  finite-fuel: {['%.6f' % o for o in objs]}")
    ok = ok and all(objs[i + 1] <= objs[i] + 1e-9 for i in range(2))
    report(6, "grid-refinement-monotone", ok)


# --------------------------------------------------------------------------
# 7. Budget monotonicity: larger fuel budgets give non-increasing discounted
#    objectives (tolerance 1e-9) over 3 levels.
def test_7_fuel_budget_monotone():
    objs = []
    for fuel in (0.2, 0.5, 1.0):
        problem = finite_fuel_problem(fuel=fuel)
        grid = build_grid(problem, 41, 2)
        basis = BasisFamily.cubic_on_interval(problem.state.x_lo,
                                              problem.state.x_hi, 12)
        sol = solve(assemble_discounted_lp(problem, grid, basis))
        assert sol.status == OPTIMAL
        objs.append(sol.objective)
    print(f"  objectives: {['%.6f' % o for o in objs]}")
    report(7, "fuel-budget-monotone",
           all(objs[i + 1] <= objs[i] + 1e-9 for i in range(2)))


# --------------------------------------------------------------------------
# 8. Solver corpus: 12 hand-checkable LPs solved exactly; weak duality on
#    optimal instances, Farkas certificates validated on infeasible ones.
def corpus():
    lps = []
    # 1: unique interior-free optimum on an equality.
    lps.append((make_lp([1, 2], a_eq=[[1, 1]], b_eq=[1]), OPTIMAL, 1.0))
    # 2: inequality pair with both rows active.
    lps.append((make_lp([-1, -1], a_ub=[[1, 2], [1, 0]], b_ub=[4, 3]),
                OPTIMAL, -3.5))
    # 3: zero objective.
    lps.append((make_lp([0, 0], a_eq=[[1, 1]], b_eq=[2]), OPTIMAL, 0.0))
    # 4: degenerate vertex (three planes through one point).
    lps.append((make_lp([1, 1, 1],
                        a_eq=[[1, 1, 0], [1, 0, 1], [1, 0.5, 0.5]],
                        b_eq=[1, 1, 1]), OPTIMAL, 1.0))
    # 5: redundant (dependent) equality rows.
    lps.append((make_lp([2, 3], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2]),
                OPTIMAL, 2.0))
    # 6: equality plus binding inequality.
    lps.append((make_lp([1, 1], a_eq=[[1, -1]], b_eq=[0],
                        a_ub=[[-1, 0]], b_ub=[-1]), OPTIMAL, 2.0))
    # 7: negative rhs orientation.
    lps.append((make_lp([1, 1], a_eq=[[-1, -1]], b_eq=[-3]), OPTIMAL, 3.0))
    # 8: badly scaled but well-posed.
    lps.append((make_lp([1e6, 1e-4], a_eq=[[1e5, 1e-5]], b_eq=[1]),
                OPTIMAL, 10.0))
    # 9: inconsistent equalities.
    lps.append((make_lp([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[1, 2]),
                INFEASIBLE, None))
    # 10: empty inequality region (x1 <= -1 with x1 >= 0).
    lps.append((make_lp([1], a_ub=[[1]], b_ub=[-1]), INFEASIBLE, None))
    # 11: unbounded descent direction.
    lps.append((make_lp([-1, 0], a_ub=[[0, 1]], b_ub=[1]), UNBOUNDED, None))
    # 12: unbounded along an equality ray.
    lps.append((make_lp([-1, -1], a_eq=[[1, -1]], b_eq=[0]), UNBOUNDED, None))
    return lps


def test_8_solver_corpus():
    ok = True
    for k, (lp, status, opt) in enumerate(corpus(), start=1):
        sol = solve(lp)
        good = sol.status == status
        if status == OPTIMAL and good:
            good = abs(sol.objective - opt) <= 1e-8 * (1.0 + abs(opt))
            # Weak duality: the dual objective never exceeds the primal.
            dual_obj = float(sol.dual_eq @ lp.b_eq + sol.dual_ub @ lp.b_ub)
            good = good and dual_obj <= sol.objective + 1e-8 * (1 + abs(opt))
            good = good and np.all(sol.dual_ub <= 1e-9)
        if status == INFEASIBLE and good:
            r = sol.farkas
            rhs = np.concatenate([lp.b_eq, lp.b_ub])
            rows = np.vstack([lp.a_eq, lp.a_ub]) if lp.b_eq.size or lp.b_ub.size \
                else np.zeros((0, lp.n_cols))
            good = (r is not None and r @ rhs > 1e-10
                    and np.max(r @ rows) <= 1e-8
                    and np.all(r[lp.b_eq.size:] <= 1e-12))
        if not good:
            print(f"  corpus LP {k}: expected {status}, got {sol.status} "
                  f"obj={sol.objective}")
        ok = ok and good
    report(8, "solver-corpus", ok)


# --------------------------------------------------------------------------
# 9. Oracle identities: the cycle-length CI covers (S-s)/mu_d and the
#    k1-only cost CI covers k1*mu_d/(S-s), each for >= 9 of 10 frozen seeds
#    (95% nominal coverage).
def test_9_oracle_identities():
    band = BandPolicy(0.0, 2.0)
    plain = inventory_problem()                      # mu_d = 1
    k1only = inventory_problem(c_b=0.0, c_h=0.0, k1=3.0, k2=0.0)
    cover_len = cover_cost = 0
    for seed in range(10):
        cfg = SimConfig(dt=0.002, horizon=10.0, n_paths=2000, seed=seed)
        e1 = band_policy_oracle(plain, band, cfg)
        cover_len += abs(e1.mean_cycle_length - 2.0) <= e1.cycle_length_half_width
        e2 = band_policy_oracle(k1only, band, cfg)
        cover_cost += abs(e2.cost - 1.5) <= e2.half_width
    print(f"  coverage: cycle-length {cover_len}/10, k1-only cost {cover_cost}/10")
    report(9, "oracle-identities", cover_len >= 9 and cover_cost >= 9)
