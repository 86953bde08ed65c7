#!/usr/bin/env python3
"""Grid-refinement and budget-sensitivity study.

Part 1: solve both built-in problems on a nested sequence of grids with a
fixed test-function basis and report the LP optimal values (they should be
non-increasing, since finer atom sets can only enlarge the feasible set).

Part 2: sweep the fuel cap of the finite-fuel problem and report the
discounted optimal value (non-increasing in the cap).
"""
import argparse

from sclp import (BasisFamily, assemble_discounted_lp, assemble_lta_lp,
                  build_grid, finite_fuel_problem, inventory_problem, solve)


def assemble(problem, grid, basis):
    if problem.criterion.kind == "lta":
        return assemble_lta_lp(problem, grid, basis)
    return assemble_discounted_lp(problem, grid, basis, form="normalized")


def refinement_table(problem, levels, n_basis):
    basis = BasisFamily.cubic_on_interval(problem.state.x_lo,
                                          problem.state.x_hi, n_basis)
    print(f"\n{problem.name}: refinement with {n_basis} splines")
    print(f"{'n_state':>8} {'n_control':>10} {'objective':>12} {'cols':>6} {'iters':>6}")
    for ns, nc in levels:
        lp = assemble(problem, build_grid(problem, ns, nc), basis)
        sol = solve(lp)
        print(f"{ns:>8} {nc:>10} {sol.objective:>12.6f} {lp.n_cols:>6} "
              f"{sol.iterations:>6}")


def fuel_sweep(caps, n_basis):
    print(f"\nfinite fuel: cap sweep with {n_basis} splines")
    print(f"{'cap':>8} {'objective':>12} {'cols':>6}")
    for cap in caps:
        problem = finite_fuel_problem(fuel=cap)
        basis = BasisFamily.cubic_on_interval(problem.state.x_lo,
                                              problem.state.x_hi, n_basis)
        lp = assemble(problem, build_grid(problem, 41, 2), basis)
        sol = solve(lp)
        print(f"{cap:>8.2f} {sol.objective:>12.6f} {lp.n_cols:>6}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true",
                    help="coarser levels, for smoke testing")
    args = ap.parse_args()

    if args.fast:
        inv_levels = [(21, 6), (41, 11)]
        fuel_levels = [(21, 2), (41, 2)]
        caps = [0.2, 1.0]
    else:
        inv_levels = [(21, 6), (41, 11), (81, 21), (161, 41)]
        fuel_levels = [(21, 2), (41, 2), (81, 2), (161, 2)]
        caps = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0]

    refinement_table(inventory_problem(), inv_levels, 12)
    refinement_table(finite_fuel_problem(), fuel_levels, 16)
    fuel_sweep(caps, 16)


if __name__ == "__main__":
    main()
