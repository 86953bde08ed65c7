#!/usr/bin/env python3
"""End-to-end run on the built-in inventory problem.

Solves the long-term-average occupation-measure LP, extracts the feedback
policy, verifies it by simulation, and compares against a direct (s, S)
band-policy search.  Prints a small summary table; use --fast for a quick
smoke run.
"""
import argparse
import time

import numpy as np

from sclp import (BandPolicy, MeasurePair, SimConfig,
                  assemble_lta_lp, band_policy_oracle, band_search, build_grid,
                  BasisFamily, extract_strict, inventory_problem,
                  marginals_and_kernels, simulate, solve)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-state", type=int, default=81)
    ap.add_argument("--n-control", type=int, default=21)
    ap.add_argument("--basis", type=int, default=24)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fast", action="store_true",
                    help="small grids and few paths, for smoke testing")
    args = ap.parse_args()

    if args.fast:
        args.n_state, args.n_control, args.basis = 21, 5, 8
        dt, horizon, burn, paths, cycles = 0.01, 40.0, 4.0, 16, 300
    else:
        dt, horizon, burn, paths, cycles = 0.0025, 300.0, 30.0, 32, 3000

    problem = inventory_problem()
    t0 = time.time()
    grid = build_grid(problem, args.n_state, args.n_control)
    basis = BasisFamily.cubic_on_interval(problem.state.x_lo,
                                          problem.state.x_hi, args.basis)
    lp = assemble_lta_lp(problem, grid, basis)
    sol = solve(lp)
    print(f"lp: status={sol.status} objective={sol.objective:.6f} "
          f"iters={sol.iterations} ({time.time() - t0:.1f}s, "
          f"{lp.n_cols} columns)")

    policy = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    strict, bad = extract_strict(policy)
    print(f"policy: {'strict map' if strict is not None else 'relaxed'}"
          f"{'' if not bad else f' ({len(bad)} mixed nodes)'}")

    cfg = SimConfig(dt=dt, horizon=horizon, n_paths=paths,
                    seed=args.seed, burn_in=burn)
    rep = simulate(problem, policy, cfg, basis=basis)
    print(f"simulation: cost={rep.cost.value:.4f} +- {rep.cost.half_width:.4f} "
          f"(dt={dt}, {paths} paths)")
    worst = max((abs(e.value) / (e.half_width / 1.96)
                 for e in rep.martingale_residuals if e.half_width > 0),
                default=0.0)
    print(f"martingale check: max |z| = {worst:.2f}")

    oracle_cfg = SimConfig(dt=dt, horizon=None, n_paths=cycles, seed=args.seed + 1)
    best = band_search(problem, np.linspace(-1.6, -0.4, 7),
                       np.linspace(0.0, 1.2, 7), oracle_cfg)
    print(f"band search: best (s, S)=({best.best.s:.2f}, {best.best.big_s:.2f}) "
          f"cost={best.cost:.4f} +- {best.half_width:.4f}")

    oracle = band_policy_oracle(problem, best.best, oracle_cfg)
    print(f"oracle at best band: cost={oracle.cost:.4f} "
          f"+- {oracle.half_width:.4f}, "
          f"cycle length={oracle.mean_cycle_length:.3f}")


if __name__ == "__main__":
    main()
