"""Command-line pipeline: validate -> assemble -> solve -> extract -> verify.

Exit codes: 0 ok, 2 infeasible LP, 3 unbounded LP, 4 validation/config
failure, 5 numerical failure.  Failures print a single machine-parsable
line ``error kind=<ExceptionName> msg="..."`` on stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import simplex
from .basis import BasisFamily
from .discretize import (GridError, assemble_discounted_lp, assemble_lta_lp,
                         build_grid, constraint_residual)
from .model import DISCOUNTED, JUMP, ProblemSpec, validate_conditions
from .policy import (MeasurePair, boundary_mass_diagnostic, extract_strict,
                     marginals_and_kernels)
from .problems import BUILTIN_PROBLEMS, ProblemFileError, load_problem
from .simplex import SingularBasisError, export_mps, parse_mps, solve
from .verify import (BandPolicy, OracleNotApplicable, SimConfig, SimulationError,
                     band_policy_oracle, band_search, exact_optimal_band, simulate)

MODES = ("validate", "solve", "policy", "verify", "band-oracle",
         "export-mps", "report")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5


class PipelineError(RuntimeError):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sclp",
        description="Occupation-measure LP solver for singularly controlled "
                    "one-dimensional diffusions.")
    p.add_argument("--problem", required=True,
                   help="built-in name (inventory, finite-fuel) or INI file path")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--n-state", type=int, default=41)
    p.add_argument("--n-control", type=int, default=11)
    p.add_argument("--basis", type=int, default=12,
                   help="number of cubic B-spline test functions")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the discount rate of a discounted problem")
    p.add_argument("--max-iter", type=int, default=50000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=200,
                   help="simulated paths (verify, report); regenerative cycles "
                        "per band (band-oracle)")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--burn-in", type=float, default=None,
                   help="simulated time before costs are counted "
                        "(default: a tenth of --horizon)")
    p.add_argument("--band-s", type=float, default=None,
                   help="reorder level for a single band-oracle evaluation")
    p.add_argument("--band-S", type=float, default=None,
                   help="order-up-to level for a single band-oracle evaluation")
    p.add_argument("--out", default=".")
    return p


class _Options(argparse.Namespace):
    """Parsed options that record the name of every option read.

    main clears the record once parsing is done, so the # config header
    holds exactly the options the run has read.
    """

    def __init__(self, **kwargs):
        self._read = set()
        super().__init__(**kwargs)

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _load(args) -> tuple[ProblemSpec, str]:
    """Resolve the problem argument; returns (problem, content hash)."""
    if args.problem in BUILTIN_PROBLEMS:
        problem = BUILTIN_PROBLEMS[args.problem]()
        digest = hashlib.sha256(f"builtin:{args.problem}".encode()).hexdigest()
    else:
        if not os.path.exists(args.problem):
            raise PipelineError(f"problem file not found: {args.problem}",
                                EXIT_VALIDATION)
        problem = load_problem(args.problem)
        with open(args.problem, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    if args.alpha is not None:
        if problem.criterion.kind != DISCOUNTED:
            raise PipelineError("--alpha only applies to discounted problems",
                                EXIT_VALIDATION)
        problem = replace(problem, criterion=replace(problem.criterion,
                                                     alpha=args.alpha))
    return problem, digest


def _config_header(args, digest) -> str:
    """The options read so far but --out, which changes no artifact, and the hash."""
    cfg = {k: vars(args)[k] for k in args._read - {"out"}}
    cfg["problem_sha256"] = digest
    return "# config " + json.dumps(cfg, sort_keys=True) + "\n"


def _write(args, name, text, echo=True):
    with open(os.path.join(args.out, name), "w") as fh:
        fh.write(text)
    if echo:
        print(text, end="")


def _assemble(problem, args):
    grid = build_grid(problem, args.n_state, args.n_control)
    basis = BasisFamily.cubic_on_interval(problem.state.x_lo, problem.state.x_hi,
                                          args.basis)
    if problem.criterion.kind == DISCOUNTED:
        lp = assemble_discounted_lp(problem, grid, basis)
    else:
        lp = assemble_lta_lp(problem, grid, basis)
    return grid, basis, lp


def _solve(lp, args):
    sol = solve(lp, max_iter=args.max_iter)
    if sol.status == simplex.INFEASIBLE:
        if sol.farkas is not None:
            np.savetxt(os.path.join(args.out, "farkas.csv"),
                       sol.farkas.reshape(1, -1), delimiter=",")
        raise PipelineError(f"LP {lp.name} is infeasible "
                            "(Farkas certificate in farkas.csv)", EXIT_INFEASIBLE)
    if sol.status == simplex.UNBOUNDED:
        raise PipelineError(f"LP {lp.name} is unbounded", EXIT_UNBOUNDED)
    if sol.status != simplex.OPTIMAL:  # ITER_LIMIT or NUMERICAL
        raise PipelineError(f"LP {lp.name} not solved: status {sol.status}",
                            EXIT_NUMERICAL)
    return sol


def _same_lp(a, b) -> bool:
    """Every coefficient, bound, size, label and the name identical."""
    return (a.name == b.name and a.n0 == b.n0 and a.n1 == b.n1
            and tuple(a.eq_labels) == tuple(b.eq_labels)
            and tuple(a.ub_labels) == tuple(b.ub_labels)
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("c", "a_eq", "b_eq", "a_ub", "b_ub")))


def _sim_config(args, lta) -> SimConfig:
    """Only long-term-average simulations read --horizon and --burn-in.

    A missing --burn-in becomes a tenth of --horizon, so the # config
    header records the value used.
    """
    if not lta:
        return SimConfig(dt=args.dt, horizon=None, n_paths=args.paths, seed=args.seed)
    if args.burn_in is None:
        args.burn_in = args.horizon / 10
    return SimConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                     seed=args.seed, burn_in=args.burn_in)


def _band_box(problem):
    """The (s, S) ranges of the report's band oracle and of band-oracle's grid."""
    lo, hi = problem.state.x_lo, problem.state.x_hi
    w = hi - lo
    return (lo + 0.05 * w, lo + 0.55 * w), (lo + 0.30 * w, hi - 0.05 * w)


def _default_band_grids(problem):
    """8 reorder levels and 8 order-up-to levels spanning _band_box."""
    return tuple(np.linspace(a, b, 8) for a, b in _band_box(problem))


def _validate(args, problem, digest) -> int:
    grid = build_grid(problem, args.n_state, args.n_control)
    report = validate_conditions(problem, grid)
    _write(args, "validate.txt",
           _config_header(args, digest) + "\n".join(report.lines()) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _export_mps(args, problem, digest) -> int:
    _, _, lp = _assemble(problem, args)
    text = export_mps(lp)
    if not _same_lp(parse_mps(text), lp):  # round-trip check before writing
        raise PipelineError(f"MPS text of LP {lp.name} does not parse back "
                            "to the same LP", EXIT_NUMERICAL)
    _write(args, "problem.mps", text, echo=False)
    print(f"wrote {os.path.join(args.out, 'problem.mps')} ({lp.n_cols} columns, "
          f"{lp.b_eq.size + lp.b_ub.size} rows)")
    return EXIT_OK


def _band_oracle(args, problem, digest) -> int:
    cfg = _sim_config(args, lta=False)  # --paths regenerative cycles
    if (args.band_s is None) != (args.band_S is None):
        raise PipelineError("--band-s and --band-S must be given together",
                            EXIT_VALIDATION)
    rows = ["s,S,cost,half_width\n"]
    if args.band_s is not None:
        est = band_policy_oracle(problem, BandPolicy(args.band_s, args.band_S), cfg)
        rows.append(f"{args.band_s!r},{args.band_S!r},{est.cost!r},{est.half_width!r}\n")
    else:
        res = band_search(problem, *_default_band_grids(problem), cfg)
        rows += [f"{s!r},{S!r},{c!r},{h!r}\n" for s, S, c, h in res.table]
        rows.append(f"# best s={res.best.s!r} S={res.best.big_s!r} "
                    f"cost={res.cost!r} +/- {res.half_width!r}\n")
    _write(args, "band_table.csv", _config_header(args, digest) + "".join(rows))
    return EXIT_OK


def _agreement(value: float, half_width: float, lp_value: float) -> str:
    """'pass' when |value - LP| <= max(5% of |LP|, half_width), else 'FAIL'."""
    ok = abs(value - lp_value) <= max(0.05 * abs(lp_value), half_width)
    return "pass" if ok else "FAIL"


def _pipeline(args, problem, digest) -> int:
    """solve -> policy -> verify -> report; each mode stops after its stage."""
    grid, basis, lp = _assemble(problem, args)
    sol = _solve(lp, args)
    eq_res, ub_res = constraint_residual(lp, sol.weights)
    np.savetxt(os.path.join(args.out, "solution.csv"),
               sol.weights.reshape(1, -1), delimiter=",")
    solve_line = (f"status={sol.status} objective={sol.objective!r} "
                  f"iterations={sol.iterations} eq_residual={eq_res!r} "
                  f"ub_violation={ub_res!r}")
    if args.mode == "solve":
        _write(args, "solve.txt", _config_header(args, digest) + solve_line + "\n",
               echo=False)
        print(solve_line)
        return EXIT_OK

    policy = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    if args.mode == "policy":
        text = policy.to_text()
        _, bad = extract_strict(policy)
        if bad:
            text += f"# non-degenerate nodes (no strict map): {bad}\n"
        text += f"# boundary mass (10% margin): {boundary_mass_diagnostic(policy)!r}\n"
        _write(args, "policy.txt", _config_header(args, digest) + text)
        return EXIT_OK

    cfg = _sim_config(args, lta=problem.criterion.kind != DISCOUNTED)
    report = simulate(problem, policy, cfg, basis=basis)
    if args.mode == "verify":
        _write(args, "verify_report.txt", _config_header(args, digest) + report.to_text())
        _write(args, "verify_report.csv", report.to_csv(), echo=False)
        return EXIT_OK

    # mode == report: consolidated pipeline artifacts with agreement flags.
    vreport = validate_conditions(problem, grid)
    lines = ["## conditions\n"]
    lines += [ln + "\n" for ln in vreport.lines()]
    lines.append("## lp\n" + solve_line + "\n")
    lines.append("## simulation\n" + report.to_text())
    agree = _agreement(report.cost.value, report.cost.half_width, sol.objective)
    lines.append(f"lp_vs_simulation_agree: {agree}\n")
    if problem.gen_b.kind == JUMP and problem.criterion.kind != DISCOUNTED:
        try:
            best = exact_optimal_band(problem, *_band_box(problem))
        except OracleNotApplicable as exc:
            lines.append(f"## band oracle\nnot applicable: {exc}\n")
        else:
            lines.append(f"## band oracle\nbest s={best.band.s!r} S={best.band.big_s!r} "
                         f"cost={best.cost!r} +/- {best.half_width!r}\n")
            agree = _agreement(best.cost, best.half_width, sol.objective)
            lines.append(f"lp_vs_oracle_agree: {agree}\n")
    lines.append(f"boundary_mass_10pct: {boundary_mass_diagnostic(policy)!r}\n")
    _write(args, "report.txt", _config_header(args, digest) + "".join(lines))
    return EXIT_OK


def run(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    stage = {"validate": _validate, "export-mps": _export_mps,
             "band-oracle": _band_oracle}.get(args.mode, _pipeline)
    return stage(args, *_load(args))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, namespace=_Options())
    except SystemExit as exc:
        # argparse exits 0 for --help; usage errors count as config failures.
        return 0 if exc.code == 0 else EXIT_VALIDATION
    args._read.clear()  # parsing itself reads every option
    try:
        return run(args)
    except PipelineError as exc:
        print(f'error kind=PipelineError msg="{exc}"', file=sys.stderr)
        return exc.code
    except (ProblemFileError, GridError, ValueError) as exc:
        print(f'error kind={type(exc).__name__} msg="{exc}"', file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularBasisError, SimulationError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f'error kind={type(exc).__name__} msg="{exc}"', file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
