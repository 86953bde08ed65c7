"""sclp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload lp-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; sclp is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 untraced and
traced passes alternate and the metrics are the per-layer ones, with the
spans written to .perfbench_work/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("lp-ladder", "cli-report", "sim-long")
SETUP_PROBES = 8  # extra set-ups, each in a fresh interpreter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up and print it (used internally)")
    return p.parse_args(argv)


def set_up(args):
    """Import sclp from this checkout and build the workload's inputs.

    Returns (workload, seconds taken).  Timing starts before sclp (and
    numpy) are imported.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import sclp
    if os.path.dirname(os.path.abspath(sclp.__file__)) != os.path.join(SRC, "sclp"):
        raise SystemExit(f"sclp imported from {sclp.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, os.path.join(WORK, args.workload))
    return workload, time.perf_counter() - t0


def probe_setup(args) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, run one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def one_pass(workload, api, cstar):
    from checks import Checks
    chk = Checks()
    first = len(api.tr.spans)
    t0 = time.perf_counter()
    with api.tr.span("bench.pass"):
        ops, failed = workload.run_pass(api, chk, cstar)
    wall = time.perf_counter() - t0
    return wall, ops, failed, chk.failures, first


def layer_metrics(tracer, first) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced pass whose spans start at `first`."""
    spans = tracer.spans[first:]
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for sp, st in zip(spans, tracer.self_times(first)):
        self_s[sp.name] = self_s.get(sp.name, 0.0) + st
        for key, value in sp.counts.items():
            counts[key] = counts.get(key, 0) + value

    def s(name):
        return self_s.get(name, 0.0)

    def per(total_s, n, scale=1e6):
        return total_s / n * scale if n else 0.0

    c = counts.get
    return {
        "problems.load_s": (s("problems.load"), "s"),
        "model.validate_s": (s("model.validate"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
        "basis.eval_us_per_point": (per(s("basis.eval"), c("points", 0)), "us"),
        "discretize.grid_s": (s("discretize.grid"), "s"),
        "discretize.assemble_s": (s("discretize.assemble"), "s"),
        "discretize.residual_s": (s("discretize.residual"), "s"),
        "discretize.lp_columns": (c("lp_columns", 0), "count"),
        "simplex.solve_s": (s("simplex.solve"), "s"),
        "simplex.iterations": (c("iterations", 0), "count"),
        "simplex.us_per_iteration": (per(s("simplex.solve"), c("iterations", 0)), "us"),
        "simplex.mps_export_s": (s("simplex.mps_export"), "s"),
        "simplex.mps_parse_s": (s("simplex.mps_parse"), "s"),
        "simplex.mps_bytes": (c("mps_bytes", 0), "bytes"),
        "policy.extract_s": (s("policy.extract"), "s"),
        "verify.simulate_s": (s("verify.simulate"), "s"),
        "verify.us_per_step": (per(s("verify.simulate"), c("steps", 0)), "us"),
        "verify.path_steps": (c("path_steps", 0), "count"),
        "verify.band_search_s": (s("verify.band_search"), "s"),
        "verify.oracle_s": (s("verify.oracle"), "s"),
        "verify.oracle_cycles": (c("oracle_cycles", 0), "count"),
        "verify.budget_exhausted_paths": (c("budget_exhausted_paths", 0), "count"),
        "verify.truncation_events": (c("truncation_events", 0), "count"),
        "bench.self_s": (s("bench.pass"), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sclp", "__init__.py")):
        print(f"error: no sclp source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)

    if args.setup_probe:
        _, setup_s = set_up(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The exact reference is pure Python and independent of sclp.
    import exact
    cstar, _, _ = exact.optimal_band(exact.InventoryParams())

    workload, setup_main = set_up(args)
    from spans import Tracer
    from workloads import Api
    setups = [setup_main] + (probe_setup(args) if not args.trace else [])

    traced = Tracer(True)
    plain_api, traced_api = Api(Tracer(False)), Api(traced)
    walls, traced_walls, layer_runs = [], [], []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, ops, bad, fails, _ = one_pass(workload, plain_api, cstar)
        walls.append(wall)
        print(f"pass {len(walls)}: wall_s={wall:.4f}", file=sys.stderr)
        attempted, failed = attempted + ops, failed + bad
        failures += fails
        if args.trace:
            wall, ops, bad, fails, first = one_pass(workload, traced_api, cstar)
            traced_walls.append(wall)
            print(f"pass {len(walls)} traced: wall_s={wall:.4f}", file=sys.stderr)
            layer_runs.append(layer_metrics(traced, first))
            attempted, failed = attempted + ops, failed + bad
            failures += fails

    metrics = {}
    if args.trace:
        for name, (_, unit) in layer_runs[0].items():
            values = [run[name][0] for run in layer_runs]
            if unit == "count" or unit == "bytes":
                if len(set(values)) != 1:
                    failures.append(f"{name} differs between equal passes: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls),
            "unit": "s"}
        os.makedirs(WORK, exist_ok=True)
        traced.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }

    for msg in dict.fromkeys(failures):
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
