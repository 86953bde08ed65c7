"""The three benchmark workloads.

Each workload builds its inputs once per process (setup) and then runs
identical passes.  A pass is a fixed list of operations run one after the
next (a closed loop with one client), and every output is checked.  sclp
is reached only through its public functions and sclp.cli.main.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

import sclp
import sclp.cli

from checks import (covers, lp_certificate, martingale, non_increasing,
                    parse_estimates, parse_field, same_lp)
import exact

# ---------------------------------------------------------------------------
# Public functions, wrapped per layer when traced.


def _count_columns(sp, lp, args, kwargs):
    sp.count(lp_columns=lp.n_cols)


def _count_iterations(sp, sol, args, kwargs):
    sp.count(iterations=sol.iterations)


def _count_bytes(sp, text, args, kwargs):
    sp.count(mps_bytes=len(text))


def _count_simulation(sp, rep, args, kwargs):
    sp.count(steps=rep.total_steps // rep.n_paths, path_steps=rep.total_steps,
             truncation_events=rep.truncation_events,
             budget_exhausted_paths=rep.budget_exhausted_paths)


def _count_search(sp, res, args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    sp.count(oracle_cycles=len(res.table) * cfg.n_paths)


def _count_oracle(sp, est, args, kwargs):
    sp.count(oracle_cycles=est.n_cycles)


# public name -> (span name, work counter)
LAYER_OF = {
    "load_problem": ("problems.load", None),
    "validate_conditions": ("model.validate", None),
    "build_grid": ("discretize.grid", None),
    "assemble_lta_lp": ("discretize.assemble", _count_columns),
    "assemble_discounted_lp": ("discretize.assemble", _count_columns),
    "constraint_residual": ("discretize.residual", None),
    "solve": ("simplex.solve", _count_iterations),
    "export_mps": ("simplex.mps_export", _count_bytes),
    "parse_mps": ("simplex.mps_parse", None),
    "marginals_and_kernels": ("policy.extract", None),
    "extract_strict": ("policy.extract", None),
    "boundary_mass_diagnostic": ("policy.extract", None),
    "simulate": ("verify.simulate", _count_simulation),
    "band_search": ("verify.band_search", _count_search),
    "band_policy_oracle": ("verify.oracle", _count_oracle),
}


class Api:
    """sclp's public functions as this pass should call them."""

    def __init__(self, tr):
        self.tr = tr
        for name, (span, counter) in LAYER_OF.items():
            setattr(self, name, tr.wrap(getattr(sclp, name), span, counter))

    @contextlib.contextmanager
    def bound_in_cli(self):
        """Rebind the names sclp.cli imported to the traced versions."""
        if not self.tr.enabled:
            yield
            return
        saved = {}
        for name in LAYER_OF:
            if hasattr(sclp.cli, name):
                saved[name] = getattr(sclp.cli, name)
                setattr(sclp.cli, name, getattr(self, name))
        saved["BUILTIN_PROBLEMS"] = sclp.cli.BUILTIN_PROBLEMS
        sclp.cli.BUILTIN_PROBLEMS = {
            k: self.tr.wrap(v, "problems.load")
            for k, v in sclp.cli.BUILTIN_PROBLEMS.items()}
        try:
            yield
        finally:
            for name, value in saved.items():
                setattr(sclp.cli, name, value)


def basis_probe(api: Api, basis, points: np.ndarray):
    """Evaluate value, d1 and d2 of every family member at the points."""
    with api.tr.span("basis.eval") as sp:
        for f in basis.functions:
            f.value(points)
            f.d1(points)
            f.d2(points)
        sp.count(points=points.size)


def probe_points(seed: int, lo: float, hi: float, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(lo, hi, n)


INVENTORY = exact.InventoryParams()  # sclp.inventory_problem() defaults


# ---------------------------------------------------------------------------

class LpLadder:
    """Nested LP refinement ladders plus an MPS round trip; no simulation."""

    # Each rung refines one axis of the previous one, so the atoms nest.
    # Coarser rungs with this 50-spline basis are not lower bounds of the
    # exact optimum (51x26 reads 1.8168 > C*), so the ladder starts at 101x26.
    INVENTORY_RUNGS = ((101, 26), (101, 51), (201, 51), (201, 101))
    INVENTORY_BASIS = 50
    FUEL_NODES = (41, 161, 321)
    FUEL_BASIS = 16
    PROBE_POINTS = 16384

    def setup(self, seed: int, workdir: str):
        self.inventory = sclp.inventory_problem()
        self.fuel = sclp.finite_fuel_problem()
        st = self.inventory.state
        self.inv_basis = sclp.BasisFamily.cubic_on_interval(
            st.x_lo, st.x_hi, self.INVENTORY_BASIS)
        fs = self.fuel.state
        self.fuel_basis = sclp.BasisFamily.cubic_on_interval(
            fs.x_lo, fs.x_hi, self.FUEL_BASIS)
        self.points = probe_points(seed, st.x_lo, st.x_hi, self.PROBE_POINTS)

    def _solve(self, api, chk, lp, label):
        sol = api.solve(lp)
        eq, _ = api.constraint_residual(lp, sol.weights)
        own = lp_certificate(chk, lp, sol, label)
        chk.require(abs(eq - own) <= 1e-12,
                    f"{label}: constraint_residual {eq!r} != {own!r}")
        return sol

    def run_pass(self, api, chk, cstar):
        ops = 0
        objs = []
        for ns, nc in self.INVENTORY_RUNGS:
            label = f"inventory {ns}x{nc}/{self.INVENTORY_BASIS}"
            grid = api.build_grid(self.inventory, ns, nc)
            lp = api.assemble_lta_lp(self.inventory, grid, self.inv_basis)
            sol = self._solve(api, chk, lp, label)
            chk.require(sol.objective <= cstar,
                        f"{label}: LP {sol.objective!r} above exact C* {cstar!r}")
            objs.append(sol.objective)
            ops += 1
        chk.require(non_increasing(objs), f"inventory ladder not monotone: {objs}")
        largest = lp

        fuel_objs = {}
        for form in (sclp.NORMALIZED, sclp.RESCALED):
            fuel_objs[form] = []
            for ns in self.FUEL_NODES:
                label = f"finite-fuel {form} {ns}x2/{self.FUEL_BASIS}"
                grid = api.build_grid(self.fuel, ns, 2)
                lp = api.assemble_discounted_lp(self.fuel, grid, self.fuel_basis,
                                                form=form)
                fuel_objs[form].append(self._solve(api, chk, lp, label).objective)
                ops += 1
            chk.require(non_increasing(fuel_objs[form]),
                        f"finite-fuel {form} ladder not monotone: {fuel_objs[form]}")
        for a, b in zip(fuel_objs[sclp.NORMALIZED], fuel_objs[sclp.RESCALED]):
            chk.require(abs(a - b) <= 1e-6 * abs(a),
                        f"normalized {a!r} and rescaled {b!r} objectives differ")

        text = api.export_mps(largest)
        chk.require(same_lp(api.parse_mps(text), largest),
                    "MPS round trip changed a coefficient")
        ops += 1

        basis_probe(api, self.inv_basis, self.points)
        ops += 1
        return ops, 0


# ---------------------------------------------------------------------------

INVENTORY_INI = """\
# The built-in inventory problem (sclp.inventory_problem() defaults).
[problem]
name = inventory
[state]
x_lo = -6
x_hi = 4
[control]
u_lo = 0
u_hi = 8
[dynamics]
drift = constant -1
diffusion = constant 1
[singular]
kind = jump
displacement = control
[costs]
c0 = piecewise_linear 0 2 1
c1 = linear 1 0 0.5
[criterion]
kind = lta
"""

GRID_ARGS = ["--n-state", "41", "--n-control", "11", "--basis", "12"]
# Long enough for the LTA cost and the band oracle to pass the report's own
# 5% agreement tests on every seed; the residuals of this run carry the
# Euler bias the sclp README warns of and are not judged.
REPORT_ARGS = ["--mode", "report", *GRID_ARGS, "--paths", "2048",
               "--dt", "0.02", "--horizon", "10", "--burn-in", "2"]
# Short horizon, small step: the setting in which martingale residuals are
# unbiased enough to be judged.
VERIFY_ARGS = ["--mode", "verify", *GRID_ARGS, "--paths", "256",
               "--dt", "0.002", "--horizon", "1", "--burn-in", "0"]
# The known fault: fixed inputs, independent of --seed.
FUEL_ARGS = ["--problem", "finite-fuel", "--mode", "report", "--paths", "64",
             "--dt", "0.01", "--seed", "2"]


def run_cli(api, argv) -> tuple[int, str]:
    """sclp.cli.main in process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with api.tr.span("cli.main"), api.bound_in_cli(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sclp.cli.main(argv)
    return code, err.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


class CliReport:
    """The command users run: sclp --mode report, on both singular kinds."""

    PROBE_POINTS = 2048  # the report's path count: one simulation step

    def setup(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.ini = os.path.join(workdir, "inventory.ini")
        with open(self.ini, "w") as fh:
            fh.write(INVENTORY_INI)
        self.inventory = sclp.inventory_problem()
        st = self.inventory.state
        self.basis = sclp.BasisFamily.cubic_on_interval(st.x_lo, st.x_hi, 12)
        self.points = probe_points(seed, st.x_lo, st.x_hi, self.PROBE_POINTS)
        self.digests: dict[str, str] = {}

    def _out(self, name):
        return ["--out", os.path.join(self.workdir, name)]

    def _same_as_last_pass(self, chk, name, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        chk.require(self.digests.setdefault(name, digest) == digest,
                    f"{name}: artifact differs between passes with equal inputs")

    def run_pass(self, api, chk, cstar):
        ops = failed = 0

        # The INI copy assembles to exactly the built-in LP.
        from_file = api.load_problem(self.ini)
        lps = [api.assemble_lta_lp(p, api.build_grid(p, 41, 11), self.basis)
               for p in (from_file, self.inventory)]
        chk.require(same_lp(*lps), "INI inventory LP differs from the built-in LP")
        ops += 1

        seed = ["--seed", str(self.seed)]
        code, err = run_cli(api, ["--problem", self.ini, *REPORT_ARGS, *seed,
                                  *self._out("report")])
        ops += 1
        chk.require(code == 0, f"inventory report exited {code}: {err.strip()}")
        if code == 0:
            self._check_report(chk, cstar)

        code, err = run_cli(api, ["--problem", self.ini, *VERIFY_ARGS, *seed,
                                  *self._out("verify")])
        ops += 1
        chk.require(code == 0, f"inventory verify exited {code}: {err.strip()}")
        if code == 0:
            text = _read(os.path.join(self.workdir, "verify", "verify_report.txt"))
            self._same_as_last_pass(chk, "verify_report.txt", text)
            martingale(chk, {k: v for k, v in parse_estimates(text).items()
                             if k.startswith("mart[")}, "inventory verify")

        # Known fault: finite-fuel paths stop acting once their undiscounted
        # pathwise fuel exceeds the in-mean discounted cap, then diffuse.
        code, _ = run_cli(api, [*FUEL_ARGS, *self._out("fuel")])
        ops += 1
        if code != 0:
            failed += 1
        else:
            text = _read(os.path.join(self.workdir, "fuel", "report.txt"))
            failed += "FAIL" in text

        basis_probe(api, self.basis, self.points)
        ops += 1
        return ops, failed

    def _check_report(self, chk, cstar):
        text = _read(os.path.join(self.workdir, "report", "report.txt"))
        self._same_as_last_pass(chk, "report.txt", text)
        for line in ("overall: pass", "lp_vs_simulation_agree: pass",
                     "lp_vs_oracle_agree: pass", "status=optimal"):
            chk.require(line in text, f"inventory report lacks '{line}'")
        objective = float(parse_field(text, r"objective=(\S+)"))
        eq = float(parse_field(text, r"eq_residual=(\S+)"))
        chk.require(eq <= 1e-8, f"inventory report: eq_residual {eq!r}")
        chk.require(objective <= cstar,
                    f"inventory report: LP {objective!r} above exact C* {cstar!r}")
        est = parse_estimates(text)
        cost, half, _ = est["lta_cost"]
        chk.require(cost + half >= cstar,
                    f"inventory report: simulated {cost!r} + {half!r} below C* {cstar!r}")
        const = est.get("mart[1]")
        chk.require(const is not None and const[:2] == (0.0, 0.0),
                    f"inventory report: constant residual {const!r} is not exactly 0")


# ---------------------------------------------------------------------------

class SimLong:
    """Long-horizon simulation without test functions, plus the band oracle."""

    GRID = (25, 11, 18)  # a basis close to the grid size: informative TV
    SIM = dict(dt=0.01, horizon=200.0, n_paths=256, burn_in=20.0)
    STATIONARITY_TV = 0.1  # as in the acceptance gate
    SEARCH_S = (-1.4, -1.1, -0.8)
    SEARCH_BIG_S = (0.5, 0.8, 1.1)
    SEARCH_CYCLES = 1000
    # The 41x11/12 policy's band, the exact optimum, and a wide band.
    BANDS = ((-1.0, 0.6), (-1.0683, 0.8137), (-2.0, 2.0))
    BAND_CYCLES = 4000
    ORACLE_DT = 0.01
    PROBE_POINTS = 256  # the simulation's path count

    def setup(self, seed: int, workdir: str):
        self.seed = seed
        self.inventory = sclp.inventory_problem()
        st = self.inventory.state
        self.basis = sclp.BasisFamily.cubic_on_interval(st.x_lo, st.x_hi,
                                                        self.GRID[2])
        self.points = probe_points(seed, st.x_lo, st.x_hi, self.PROBE_POINTS)

    def run_pass(self, api, chk, cstar):
        ops = 0
        ns, nc, nb = self.GRID
        label = f"inventory {ns}x{nc}/{nb}"
        grid = api.build_grid(self.inventory, ns, nc)
        lp = api.assemble_lta_lp(self.inventory, grid, self.basis)
        sol = api.solve(lp)
        api.constraint_residual(lp, sol.weights)
        lp_certificate(chk, lp, sol, label)
        ops += 1

        with api.tr.span("policy.extract"):
            measures = sclp.MeasurePair.from_solution(grid, sol.weights)
        policy = api.marginals_and_kernels(grid, measures)
        policy.strict, _ = api.extract_strict(policy)
        ops += 1

        cfg = sclp.SimConfig(seed=self.seed, **self.SIM)
        rep = api.simulate(self.inventory, policy, cfg)
        tv = rep.stationarity_distance
        chk.require(tv is not None and tv <= self.STATIONARITY_TV,
                    f"{label}: stationarity TV {tv!r} > {self.STATIONARITY_TV}")
        chk.require(rep.cost.value + rep.cost.half_width >= cstar,
                    f"{label}: simulated {rep.cost.value!r} + "
                    f"{rep.cost.half_width!r} below C* {cstar!r}")
        ops += 1

        ocfg = sclp.SimConfig(dt=self.ORACLE_DT, horizon=10.0,
                              n_paths=self.SEARCH_CYCLES, seed=self.seed)
        res = api.band_search(self.inventory, np.array(self.SEARCH_S),
                              np.array(self.SEARCH_BIG_S), ocfg)
        chk.require(min(row[2] for row in res.table) == res.cost,
                    "band_search best is not the table minimum")
        ops += 1

        bcfg = sclp.SimConfig(dt=self.ORACLE_DT, horizon=10.0,
                              n_paths=self.BAND_CYCLES, seed=self.seed)
        ests = []
        for s, big_s in self.BANDS:
            e = api.band_policy_oracle(self.inventory, sclp.BandPolicy(s, big_s), bcfg)
            ests.append((e.cost, e.half_width))
            ops += 1
        # Never judged against the search minimum, which is biased low:
        # every estimate is judged against its own exact band cost.
        covers(chk, [(c, h) for _, _, c, h in res.table],
               [exact.band_cost(INVENTORY, s, big_s) for s, big_s, _, _ in res.table],
               self.SEARCH_CYCLES, "band_search")
        covers(chk, ests, [exact.band_cost(INVENTORY, s, b) for s, b in self.BANDS],
               self.BAND_CYCLES, "band oracle")

        basis_probe(api, self.basis, self.points)
        ops += 1
        return ops, 0


WORKLOADS = {
    "lp-ladder": LpLadder,
    "cli-report": CliReport,
    "sim-long": SimLong,
}
