import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sclp.cli import main

INFEASIBLE_INI = """\
[problem]
name = tight-time-budget
[state]
x_lo = -4
x_hi = 4
[control]
u_lo = -1
u_hi = 1
admissible = abs_equals 1
[dynamics]
drift = constant 0
diffusion = constant 1
[singular]
kind = gradient
direction = control
[costs]
c0 = quadratic 0 0 0 1 0
c1 = constant 0
[criterion]
kind = discounted
alpha = 1.0
nu0 = 0:1.0
[budget.time]
g = constant 1
h = constant 0
cap = 1e-6
"""


INVENTORY_INI = """\
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


def run(tmp_path, *extra, problem="inventory", mode="solve"):
    out = tmp_path / "out"
    code = main(["--problem", problem, "--mode", mode,
                 "--out", str(out), *extra])
    return code, out


def test_validate_ok(tmp_path, capsys):
    code, out = run(tmp_path, mode="validate")
    assert code == 0
    text = (out / "validate.txt").read_text()
    assert "overall: pass" in text
    assert "# config" in text
    cfg = json.loads(text.splitlines()[0].split("# config ")[1])
    assert "problem_sha256" in cfg



def test_validate_infinite_diffusion_fails_without_a_warning(tmp_path):
    # A warning would print on stderr beside the report; in a subprocess,
    # so that the suite's warnings-as-errors filter does not apply.
    ini = tmp_path / "inf.ini"
    ini.write_text(INVENTORY_INI.replace(
        "diffusion = constant 1", "diffusion = tabulated -6:1 2:1 2.001:inf 4:inf"))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sclp.cli", "--problem", str(ini),
                           "--mode", "validate", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == ""
    assert "generators_finite: FAIL" in proc.stdout
    assert "unit_annihilated: FAIL" in proc.stdout

def test_solve_artifacts(tmp_path, capsys):
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "5",
                    "--basis", "8")
    assert code == 0
    assert (out / "solution.csv").exists()
    assert "status=optimal" in capsys.readouterr().out


def test_policy_mode(tmp_path):
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "5",
                    "--basis", "8", mode="policy")
    assert code == 0
    text = (out / "policy.txt").read_text()
    assert "feedback policy" in text
    assert "boundary mass" in text


def test_verify_mode(tmp_path):
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "5",
                    "--basis", "8", "--dt", "0.01", "--horizon", "20",
                    "--burn-in", "2", "--paths", "8", mode="verify")
    assert code == 0
    csv = (out / "verify_report.csv").read_text()
    assert csv.startswith("name,estimate,half_width,n")
    assert "lta_cost" in csv


@pytest.mark.parametrize("steps, burn_in", [(("--horizon", "20", "--dt", "0.02"), 2.0),
                                            (("--dt", "0.25"), 20.0)])
def test_burn_in_defaults_to_a_tenth_of_the_horizon(tmp_path, steps, burn_in):
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "5", "--basis", "8",
                    *steps, "--paths", "8", mode="verify")
    assert code == 0
    header = (out / "verify_report.txt").read_text().splitlines()[0]
    assert json.loads(header.split("# config ")[1])["burn_in"] == burn_in


def _sloped_inventory(tmp_path):
    """The inventory INI with the order size in the drift, solved at 41x11/12."""
    from sclp import (BasisFamily, assemble_lta_lp, build_grid, load_problem,
                      solve)
    ini = tmp_path / "inventory-u.ini"
    ini.write_text(INVENTORY_INI.replace("drift = constant -1",
                                         "drift = linear -1 0 -0.25"))
    problem = load_problem(str(ini))
    grid = build_grid(problem, 41, 11)
    basis = BasisFamily.cubic_on_interval(problem.state.x_lo, problem.state.x_hi, 12)
    return ini, problem, grid, basis, solve(assemble_lta_lp(problem, grid, basis))


SLOPED_GRID = ("--n-state", "41", "--n-control", "11", "--basis", "12")


def test_verify_simulates_the_kernels_of_the_lp(tmp_path):
    # With the order size in the drift, the LP puts eta1 mass on nodes that
    # carry no mu0 mass.  A path there borrows the nearest eta0 row (not
    # the jump size), so verify reports exactly what simulate() gives for
    # the disintegrated policy.
    from sclp import MeasurePair, SimConfig, marginals_and_kernels, simulate
    ini, problem, grid, basis, sol = _sloped_inventory(tmp_path)
    code, out = run(tmp_path, *SLOPED_GRID, *SHORT, problem=str(ini), mode="verify")
    assert code == 0
    policy = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    assert set(policy.eta1.rows) - set(policy.eta0.rows)
    rep = simulate(problem, policy, SimConfig(dt=0.02, horizon=4.0, n_paths=8,
                                              seed=0, burn_in=1.0), basis=basis)
    assert rep.bridged_steps > 0
    text = (out / "verify_report.txt").read_text()
    assert text.split("\n", 1)[1] == rep.to_text()


def test_round_off_weights_make_no_kernel_rows(tmp_path):
    # The simplex leaves weights of about 1e-16 on mu0 atoms with u = 8 at
    # nodes 5, 6 and 9, far below the mass at u = 0.  They are round-off:
    # no marginal mass, no eta0 row, so a path there is bridged.
    from sclp import MeasurePair, marginals_and_kernels
    from sclp.discretize import nearest_node
    ini, _, grid, _, sol = _sloped_inventory(tmp_path)
    node_of = nearest_node(grid.state_nodes, grid.mu0_atoms[:, 0])
    for i in (5, 6, 9):
        assert 0.0 < sol.weights[:grid.n0][node_of == i].sum() < 1e-15
    policy = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
    assert not {5, 6, 9} & set(policy.eta0.rows)
    assert np.all(policy.mu0_marginal[[5, 6, 9]] == 0.0)
    code, out = run(tmp_path, *SLOPED_GRID, problem=str(ini), mode="policy")
    assert code == 0
    text = (out / "policy.txt").read_text()
    assert not any(f"node {i} " in text for i in (5, 6, 9))


def test_export_mps_reparses_identically(tmp_path):
    from sclp.simplex import export_mps, parse_mps
    code, out = run(tmp_path, "--n-state", "11", "--n-control", "3",
                    "--basis", "5", mode="export-mps")
    assert code == 0
    text = (out / "problem.mps").read_text()
    assert export_mps(parse_mps(text)) == text


def test_export_mps_round_trip_compares(tmp_path, monkeypatch):
    import sclp.cli
    from sclp.simplex import parse_mps

    def perturbed(text):
        lp = parse_mps(text)
        lp.a_eq[0, 0] += 1e-12
        return lp

    monkeypatch.setattr(sclp.cli, "parse_mps", perturbed)
    code, out = run(tmp_path, "--n-state", "11", "--n-control", "3",
                    "--basis", "5", mode="export-mps")
    assert code == 5
    assert not (out / "problem.mps").exists()


def test_iteration_limit_exit_names_the_status(tmp_path, capsys):
    code, _ = run(tmp_path, "--n-state", "21", "--n-control", "5",
                  "--basis", "8", "--max-iter", "1")
    assert code == 5
    assert "not solved: status iter_limit" in capsys.readouterr().err


def test_uncertified_optimum_exits_numerical(tmp_path, capsys, monkeypatch):
    from sclp import simplex
    monkeypatch.setattr(simplex, "_certificate_failure", lambda *args: "doctored")
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "5",
                    "--basis", "8")
    assert code == 5
    assert "not solved: status numerical" in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


def test_band_oracle_single(tmp_path):
    code, out = run(tmp_path, "--band-s", "-1.0", "--band-S", "0.6",
                    "--dt", "0.01", "--horizon", "10", "--burn-in", "0",
                    "--paths", "50", mode="band-oracle")
    assert code == 0
    assert "s,S,cost,half_width" in (out / "band_table.csv").read_text()


def test_band_oracle_ignores_horizon_and_burn_in(tmp_path):
    # The oracle has no horizon: --horizon 10 with --burn-in 20 would not
    # make a valid simulation config.
    code, out = run(tmp_path, "--paths", "20", "--dt", "0.02", "--horizon", "10",
                    "--burn-in", "20", "--band-s", "-1", "--band-S", "0.5",
                    mode="band-oracle")
    assert code == 0
    lines = (out / "band_table.csv").read_text().splitlines()
    assert lines[1] == "s,S,cost,half_width"
    assert lines[2].startswith("-1.0,0.5,")
    code, _ = run(tmp_path, "--paths", "20", "--dt", "0", "--band-s", "-1",
                  "--band-S", "0.5", mode="band-oracle")
    assert code == 4


def test_band_oracle_artifact_ignores_horizon_and_out(tmp_path):
    tables = []
    for name, horizon in (("a", "10"), ("b", "50")):
        code = main(["--problem", "inventory", "--mode", "band-oracle",
                     "--paths", "20", "--dt", "0.02", "--horizon", horizon,
                     "--band-s", "-1", "--band-S", "0.5",
                     "--out", str(tmp_path / name)])
        assert code == 0
        tables.append((tmp_path / name / "band_table.csv").read_bytes())
    assert tables[0] == tables[1]


def test_band_oracle_flag_pairing(tmp_path):
    code, _ = run(tmp_path, "--band-s", "-1.0", mode="band-oracle")
    assert code == 4


def test_infeasible_exit_and_farkas(tmp_path, capsys):
    ini = tmp_path / "infeasible.ini"
    ini.write_text(INFEASIBLE_INI)
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "2",
                    "--basis", "8", problem=str(ini))
    assert code == 2
    assert (out / "farkas.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("error kind=")
    assert "\n" not in err.strip()  # single-line machine-parsable


def test_missing_problem_file(tmp_path, capsys):
    code, _ = run(tmp_path, problem=str(tmp_path / "nope.ini"))
    assert code == 4
    assert capsys.readouterr().err.startswith("error kind=")


def test_bad_flag_exit(tmp_path, capsys):
    assert main(["--problem", "inventory", "--mode", "fly"]) == 4


def test_alpha_on_lta_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "--alpha", "0.5")
    assert code == 4


def test_reproducible_artifacts(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--problem", "inventory", "--mode", "verify",
                     "--n-state", "21", "--n-control", "5", "--basis", "8",
                     "--dt", "0.01", "--horizon", "20", "--burn-in", "2",
                     "--paths", "8", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out)
    a = (outs[0] / "verify_report.csv").read_bytes()
    b = (outs[1] / "verify_report.csv").read_bytes()
    assert a == b
    assert (outs[0] / "solution.csv").read_bytes() == \
        (outs[1] / "solution.csv").read_bytes()


def test_report_mode(tmp_path):
    code, out = run(tmp_path, "--n-state", "25", "--n-control", "5",
                    "--basis", "18", "--dt", "0.01", "--horizon", "60",
                    "--burn-in", "6", "--paths", "16", "--seed", "2",
                    mode="report")
    assert code == 0
    text = (out / "report.txt").read_text()
    for token in ("## conditions", "## lp", "## simulation", "## band oracle",
                  "lp_vs_simulation_agree", "lp_vs_oracle_agree",
                  "problem_sha256"):
        assert token in text


@pytest.mark.parametrize("seed", ["0", "1"])
def test_finite_fuel_report_keeps_every_path_acting(tmp_path, seed):
    # Budgets hold in mean: no path stops pushing and diffuses off the grid.
    code, out = run(tmp_path, "--paths", "64", "--dt", "0.01", "--seed", seed,
                    problem="finite-fuel", mode="report")
    assert code == 0
    assert "truncation_events: 0 of " in (out / "report.txt").read_text()


def config_keys(path):
    return set(json.loads(path.read_text().splitlines()[0].split("# config ")[1]))


SMALL = ("--n-state", "21", "--n-control", "5", "--basis", "8")
SHORT = ("--paths", "8", "--dt", "0.02", "--horizon", "4", "--burn-in", "1")
ONE_BAND = ("--paths", "8", "--dt", "0.02", "--band-s", "-1", "--band-S", "0.5")
FUEL = ("--n-state", "21", "--n-control", "2", "--basis", "8", "--paths", "8",
        "--dt", "0.02")
READ_BY_ALL = {"alpha", "mode", "n_control", "n_state", "problem", "problem_sha256"}
READ_BY_SOLVE = READ_BY_ALL | {"basis", "max_iter"}
READ_BY_LTA_SIM = READ_BY_SOLVE | {"dt", "paths", "seed", "horizon", "burn_in"}
READ_BY_FUEL_SIM = READ_BY_SOLVE | {"dt", "paths", "seed", "form"}
ARTIFACT = {"validate": "validate.txt", "solve": "solve.txt", "policy": "policy.txt",
            "verify": "verify_report.txt", "report": "report.txt",
            "band-oracle": "band_table.csv"}
HEADER_CASES = [
    ("inventory", "validate", (), READ_BY_ALL),
    ("inventory", "solve", SMALL, READ_BY_SOLVE),
    ("inventory", "policy", SMALL, READ_BY_SOLVE),
    ("inventory", "verify", SMALL + SHORT, READ_BY_LTA_SIM),
    ("inventory", "report", SMALL + SHORT, READ_BY_LTA_SIM),
    ("finite-fuel", "validate", (), READ_BY_ALL),
    ("finite-fuel", "solve", FUEL, READ_BY_SOLVE | {"form"}),
    ("finite-fuel", "verify", FUEL, READ_BY_FUEL_SIM),
    ("finite-fuel", "report", FUEL, READ_BY_FUEL_SIM),
    ("inventory", "band-oracle", ONE_BAND,
     {"alpha", "band_S", "band_s", "dt", "mode", "paths", "problem",
      "problem_sha256", "seed"}),
]


@pytest.mark.parametrize("problem, mode, extra, keys", HEADER_CASES,
                         ids=[f"{p}-{m}" for p, m, *_ in HEADER_CASES])
def test_config_header_holds_the_options_read(tmp_path, problem, mode, extra, keys):
    code, out = run(tmp_path, *extra, problem=problem, mode=mode)
    assert code == 0
    assert config_keys(out / ARTIFACT[mode]) == keys


def test_every_option_is_read_by_some_mode():
    # An option that no header case records is read by no mode.
    from sclp.cli import build_parser
    dests = {a.dest for a in build_parser()._actions} - {"help", "out"}
    recorded = set().union(*(keys for *_, keys in HEADER_CASES))
    assert recorded == dests | {"problem_sha256"}


def test_tol_option_is_gone(tmp_path):
    code, _ = run(tmp_path, *SMALL, "--tol", "1e-9")
    assert code == 4


def test_solve_artifact_ignores_seed(tmp_path):
    texts = []
    for seed in ("1", "2"):
        code, out = run(tmp_path / seed, *SMALL, "--seed", seed)
        assert code == 0
        texts.append((out / "solve.txt").read_bytes())
    assert texts[0] == texts[1]


def test_discounted_verify_has_no_horizon(tmp_path):
    # A discounted run stops at the discount cutoff: --horizon 1 is not
    # checked against --dt.
    code, out = run(tmp_path, "--paths", "16", "--dt", "0.02", "--horizon", "1",
                    problem="finite-fuel", mode="verify")
    assert code == 0
    assert "discounted_cost" in (out / "verify_report.txt").read_text()


def test_report_without_band_oracle(tmp_path):
    # Inventory with a state-dependent drift: the LP and the simulation
    # apply, the (s, S) band oracle does not.
    ini = tmp_path / "sloped.ini"
    ini.write_text(INVENTORY_INI.replace("drift = constant -1",
                                         "drift = linear -1 -0.1 0"))
    code, out = run(tmp_path, *SMALL, *SHORT, problem=str(ini), mode="report")
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "## band oracle\nnot applicable: band oracle requires a constant drift\n" \
        in text
    assert "lp_vs_oracle_agree" not in text
    assert "lp_vs_simulation_agree" in text


# The names perfbench's traced runs rebind in sclp.cli to time each stage.
PIPELINE_NAMES = ("build_grid", "assemble_lta_lp", "assemble_discounted_lp", "solve",
                  "constraint_residual", "marginals_and_kernels", "extract_strict",
                  "boundary_mass_diagnostic", "simulate", "band_search",
                  "band_policy_oracle", "validate_conditions", "export_mps",
                  "parse_mps")


def test_stages_call_the_names_cli_imports(tmp_path, monkeypatch):
    import sclp.cli
    from sclp.verify import SimConfig
    calls = {name: [] for name in PIPELINE_NAMES}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in PIPELINE_NAMES:
        monkeypatch.setattr(sclp.cli, name, counted(name, getattr(sclp.cli, name)))
    for problem, mode, extra in (
            ("inventory", "report", SMALL + SHORT),
            ("inventory", "policy", SMALL),
            ("finite-fuel", "export-mps", FUEL),
            ("inventory", "band-oracle", ONE_BAND)):
        code, _ = run(tmp_path / mode, *extra, problem=problem, mode=mode)
        assert code == 0
    assert [name for name in PIPELINE_NAMES if not calls[name]] == []
    # perfbench counts oracle cycles from band_search's 4th positional argument.
    assert all(isinstance(args[3], SimConfig) for args in calls["band_search"])
