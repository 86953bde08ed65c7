import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sclp.cli import main
from test_problems import FUEL_INI

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


SMALL = ("--n-state", "21", "--n-control", "5", "--basis", "8")
# Inputs that once crashed with a traceback or ran to a silently wrong
# result; each must exit 4 with one error line.
BAD_INPUTS = {
    "no_section_header": ("x_lo = -6\n" + INVENTORY_INI, "solve", ()),
    "duplicate_option": (INVENTORY_INI.replace("x_hi = 4", "x_hi = 4\nx_hi = 5"),
                         "solve", ()),
    "non_numeric_x_lo": (INVENTORY_INI.replace("x_lo = -6", "x_lo = abc"), "solve", ()),
    "infinite_u_hi": (INVENTORY_INI.replace("u_hi = 8", "u_hi = inf"), "solve", ()),
    "nan_diffusion": (INVENTORY_INI.replace("diffusion = constant 1",
                                            "diffusion = constant nan"), "solve", ()),
    "x_lo_above_x_hi": (INVENTORY_INI.replace("x_lo = -6", "x_lo = 5"), "solve", ()),
    "nan_alpha": ("finite-fuel", "solve", ("--alpha", "nan")),
    "infinite_dt": ("finite-fuel", "verify", ("--dt", "inf")),
    "infinite_horizon": ("inventory", "verify", ("--horizon", "inf", "--burn-in", "0")),
    # The burn-in rounds to the horizon's last step: no step is counted.
    "no_step_after_burn_in": ("inventory", "verify", ("--paths", "8", "--dt", "0.01",
                                                      "--horizon", "1", "--burn-in", "0.996")),
    "nu0_outside_state_interval": (FUEL_INI.replace("nu0 = 0:1.0", "nu0 = 9:1.0"),
                                   "solve", ()),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_4_with_one_error_line(tmp_path, capsys, case):
    problem, mode, extra = BAD_INPUTS[case]
    if "\n" in problem:
        (tmp_path / "bad.ini").write_text(problem)
        problem = str(tmp_path / "bad.ini")
    code, _ = run(tmp_path, *SMALL, *extra, problem=problem, mode=mode)
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("error kind=") and err.count("\n") == 1, err


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


# sha256 of every line of a small finite-fuel report but its martingale
# residuals and its config header: cost, budget, counts and verdicts.
SMALL_FUEL_REPORT_SHA256 = [
    "918f52c39c1d6e152dcd69b769ba53ad0773eec5a5c4a00858f4454e10e42a19",
    "8757aac531288191e2873a5cc4136c306867428a0e8dfc587e56919fa08ed042",
    "aa87073904397daef49598677f91faafd86136c6e454e4819b33a9910205d8dc",
    "1631cd487c59bcbbb6c3c2bbd109a7e0521e96f7476d10c5e3d21f6a9c348065",
    "81a0964d6f0c07eff602c8e78624c72d5c0bfee9d9e4069537bab79a55fbe180",
    "43f987d4bbe20c6d902d50f2d3edd56fc857abe632ca154be8c7461a41abc4ef",
    "2927eddd2449292fb333d4e98b88e4750c76a8c7359169c09c92eb07a1e4b003",
    "55be4c6b91c60d084817c8be213bc472306b6dcaafc5f4114fc30afe22ff09b0",
    "f51dac3739b83d7eb4be38b84ed1157d10146f0a9a8a5bbe9e138ed41c30034d",
    "2f7469cbef0d990c9d0648f076589d4f9a2d7fdf99f9210a4c1b1ee730e57ae6",
    "4a6f334522c35bbc183daa1a2b642768c5e41ca70309dd1e37262e07041cf02e",
    "886e6426cdfa05f4766531c991470562098a8a0fa2f8526fe7cec5c05d4fadd7",
    "ae49ab081d05246ba4555fb5fde79b849c6bce6d4bf01ff16f3171b6fd2778e5",
    "a89fa48ae3fb48092f4d4b87379e368b9d220ad0a13888e1b60a78e4aed676ac",
    "0b178ac70d22b2176611e3efc11254bcc5716d51e9a16beef56c000f5fa4c301",
    "9da5bbbf6a497c951251ba528496d27a5cfd27b7af073369d0425e7034301b11",
    "d90219b3b85f42e25f67ae56f8bcdaa09bdc9faa5926ef17ff6670e7928ada90",
]


def test_finite_fuel_report_lines_pinned(tmp_path):
    code, out = run(tmp_path, "--n-state", "21", "--n-control", "5", "--basis", "8",
                    "--paths", "16", "--dt", "0.02", "--seed", "2",
                    problem="finite-fuel", mode="report")
    assert code == 0
    lines = [ln for ln in (out / "report.txt").read_text().splitlines()
             if not ln.startswith(("mart[", "# config"))]
    assert [hashlib.sha256(ln.encode()).hexdigest() for ln in lines] == SMALL_FUEL_REPORT_SHA256


# sha256 of every line of a small inventory (jump) report but its config
# header, martingale residuals included.  The band oracle's two lines hold
# the exact optimal band; the 21x5/8 LP reads 1.67920, 7.4% below its
# 1.81367, so lp_vs_oracle_agree reads FAIL.
SMALL_INVENTORY_REPORT_SHA256 = [
    "918f52c39c1d6e152dcd69b769ba53ad0773eec5a5c4a00858f4454e10e42a19",
    "d4972c2d9164e0122021f7539b20e8368a150fdf667aa120300cac865623c9fd",
    "aa87073904397daef49598677f91faafd86136c6e454e4819b33a9910205d8dc",
    "1631cd487c59bcbbb6c3c2bbd109a7e0521e96f7476d10c5e3d21f6a9c348065",
    "81a0964d6f0c07eff602c8e78624c72d5c0bfee9d9e4069537bab79a55fbe180",
    "43f987d4bbe20c6d902d50f2d3edd56fc857abe632ca154be8c7461a41abc4ef",
    "2927eddd2449292fb333d4e98b88e4750c76a8c7359169c09c92eb07a1e4b003",
    "b99f8a1fe691dca9ef7acaa7df0afed19198b375ec2ec38f531d5d163f7fcad6",
    "f51dac3739b83d7eb4be38b84ed1157d10146f0a9a8a5bbe9e138ed41c30034d",
    "445ed6633d5cddda4e60a3c161e19f7c318fd39ca87d408c35bab7c47032b724",
    "446c1049cf2d12f3daf96387acf3893cdcf2b62dde977a189f5ffb4e5aa493f4",
    "8d75119842112a8c2b59df07163d04fb3f7179eb1db1606484427bed31905139",
    "f615594a886a3fbda0444aa0ac6e4b5886dc51dbf0f40abc94c95ec0f6c9943a",
    "1fdd8b09b1741939b1c9c09a4cfb32139e05e8fd5a257b3890a6bbfc1772fb88",
    "d08e4fc5cc127deb9b1552721ef1712eb8f519bfb281e9dea992ec0fe1091a37",
    "3b1eeb62f5a2ecf79b7fe69337b930cc7924fff1ca1efda4c7191be3e35d4893",
    "29d0e609610113f57a0dbe9ad86c32a6cc8b9cb9bc864c8296dd1182b3b82440",
    "50da94d0a900278256158efe9f3a9171a3af627a32afdfb8b728e4baa2dab430",
    "a4d5bb7254f4fef6cf453eb49b33491ea97e6056dbb903db5f59a7f588a8ca7d",
    "31d71e2520ded37ccf42b0e8b68b67ac57601e922b184dec9b0fee3472a38a1a",
    "e89b2b114f4425b97a602c17fba245697ce003577d7f44bf2b282ccc638fc485",
    "a4eb276dd1c3ad84619c25126e400b551d3030a8b37a82050b6bcb36a46cae16",
    "81370934e1432f46777b1f8805c075fd4f284da25dfe24f367ff6fc2eb8f4ec4",
    "8ac458325e68be8e3dd39cd1d6d7e32999d02a96ef13b5deeee7167fecc8180a",
    "72e1239b51e897d7bf734b9d9567e83c5595acafe494571e5e32fc5b50ae83f0",
    "6d2ffd5c3b1e0e4ba8764505c7bc15a5d0eb1b8548f07eab8bc067c27783008b",
    "180c3b41da4402555c21a42284efa3ab5481e0d86de3da73f8d085a363c135e6",
    "73dbf53afccfa02dabaf9c019217fbf7bbd24954743d6cfcce76e264daae269c",
    "d90219b3b85f42e25f67ae56f8bcdaa09bdc9faa5926ef17ff6670e7928ada90",
]


def test_inventory_report_lines_pinned(tmp_path):
    ini = tmp_path / "inventory.ini"
    ini.write_text(INVENTORY_INI)
    code, out = run(tmp_path, *SMALL, "--paths", "16", "--dt", "0.02", "--horizon", "4",
                    "--burn-in", "1", "--seed", "2", problem=str(ini), mode="report")
    assert code == 0
    lines = [ln for ln in (out / "report.txt").read_text().splitlines()
             if not ln.startswith("# config")]
    assert [hashlib.sha256(ln.encode()).hexdigest() for ln in lines] == SMALL_INVENTORY_REPORT_SHA256


def config_keys(path):
    return set(json.loads(path.read_text().splitlines()[0].split("# config ")[1]))


SHORT = ("--paths", "8", "--dt", "0.02", "--horizon", "4", "--burn-in", "1")
ONE_BAND = ("--paths", "8", "--dt", "0.02", "--band-s", "-1", "--band-S", "0.5")
FUEL = ("--n-state", "21", "--n-control", "2", "--basis", "8", "--paths", "8",
        "--dt", "0.02")
READ_BY_ALL = {"alpha", "mode", "n_control", "n_state", "problem", "problem_sha256"}
READ_BY_SOLVE = READ_BY_ALL | {"basis", "max_iter"}
READ_BY_LTA_SIM = READ_BY_SOLVE | {"dt", "paths", "seed", "horizon", "burn_in"}
READ_BY_FUEL_SIM = READ_BY_SOLVE | {"dt", "paths", "seed"}
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
    ("finite-fuel", "solve", FUEL, READ_BY_SOLVE),
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


def test_form_option_is_gone(tmp_path):
    # The library keeps both discounted forms; the CLI assembles the normalized one.
    code, _ = run(tmp_path, *FUEL, "--form", "rescaled", problem="finite-fuel",
                  mode="solve")
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


def test_report_band_oracle_ignores_budgeted_problems(tmp_path):
    # Capping the order rate at 0.4 excludes the unconstrained optimum's
    # band, which orders at rate 0.53: the band oracle, blind to budgets,
    # must not apply.
    from sclp import BandPolicy, SimConfig, band_policy_oracle, load_problem
    from sclp.verify import OracleNotApplicable
    ini = tmp_path / "capped.ini"
    ini.write_text(INVENTORY_INI + "[budget.orders]\ng = constant 0\nh = constant 1\n"
                                   "cap = 0.4\n")
    code, out = run(tmp_path, *SMALL, *SHORT, problem=str(ini), mode="report")
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "## band oracle\nnot applicable: band oracle ignores budget constraints\n" \
        in text
    assert "lp_vs_oracle_agree" not in text
    with pytest.raises(OracleNotApplicable, match="budget"):
        band_policy_oracle(load_problem(str(ini)), BandPolicy(-1.0, 0.5),
                           SimConfig(dt=0.02, horizon=None, n_paths=4, seed=0))


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
            ("inventory", "band-oracle", ONE_BAND),
            ("inventory", "band-oracle", ("--paths", "8", "--dt", "0.05"))):
        code, _ = run(tmp_path / mode, *extra, problem=problem, mode=mode)
        assert code == 0
    assert [name for name in PIPELINE_NAMES if not calls[name]] == []
    # perfbench counts oracle cycles from band_search's 4th positional argument.
    assert all(isinstance(args[3], SimConfig) for args in calls["band_search"])
