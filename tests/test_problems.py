import re

import numpy as np
import pytest

from sclp.basis import BasisFamily
from sclp.discretize import assemble_discounted_lp, assemble_lta_lp, build_grid
from sclp.model import DISCOUNTED, GRADIENT, JUMP, LONG_TERM_AVERAGE
from sclp.policy import MeasurePair, marginals_and_kernels
from sclp.problems import (ProblemFileError, finite_fuel_problem,
                           inventory_problem, load_problem, parse_function)
from sclp.simplex import solve
from sclp.verify import SimConfig, simulate

INVENTORY_INI = """\
[problem]
name = file-inventory
[state]
x_lo = -6
x_hi = 4
[control]
u_lo = 0
u_hi = 8
admissible = all
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

FUEL_INI = """\
[problem]
name = file-fuel
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
[budget.fuel]
g = constant 0
h = abs_control 0 1
cap = 1.0
"""


def test_builtin_shapes():
    inv = inventory_problem()
    assert inv.criterion.kind == LONG_TERM_AVERAGE
    assert inv.gen_b.kind == JUMP
    fuel = finite_fuel_problem()
    assert fuel.criterion.kind == DISCOUNTED
    assert fuel.gen_b.kind == GRADIENT
    assert len(fuel.costs.budgets) == 1
    # Fuel density is bounded away from zero on the admissible set |u| = 1.
    assert fuel.costs.budgets[0].h(0.0, -1.0) == 1.0


def test_file_matches_builtin(tmp_path):
    path = tmp_path / "inv.ini"
    path.write_text(INVENTORY_INI)
    p_file = load_problem(str(path))
    p_builtin = inventory_problem()
    assert p_file.name == "file-inventory"
    g = build_grid(p_file, 21, 5)
    b = BasisFamily.cubic_on_interval(-6.0, 4.0, 8)
    obj_file = solve(assemble_lta_lp(p_file, g, b)).objective
    g2 = build_grid(p_builtin, 21, 5)
    obj_builtin = solve(assemble_lta_lp(p_builtin, g2, b)).objective
    assert obj_file == pytest.approx(obj_builtin, rel=1e-12)


def test_file_fuel_loads(tmp_path):
    path = tmp_path / "fuel.ini"
    path.write_text(FUEL_INI)
    p = load_problem(str(path))
    assert p.criterion.alpha == 1.0
    assert p.criterion.nu0 == ((0.0, 1.0),)
    assert p.costs.budgets[0].cap == 1.0
    assert p.gen_b.kind == GRADIENT
    adm = p.control.admits(np.zeros(3), np.array([-1.0, 0.0, 1.0]))
    assert list(adm) == [True, False, True]


def test_catalog_functions():
    x = np.array([-1.0, 0.0, 2.0])
    u = np.array([0.5, 0.5, 0.5])
    assert np.allclose(parse_function("constant 3")(x, u), 3.0)
    assert np.allclose(parse_function("linear 1 2 3")(x, u), 1 + 2 * x + 3 * u)
    assert np.allclose(parse_function("quadratic 0 0 0 1 2")(x, u),
                       x ** 2 + 2 * u ** 2)
    assert np.allclose(parse_function("piecewise_linear 0 2 1")(x, u),
                       2 * np.maximum(-x, 0) + np.maximum(x, 0))
    assert np.allclose(parse_function("abs_control 1 2")(x, u), 1 + 2 * np.abs(u))
    assert np.allclose(parse_function("control")(x, u), u)
    tab = parse_function("tabulated -1:0 0:1 2:3")
    assert np.allclose(tab(x, u), [0.0, 1.0, 3.0])
    assert tab(np.array([-0.5]), np.array([0.0]))[0] == pytest.approx(0.5)


def test_catalog_errors():
    for spec in ("", "mystery 1", "constant", "constant a", "linear 1 2",
                 "control 1", "tabulated 0:1", "tabulated 0:1 0:2",
                 "tabulated 0-1 1-2"):
        with pytest.raises(ProblemFileError):
            parse_function(spec)


def test_load_errors(tmp_path):
    with pytest.raises(ProblemFileError, match="cannot read"):
        load_problem(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[state]\nx_lo = 0\nx_hi = 1\n")
    with pytest.raises(ProblemFileError, match="missing"):
        load_problem(str(bad))
    bad.write_text(INVENTORY_INI.replace("kind = jump", "kind = teleport"))
    with pytest.raises(ProblemFileError, match="singular kind"):
        load_problem(str(bad))
    bad.write_text(INVENTORY_INI.replace("kind = lta", "kind = mystery"))
    with pytest.raises(ProblemFileError, match="criterion"):
        load_problem(str(bad))
    bad.write_text(INVENTORY_INI.replace("admissible = all",
                                         "admissible = sometimes"))
    with pytest.raises(ProblemFileError, match="admissible"):
        load_problem(str(bad))


# Files that configparser itself rejects: no section header, a duplicate
# option.
MALFORMED_INI = {
    "no_header": "x_lo = -6\n" + INVENTORY_INI,
    "duplicate_option": INVENTORY_INI.replace("x_hi = 4", "x_hi = 4\nx_hi = 5"),
}

# A number that does not parse, named by its [section] key.
NON_NUMERIC_INI = {
    "[state] x_lo": INVENTORY_INI.replace("x_lo = -6", "x_lo = abc"),
    "[control] u_hi": INVENTORY_INI.replace("u_hi = 8", "u_hi = 8%"),
    "[control] admissible": FUEL_INI.replace("abs_equals 1", "abs_equals one"),
    "[criterion] alpha": FUEL_INI.replace("alpha = 1.0", "alpha = fast"),
    "[budget.fuel] cap": FUEL_INI.replace("cap = 1.0", "cap = 1.0.0"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INI))
def test_malformed_file_raises_problem_file_error(tmp_path, name):
    path = tmp_path / "bad.ini"
    path.write_text(MALFORMED_INI[name])
    with pytest.raises(ProblemFileError, match="malformed problem file"):
        load_problem(str(path))


@pytest.mark.parametrize("key", sorted(NON_NUMERIC_INI))
def test_non_numeric_value_names_its_key(tmp_path, key):
    path = tmp_path / "bad.ini"
    path.write_text(NON_NUMERIC_INI[key])
    with pytest.raises(ProblemFileError, match=f"^{re.escape(key)}: not a number"):
        load_problem(str(path))


def test_tabulated_pair_with_extra_fields_raises():
    with pytest.raises(ProblemFileError, match="malformed x:v pair '-1:0:7'"):
        parse_function("tabulated -1:0:7 2:3")


def test_nu0_pair_with_extra_fields_names_its_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(FUEL_INI.replace("nu0 = 0:1.0", "nu0 = 0:1.0:2"))
    with pytest.raises(ProblemFileError,
                       match=r"^\[criterion\] nu0: malformed x:v pair '0:1.0:2'"):
        load_problem(str(path))


def test_nu0_point_outside_the_state_interval_names_its_key(tmp_path):
    # Caught on load, not at assembly as support off the state nodes.
    path = tmp_path / "bad.ini"
    path.write_text(FUEL_INI.replace("nu0 = 0:1.0", "nu0 = 0:0.5 9:0.5"))
    with pytest.raises(ProblemFileError, match=r"^\[criterion\] nu0: point 9\.0 lies "
                                               r"outside the state interval \[-4\.0, 4\.0\]$"):
        load_problem(str(path))


def test_catalog_arguments_must_be_finite():
    for spec in ("constant nan", "constant inf", "linear 1 -inf 0",
                 "quadratic 0 0 0 nan 1", "piecewise_linear 0 1e400 1",
                 "abs_control nan 1", "tabulated nan:0 1:1", "tabulated 0:nan 1:1"):
        with pytest.raises(ProblemFileError, match="not a finite number"):
            parse_function(spec)
    # An infinite tabulated value loads: validate reports it.
    tab = parse_function("tabulated -6:1 2:1 2.001:inf 4:inf")
    assert tab(np.array([0.0, 3.0]), np.zeros(2)).tolist() == [1.0, np.inf]


# A value that parses but is not finite, named by its [section] key.
NON_FINITE_INI = {
    "[dynamics] diffusion": INVENTORY_INI.replace("diffusion = constant 1",
                                                  "diffusion = constant nan"),
    "[costs] c1": INVENTORY_INI.replace("c1 = linear 1 0 0.5", "c1 = linear 1 0 inf"),
    "[state] x_hi": INVENTORY_INI.replace("x_hi = 4", "x_hi = inf"),
    "[control] admissible": FUEL_INI.replace("abs_equals 1", "abs_equals nan"),
    "[criterion] nu0": FUEL_INI.replace("nu0 = 0:1.0", "nu0 = 0:inf"),
    "[budget.fuel] h": FUEL_INI.replace("abs_control 0 1", "abs_control 0 -inf"),
}


@pytest.mark.parametrize("key", sorted(NON_FINITE_INI))
def test_non_finite_value_names_its_key(tmp_path, key):
    path = tmp_path / "bad.ini"
    path.write_text(NON_FINITE_INI[key])
    with pytest.raises(ProblemFileError, match=f"^{re.escape(key)}: .*not a finite number"):
        load_problem(str(path))


# A value that parses but that the model rejects, named by its [section].
MODEL_REJECTS_INI = {
    "cap_zero": ("[budget.fuel]", "budget cap must be positive and finite, got 0.0",
                 FUEL_INI.replace("cap = 1.0", "cap = 0")),
    "x_lo_above_x_hi": ("[state]", "empty or infinite state interval",
                        INVENTORY_INI.replace("x_lo = -6", "x_lo = 5")),
    "u_lo_above_u_hi": ("[control]", "empty or infinite control interval",
                        INVENTORY_INI.replace("u_lo = 0", "u_lo = 9")),
    "alpha_zero": ("[criterion]", "requires a finite alpha > 0",
                   FUEL_INI.replace("alpha = 1.0", "alpha = 0")),
    "nu0_mass_half": ("[criterion]", "nu0 mass is 0.5",
                      FUEL_INI.replace("nu0 = 0:1.0", "nu0 = 0:0.5")),
}


@pytest.mark.parametrize("case", sorted(MODEL_REJECTS_INI))
def test_model_rejection_names_its_section(tmp_path, case):
    section, message, text = MODEL_REJECTS_INI[case]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ProblemFileError, match=f"^{re.escape(section)} .*{re.escape(message)}"):
        load_problem(str(path))


def test_percent_sign_is_read_verbatim(tmp_path):
    # No configparser interpolation: '%' is an ordinary character.
    path = tmp_path / "pct.ini"
    path.write_text(INVENTORY_INI.replace("name = file-inventory", "name = 100% stock"))
    assert load_problem(str(path)).name == "100% stock"


@pytest.mark.parametrize("text, builtin", [(INVENTORY_INI, inventory_problem),
                                           (FUEL_INI, finite_fuel_problem)],
                         ids=["inventory", "finite-fuel"])
def test_file_copies_assemble_and_simulate_as_the_builtins(tmp_path, text, builtin):
    path = tmp_path / "copy.ini"
    path.write_text(text)
    lps, reports = [], []
    for p in (load_problem(str(path)), builtin()):
        grid = build_grid(p, 21, 5 if p.gen_b.kind == JUMP else 2)
        basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
        if p.criterion.kind == DISCOUNTED:
            lp = assemble_discounted_lp(p, grid, basis)
            cfg = SimConfig(dt=0.05, horizon=None, n_paths=16, seed=4)
        else:
            lp = assemble_lta_lp(p, grid, basis)
            cfg = SimConfig(dt=0.02, horizon=4.0, n_paths=16, seed=4)
        sol = solve(lp)
        policy = marginals_and_kernels(grid, MeasurePair.from_solution(grid, sol.weights))
        lps.append(lp)
        reports.append(simulate(p, policy, cfg, basis=basis).to_csv())
    for field in ("c", "a_eq", "b_eq", "a_ub", "b_ub"):
        assert np.array_equal(getattr(lps[0], field), getattr(lps[1], field)), field
    assert reports[0] == reports[1]
