"""Reference LPs: status, iterations, objective and nonzero atom weights.

tests/data/reference_lps.csv pins 35 assembled LPs of both built-ins over
several grids, bases, discount rates and discounted forms.  Weights are
keyed by atom coordinates (x, u), not by column index, so a pin holds for
any grid that builds the same distinguishable atoms.  Each row is

    case,item,x,u,value

with item one of status, iterations, objective (x and u empty), mu0 or
mu1 (one row per nonzero weight, sorted by x then u).  Floats are exact
reprs.  Re-record with `PYTHONPATH=src python tests/test_reference_lps.py`.
`PYTHONPATH=src python tests/test_reference_lps.py --diff` writes nothing:
it prints, per case, the pinned and the current iterations, the objective's
relative change and its relative distance to HiGHS (scipy), and the atoms
that gained or lost a weight, with the largest such weight.
"""
import argparse
import csv
import functools
import pathlib

import numpy as np
import pytest

from sclp.basis import BasisFamily
from sclp.discretize import (NORMALIZED, RESCALED, assemble_discounted_lp,
                             assemble_lta_lp, build_grid)
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import solve

PINS = pathlib.Path(__file__).parent / "data" / "reference_lps.csv"


def _cases():
    """name -> (problem factory, n_state, n_control, n_basis, discounted form)."""
    cases = {}
    for ns, nc, nb in [(101, 26, 50), (101, 51, 50), (201, 51, 50), (201, 101, 50),
                       (41, 11, 12), (25, 11, 18), (26, 11, 50)]:
        cases[f"inventory {ns}x{nc}/{nb}"] = (inventory_problem, ns, nc, nb, None)
    for alpha in (1.0, 0.5, 0.1):
        for ns in (41, 161) + ((321,) if alpha == 1.0 else ()):
            for nb in (12, 16):
                for form in (NORMALIZED, RESCALED):
                    cases[f"finite-fuel a={alpha:g} {ns}x2/{nb} {form}"] = (
                        functools.partial(finite_fuel_problem, alpha=alpha),
                        ns, 2, nb, form)
    return cases


CASES = _cases()


def _lp(case):
    make, n_state, n_control, n_basis, form = CASES[case]
    p = make()
    grid = build_grid(p, n_state, n_control)
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, n_basis)
    if form is None:
        return grid, assemble_lta_lp(p, grid, basis)
    return grid, assemble_discounted_lp(p, grid, basis, form=form)


def _solve(case):
    grid, lp = _lp(case)
    return grid, solve(lp)


def _nonzero(atoms, w):
    """(x, u, w) of each nonzero weight, sorted by x then u."""
    nz = np.flatnonzero(w)
    order = nz[np.lexsort((atoms[nz, 1], atoms[nz, 0]))]
    return [(float(atoms[j, 0]), float(atoms[j, 1]), float(w[j])) for j in order]


def _measures(grid, sol):
    return {"mu0": _nonzero(grid.mu0_atoms, sol.weights[:grid.n0]),
            "mu1": _nonzero(grid.mu1_atoms, sol.weights[grid.n0:])}


def record():
    with open(PINS, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["case", "item", "x", "u", "value"])
        for case in CASES:
            grid, sol = _solve(case)
            out.writerow([case, "status", "", "", sol.status])
            out.writerow([case, "iterations", "", "", sol.iterations])
            out.writerow([case, "objective", "", "", repr(sol.objective)])
            for measure, atoms in _measures(grid, sol).items():
                out.writerows([case, measure, repr(x), repr(u), repr(w)]
                              for x, u, w in atoms)


@functools.cache
def _pins():
    pins = {}
    with open(PINS, newline="") as fh:
        for row in csv.DictReader(fh):
            pin = pins.setdefault(row["case"], {"mu0": [], "mu1": []})
            if row["item"] in pin:
                pin[row["item"]].append(
                    (float(row["x"]), float(row["u"]), float(row["value"])))
            else:
                pin[row["item"]] = row["value"]
    return pins


def test_pins_cover_every_case():
    assert list(_pins()) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_reference_lp(case):
    pin = _pins()[case]
    grid, sol = _solve(case)
    assert sol.status == pin["status"]
    assert sol.iterations == int(pin["iterations"])
    assert sol.objective == pytest.approx(float(pin["objective"]), rel=1e-14)
    for measure, got in _measures(grid, sol).items():
        want = pin[measure]
        assert [a[:2] for a in got] == [a[:2] for a in want], measure
        assert [a[2] for a in got] == pytest.approx([a[2] for a in want], rel=1e-12)


def diff():
    """Print how the current solves differ from the pins; write nothing."""
    from scipy.optimize import linprog
    for case in CASES:
        pin = _pins()[case]
        grid, lp = _lp(case)
        sol = solve(lp)
        old = float(pin["objective"])
        ref = linprog(lp.c, A_eq=lp.a_eq, b_eq=lp.b_eq, A_ub=lp.a_ub, b_ub=lp.b_ub,
                      method="highs", options={"presolve": False}).fun
        now = {m: {a[:2]: a[2] for a in got} for m, got in _measures(grid, sol).items()}
        was = {m: {a[:2]: a[2] for a in pin[m]} for m in now}
        moved, largest = [], 0.0
        for m in now:
            added, removed = now[m].keys() - was[m], was[m].keys() - now[m]
            moved.append(f"{m} +{len(added)} -{len(removed)}")
            largest = max([largest, *map(now[m].get, added), *map(was[m].get, removed)])
        print(f"{case}: {pin['status']} -> {sol.status}, iterations {pin['iterations']} -> "
              f"{sol.iterations}, objective change {(sol.objective - old) / abs(old):+.1e}, "
              f"to HiGHS {abs(old - ref) / abs(ref):.1e} -> "
              f"{abs(sol.objective - ref) / abs(ref):.1e}, atoms {' '.join(moved)} "
              f"(largest weight {largest:.1e})")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record the reference LP pins.")
    parser.add_argument("--diff", action="store_true",
                        help="print how the current solves differ from the pins instead")
    if parser.parse_args().diff:
        diff()
    else:
        record()
