import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sclp import simplex
from sclp.discretize import DiscreteLP
from sclp.simplex import (INFEASIBLE, NUMERICAL, OPTIMAL, UNBOUNDED, solve)


def make_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, name="lp"):
    c = np.asarray(c, dtype=float)
    n = c.size
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    return DiscreteLP(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                      n0=n, n1=0,
                      eq_labels=tuple(f"E{i}" for i in range(b_eq.size)),
                      ub_labels=tuple(f"L{i}" for i in range(b_ub.size)),
                      name=name)


def test_simple_equality_lp():
    # min x0 + 2 x1 s.t. x0 + x1 = 1 -> x = (1, 0).
    lp = make_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert np.allclose(sol.weights, [1.0, 0.0])


def test_inequality_and_duals():
    # min -x0 - x1 s.t. x0 + 2 x1 <= 4, x0 <= 3 -> x = (3, 0.5), obj -3.5.
    lp = make_lp([-1.0, -1.0], a_ub=[[1.0, 2.0], [1.0, 0.0]], b_ub=[4.0, 3.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-3.5)
    assert np.allclose(sol.weights, [3.0, 0.5])
    # Weak/strong duality: dual objective equals primal at optimum.
    dual_obj = sol.dual_ub @ lp.b_ub
    assert dual_obj == pytest.approx(sol.objective, abs=1e-9)
    assert np.all(sol.dual_ub <= 1e-12)


def test_unbounded():
    lp = make_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
    assert solve(lp).status == UNBOUNDED


def test_infeasible_with_farkas():
    # x0 + x1 = 1 and x0 + x1 = 2 cannot both hold.
    lp = make_lp([1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0])
    sol = solve(lp)
    assert sol.status == INFEASIBLE
    r = sol.farkas
    assert r is not None
    assert r @ lp.b_eq > 1e-10
    assert np.max(r @ lp.a_eq) <= 1e-8


def test_degenerate_lp_terminates():
    # Multiple basic solutions describe the same vertex.
    lp = make_lp([1.0, 1.0, 1.0],
                 a_eq=[[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.5, 0.5]],
                 b_eq=[1.0, 1.0, 1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def test_redundant_rows_dropped():
    lp = make_lp([2.0, 3.0],
                 a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0)


def test_zero_rhs_feasible():
    lp = make_lp([1.0], a_eq=[[1.0]], b_eq=[0.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0)


def test_determinism():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 40))
    x_feas = np.abs(rng.normal(size=40))
    b = a @ x_feas
    lp = make_lp(rng.normal(size=40) ** 2, a_eq=a, b_eq=b)
    s1 = solve(lp)
    s2 = solve(lp)
    assert s1.status == s2.status == OPTIMAL
    assert np.array_equal(s1.weights, s2.weights)
    assert s1.iterations == s2.iterations


def test_badly_scaled_lp():
    # Equilibration handles coefficients spanning 10 orders of magnitude.
    lp = make_lp([1e6, 1e-4], a_eq=[[1e5, 1e-5]], b_eq=[1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1e-4 * 1e5, rel=1e-9)


def test_iteration_limit():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 30))
    b = a @ np.abs(rng.normal(size=30))
    lp = make_lp(rng.normal(size=30) ** 2, a_eq=a, b_eq=b)
    sol = solve(lp, max_iter=1)
    assert sol.status == "iter_limit"
    assert np.isnan(sol.objective)


def certified_lp():
    # min -x0 + x2 s.t. x0 + x1 + x2 = 1, x0 <= 0.5 -> x = (0.5, 0.5, 0),
    # objective -0.5, duals y_eq = 0 and y_ub = -1.
    return make_lp([-1.0, 0.0, 1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                   a_ub=[[1.0, 0.0, 0.0]], b_ub=[0.5])


def test_certificate_accepts_the_optimum():
    lp = certified_lp()
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.weights, [0.5, 0.5, 0.0])
    assert np.allclose(sol.dual, [0.0, -1.0])
    assert simplex._certificate_failure(lp, sol.weights, sol.dual_eq,
                                        sol.dual_ub) is None


@pytest.mark.parametrize("x, y_eq, y_ub, failure", [
    ([0.5, 0.5, 1e-7], [0.0], [-1.0], "equality residual"),
    ([0.6, 0.4, 0.0], [0.0], [-1.0], "budget row violated"),
    ([0.5, 0.5, 0.0], [0.0], [1e-8], "inequality dual of the wrong sign"),
    # y_eq = 0.5 prices x1 at -0.5: dual infeasible.
    ([0.5, 0.5, 0.0], [0.5], [-1.0], "reduced cost below"),
    # y_eq = y_ub = -1 is dual feasible but proves only -1.5 <= -0.5.
    ([0.5, 0.5, 0.0], [-1.0], [-1.0], "duality gap"),
])
def test_certificate_rejects_doctored_solutions(x, y_eq, y_ub, failure):
    lp = certified_lp()
    found = simplex._certificate_failure(lp, np.array(x), np.array(y_eq),
                                         np.array(y_ub))
    assert found is not None and found.startswith(failure)


@pytest.mark.parametrize("x", [[0.5, 0.5, 5e-9], [0.5 + 5e-9, 0.5 - 5e-9, 0.0]])
def test_certificate_tolerates_residuals_inside_the_bounds(x):
    # An equality residual, or a budget violation, of 5e-9 (bound 1e-8).
    lp = certified_lp()
    assert simplex._certificate_failure(lp, np.array(x), np.array([0.0]),
                                        np.array([-1.0])) is None


def test_certificate_allows_roundoff_in_zero_duals():
    # Duals at roundoff level around zero: x1's reduced cost is -3.7e-17,
    # all of it dual noise, on an optimum HiGHS confirms.
    lp = make_lp([3.0, 0.0, 2.0, 3.0, -2.0, 1.0],
                 a_eq=[[3.0, 2.0, 3.0, -1.0, 1.0, -2.0]], b_eq=[0.0],
                 a_ub=[[-3.0, 1.0, 3.0, -2.0, -1.0, -3.0],
                       [-3.0, 0.0, 2.0, -3.0, 2.0, -1.0]], b_ub=[-1.0, -1.0])
    x = np.array([4 / 33, 0.0, 0.0, 2 / 11, 0.0, 1 / 11])
    y_eq = np.array([-3.7007434154171886e-17])
    y_ub = np.array([1.1102230246251565e-16, -1.0])
    assert simplex._certificate_failure(lp, x, y_eq, y_ub) is None
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def test_failed_certificate_is_numerical(monkeypatch):
    monkeypatch.setattr(simplex, "_certificate_failure", lambda *args: "doctored")
    sol = solve(certified_lp())
    assert sol.status == NUMERICAL
    assert np.isnan(sol.objective)
    assert not sol.weights.any()


def test_dependent_row_keeps_its_artificial():
    # The second row repeats the first; phase 2 runs with its artificial
    # basic at zero and the duals still certify the optimum.
    lp = make_lp([2.0, 3.0, 1.0], a_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
                 b_eq=[1.0, 2.0], a_ub=[[0.0, 0.0, 1.0]], b_ub=[1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0)
    assert simplex._certificate_failure(lp, sol.weights, sol.dual_eq,
                                        sol.dual_ub) is None


def with_copies(lp, src):
    """lp with column j a copy of lp's column src[j]."""
    src = np.asarray(src)
    return make_lp(lp.c[src], lp.a_eq[:, src], lp.b_eq, lp.a_ub[:, src], lp.b_ub)


def duplicate_test_lp():
    # Mass row, a moment row and a budget row; column 1 has zero entries.
    return make_lp([2.0, 1.0, 3.0, 0.5, 4.0],
                   a_eq=[[1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 3.0, 2.0, 1.0]],
                   b_eq=[1.0, 1.5],
                   a_ub=[[0.5, 0.0, 1.0, 2.0, 0.0]], b_ub=[0.9])


def test_duplicate_columns_are_priced_once():
    base = duplicate_test_lp()
    # First copies keep the base order; later copies are scattered.
    src = [0, 1, 0, 2, 1, 3, 2, 1, 4, 3]
    lp = with_copies(base, src)
    lp.a_eq[1, 7] = -0.0  # equal to column 1's 0.0
    assert np.signbit(lp.a_eq[1, 7]) and not np.signbit(lp.a_eq[1, 1])
    first = [0, 1, 3, 5, 8]
    assert simplex._first_copies(lp).tolist() == first
    want, got = solve(base), solve(lp)
    assert want.status == got.status == OPTIMAL
    assert got.objective == want.objective
    assert np.array_equal(got.dual_eq, want.dual_eq)
    assert np.array_equal(got.dual_ub, want.dual_ub)
    assert got.iterations == want.iterations
    assert np.array_equal(got.weights[first], want.weights)
    assert not np.delete(got.weights, first).any()
    assert want.weights[[2, 3]].all()  # copied columns carry the optimum


def test_weight_lands_on_the_first_copy():
    base = duplicate_test_lp()
    lp = with_copies(base, [3, 0, 2, 3, 1, 2, 4, 3])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(solve(base).objective, rel=1e-12)
    assert simplex._first_copies(lp).tolist() == [0, 1, 2, 4, 6]
    assert not sol.weights[[3, 5, 7]].any()
    assert sol.weights[0] > 0 and sol.weights[2] > 0


def test_near_copy_stays_a_separate_column():
    base = duplicate_test_lp()
    lp = with_copies(base, [0, 1, 2, 3, 4, 4, 0])
    lp.a_eq[1, 5] = np.nextafter(lp.a_eq[1, 5], np.inf)  # column 4, one ulp off
    assert simplex._first_copies(lp).tolist() == [0, 1, 2, 3, 4, 5]
    assert simplex._first_copies(base).tolist() == [0, 1, 2, 3, 4]
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(solve(base).objective, rel=1e-12)
    assert sol.weights[6] == 0.0


def test_first_copies_of_tiny_lps():
    assert simplex._first_copies(make_lp([])).tolist() == []
    assert simplex._first_copies(make_lp([1.0])).tolist() == [0]
    assert simplex._first_copies(make_lp([1.0, 1.0])).tolist() == [0]
    # No rows: columns are compared on their cost alone.
    assert simplex._first_copies(make_lp([2.0, 1.0, 2.0])).tolist() == [0, 1]


SOLVE_AND_HASH = """
import hashlib
import sclp
from sclp.discretize import assemble_lta_lp, build_grid
p = sclp.inventory_problem()
basis = sclp.BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 50)
sol = sclp.simplex.solve(assemble_lta_lp(p, build_grid(p, 201, 51), basis))
print(sol.status, sol.iterations, repr(sol.objective),
      *(hashlib.sha256(v.tobytes()).hexdigest() for v in (sol.weights, sol.dual)))
"""


def test_solution_independent_of_blas_threads():
    # Inventory 201x51/50 has equal columns whose reduced costs differ in
    # the last bit between 1 and 2 OpenBLAS threads; priced once, they
    # cannot swap.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", SOLVE_AND_HASH], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0].startswith("optimal ")
    assert out[0] == out[1]
