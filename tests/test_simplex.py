import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sclp import simplex
from sclp.basis import BasisFamily
from sclp.discretize import DiscreteLP, _first_copies, assemble_lta_lp, build_grid
from sclp.problems import inventory_problem
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
    # A NaN fails the first test it enters.
    ([np.nan, 0.5, 0.0], [0.0], [-1.0], "equality residual"),
    ([0.5, 0.5, 0.0], [0.0], [np.nan], "inequality dual of the wrong sign"),
    ([0.5, 0.5, 0.0], [np.nan], [-1.0], "reduced cost below"),
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


@pytest.mark.parametrize("field, value", [("c", np.nan), ("a_eq", np.nan),
                                          ("b_eq", np.inf)])
def test_non_finite_lp_raises(field, value):
    # Inventory 21x5/8.  The simplex used to return "optimal" at a NaN cost
    # (objective nan) or matrix entry (1.6792), and fail in a ratio-test
    # argmax at an infinite right-hand side.
    p = inventory_problem()
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    lp = assemble_lta_lp(p, build_grid(p, 21, 5), basis)
    getattr(lp, field).flat[3] = value
    with pytest.raises(ValueError, match="non-finite"):
        solve(lp)


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


def first_copies(lp):
    """The lowest index of each group of exactly equal columns of lp."""
    return _first_copies([lp.c, *lp.a_eq, *lp.a_ub])


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


def test_copied_columns_give_the_base_optimum():
    # Copies change no row maximum, and Dantzig's lowest-index rule enters
    # the first copy: the solve follows the base LP's pivots.
    base = duplicate_test_lp()
    # First copies keep the base order; later copies are scattered.
    src = [0, 1, 0, 2, 1, 3, 2, 1, 4, 3]
    lp = with_copies(base, src)
    lp.a_eq[1, 7] = -0.0  # equal to column 1's 0.0
    assert np.signbit(lp.a_eq[1, 7]) and not np.signbit(lp.a_eq[1, 1])
    first = [0, 1, 3, 5, 8]
    assert first_copies(lp).tolist() == first
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
    assert first_copies(lp).tolist() == [0, 1, 2, 4, 6]
    assert not sol.weights[[3, 5, 7]].any()
    assert sol.weights[0] > 0 and sol.weights[2] > 0


def test_near_copy_stays_a_separate_column():
    base = duplicate_test_lp()
    lp = with_copies(base, [0, 1, 2, 3, 4, 4, 0])
    lp.a_eq[1, 5] = np.nextafter(lp.a_eq[1, 5], np.inf)  # column 4, one ulp off
    assert first_copies(lp).tolist() == [0, 1, 2, 3, 4, 5]
    assert first_copies(base).tolist() == [0, 1, 2, 3, 4]
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(solve(base).objective, rel=1e-12)
    assert sol.weights[6] == 0.0


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
    # Equal columns could have reduced costs that differ in the last bit
    # between 1 and 2 OpenBLAS threads, and swap.  build_grid makes no
    # equal mu0 columns at a state: inventory 201x51/50 used to have 62%
    # copies.
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


def dantzig_on_every_column(core, max_iter):
    """_Core.run before the working set: every pivot prices every column."""
    k = core.priced
    priced_c = core.c[:k].copy()
    priced_c[[j for j in core.basis if j < k]] = np.inf
    since_refactor = 0
    while core.iterations < max_iter:
        red = priced_c - core.duals() @ core.a[:, :k]
        enter = int(np.argmin(red))
        if not red[enter] < -simplex.TOL:
            return OPTIMAL
        d = core.binv @ core.a[:, enter]
        piv_tol = max(simplex.TOL, 1e-7 * float(np.abs(d).max(initial=0.0)))
        pos = d > piv_tol
        if not pos.any():
            if (d > simplex.TOL).any():
                priced_c[enter] = np.inf
                continue
            return UNBOUNDED
        ratios = np.where(pos, core.xb / np.where(pos, d, 1.0), np.inf)
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + simplex.TOL * (1.0 + abs(rmin)))
        leave_row = int(ties[np.argmax(d[ties])])
        core.iterations += 1
        since_refactor += 1
        refactor = (abs(d[leave_row]) < 1e-11
                    or since_refactor >= simplex.REFACTOR_EVERY)
        if refactor:
            since_refactor = 0
        leave = core.basis[leave_row]
        if leave < k:
            priced_c[leave] = core.c[leave]
        priced_c[enter] = np.inf
        core._pivot(leave_row, enter, d, refactor)
    return simplex.ITER_LIMIT


@pytest.mark.parametrize("seed", range(6))
def test_a_pool_that_fits_the_working_set_pivots_as_before(monkeypatch, seed):
    # 12 columns on 6 rows: both phases take every column into the working
    # set at once, so each pricing is a full pass, as before sifting.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 12))
    x0 = np.where(rng.random(12) < 0.5, rng.random(12), 0.0)
    lp = make_lp(rng.normal(size=12), a_eq=a, b_eq=a @ x0,
                 a_ub=np.abs(rng.normal(size=(1, 12))), b_ub=[5.0])
    got = solve(lp)
    assert got.stats["full_passes"] == got.iterations + 2
    monkeypatch.setattr(simplex._Core, "run", dantzig_on_every_column)
    want = solve(lp)
    assert got.status == want.status == OPTIMAL
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    for f in ("weights", "dual_eq", "dual_ub"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


def test_stats_count_the_solve():
    p = inventory_problem()
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 50)
    lp = assemble_lta_lp(p, build_grid(p, 201, 101), basis)
    first, again = solve(lp), solve(lp)
    assert first.stats == again.stats
    stats = first.stats
    assert stats["phase1_iterations"] + stats["phase2_iterations"] == first.iterations
    assert 0 < stats["degenerate_pivots"] <= first.iterations
    assert stats["refactorizations"] >= 2  # once per phase at least
    # Sifting: 12,181 columns, and a full pass only between rounds.
    assert 0 < 10 * stats["full_passes"] < first.iterations
