"""Differential tests of the simplex against scipy's HiGHS.

scipy is a test-only dependency: without it this module is skipped.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sclp.basis import BasisFamily
from sclp.discretize import (NORMALIZED, RESCALED, assemble_discounted_lp,
                             assemble_lta_lp, build_grid)
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve
from test_simplex import first_copies, make_lp

linprog = pytest.importorskip("scipy.optimize").linprog

# HiGHS presolve reports some unbounded LPs as infeasible, so it is off.
HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def highs(lp):
    """(status, objective) of lp according to HiGHS."""
    rows = dict(A_eq=lp.a_eq, b_eq=lp.b_eq) if lp.b_eq.size else {}
    if lp.b_ub.size:
        rows.update(A_ub=lp.a_ub, b_ub=lp.b_ub)
    r = linprog(lp.c, **rows, method="highs", options={"presolve": False})
    return HIGHS_STATUS.get(r.status, r.message), r.fun


def assert_matches_highs(lp):
    status, objective = highs(lp)
    sol = solve(lp)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-12)


def fuel_lp(n_state, n_basis, form=NORMALIZED):
    p = finite_fuel_problem()
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, n_basis)
    return assemble_discounted_lp(p, build_grid(p, n_state, 2), basis, form=form)


@pytest.mark.parametrize("form", [NORMALIZED, RESCALED])
@pytest.mark.parametrize("n_state", [161, 321])
def test_finite_fuel_48_splines(n_state, form):
    # A permanent Bland fallback used to stall both at 50,000 iterations.
    assert_matches_highs(fuel_lp(n_state, 48, form))


def test_inventory_201x101_100_splines():
    # A permanent Bland fallback used to pivot into a singular basis here.
    p = inventory_problem()
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 100)
    assert_matches_highs(assemble_lta_lp(p, build_grid(p, 201, 101), basis))


def test_inventory_401x201_50_splines():
    # 48,361 columns on 51 rows: the working set is a small part of the pool.
    p = inventory_problem()
    basis = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 50)
    assert_matches_highs(assemble_lta_lp(p, build_grid(p, 401, 201), basis))


def sparse_wide_lp(kind, seed, m, n):
    """An LP of m equality rows and one budget row over n >= 20 m columns
    with about 8 nonzeros each, like the assembled LPs, that is optimal,
    infeasible or unbounded by construction."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=min(8, m), replace=False)
        a[rows, j] = rng.normal(size=rows.size)
    a[0] = 1.0  # a mass row
    x0 = np.where(rng.random(n) < 0.05, rng.random(n), 0.0)
    c = rng.normal(size=n)
    budget = np.abs(rng.normal(size=(1, n)))
    if kind == INFEASIBLE:
        # Columns turned so that y.a_j >= 0 for a random y, and y.b < 0: y
        # is a Farkas certificate.
        y = rng.normal(size=m)
        a[:, y @ a < 0] *= -1.0
        b = a @ x0
        b -= (y @ b + 1.0) / (y @ y) * y
    else:
        if kind == UNBOUNDED:
            # A ray d >= 0 with a d = 0, budget.d = 0 and c.d < 0.
            a[0] = 0.0
            d = np.zeros(n)
            d[rng.choice(n - 1, size=2 * m, replace=False)] = rng.random(2 * m) + 0.5
            a[:, -1] = -(a @ d)
            d[-1] = 1.0
            budget[0, d > 0] = 0.0
            c[-1] = -(c[:-1] @ d[:-1]) - 1.0
        b = a @ x0
    return make_lp(c, a_eq=a, b_eq=b, a_ub=budget, b_ub=budget @ x0 + 0.5)


@pytest.mark.parametrize("m, n", [(12, 300), (30, 900)])
@pytest.mark.parametrize("kind", [OPTIMAL, INFEASIBLE, UNBOUNDED])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_wide_lps_match_highs(kind, seed, m, n):
    lp = sparse_wide_lp(kind, seed, m, n)
    assert highs(lp)[0] == kind
    assert_matches_highs(lp)
    if kind == INFEASIBLE:
        # The Farkas ray over all rows: r.a_j <= 0 for every column and
        # slack, and r.b > 0.
        r = solve(lp).farkas
        rows, b = np.vstack([lp.a_eq, lp.a_ub]), np.concatenate([lp.b_eq, lp.b_ub])
        assert r @ b > 1e-6 * np.abs(r).max()
        assert (r @ rows).max() <= 1e-9 * np.abs(r).max()
        assert r[m:].max() <= 1e-9 * np.abs(r).max()


def test_cycling_finite_fuel_never_returns_a_wrong_optimum():
    # 321x2/96 cycled when every pivot priced every column.  Nothing rules
    # cycling out yet: whatever stops the solve must not claim a wrong optimum.
    lp = fuel_lp(321, 96)
    sol = solve(lp, max_iter=5000)
    if sol.status == OPTIMAL:
        status, objective = highs(lp)
        assert status == OPTIMAL
        assert sol.objective == pytest.approx(objective, rel=1e-9)
    else:
        assert np.isnan(sol.objective)


CLASSIC_CYCLING = {
    # Beale (1955).
    "beale": make_lp([-0.75, 20, -0.5, 6],
                     a_ub=[[0.25, -8, -1, 9], [0.5, -12, -0.5, 3], [0, 0, 1, 0]],
                     b_ub=[0, 0, 1]),
    # Kuhn's example.
    "kuhn": make_lp([-2, -3, 1, 12],
                    a_ub=[[-2, -9, 1, 9], [1 / 3, 1, -1 / 3, -2], [2, 3, -1, -12]],
                    b_ub=[0, 0, 2]),
    # Marshall and Suurballe (1969): unbounded as stated, and bounded by a
    # total-mass row.
    "marshall_suurballe": make_lp([-2.3, -2.15, 13.55, 0.4],
                                  a_ub=[[0.4, 0.2, -1.4, -0.2], [-7.8, -1.4, 7.8, 0.4]],
                                  b_ub=[0, 0]),
    "marshall_suurballe_bounded": make_lp(
        [-2.3, -2.15, 13.55, 0.4],
        a_ub=[[0.4, 0.2, -1.4, -0.2], [-7.8, -1.4, 7.8, 0.4], [1, 1, 1, 1]],
        b_ub=[0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(CLASSIC_CYCLING))
def test_classic_cycling_examples(name):
    assert_matches_highs(CLASSIC_CYCLING[name])


@st.composite
def degenerate_lps(draw):
    """Small integer LPs whose right-hand sides mostly come from a vertex
    with several zero coordinates, so ties in the ratio test are common.
    An occasional shift of b makes some infeasible."""
    n = draw(st.integers(2, 6))
    me = draw(st.integers(0, 3))
    mu = draw(st.integers(0 if me else 1, 3))
    coef = st.integers(-3, 3)
    a_eq = draw(arrays(np.int64, (me, n), elements=coef)).astype(float)
    a_ub = draw(arrays(np.int64, (mu, n), elements=coef)).astype(float)
    x0 = draw(arrays(np.int64, n, elements=st.sampled_from([0, 0, 1, 2])))
    shift = st.sampled_from([0, 0, 0, 1, -1])
    b_eq = a_eq @ x0 + draw(arrays(np.int64, me, elements=shift))
    b_ub = a_ub @ x0 + draw(arrays(np.int64, mu, elements=shift))
    c = draw(arrays(np.int64, n, elements=coef)).astype(float)
    return make_lp(c, a_eq, b_eq, a_ub, b_ub)


@settings(max_examples=150, deadline=None)
@given(degenerate_lps())
def test_small_degenerate_lps_match_highs(lp):
    status, objective = highs(lp)
    assume(status in HIGHS_STATUS.values())
    sol = solve(lp)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)


@st.composite
def duplicated_lps(draw):
    """A small degenerate LP whose columns are copied to random positions."""
    lp = draw(degenerate_lps())
    n = lp.c.size
    extra = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    src = np.array(draw(st.permutations(list(range(n)) + extra)))
    return make_lp(lp.c[src], lp.a_eq[:, src], lp.b_eq, lp.a_ub[:, src], lp.b_ub), src


@settings(max_examples=100, deadline=None)
@given(duplicated_lps())
def test_lps_with_duplicate_columns_match_highs(lp_src):
    lp, src = lp_src
    status, objective = highs(lp)
    assume(status in HIGHS_STATUS.values())
    sol = solve(lp)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
        # Columns equal to an earlier column carry no weight.
        first = first_copies(lp)
        assert not np.delete(sol.weights, first).any()
        assert len(first) <= len(set(src.tolist()))
