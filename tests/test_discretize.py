import bisect
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sclp.basis import BasisFamily, constant_one
from sclp.discretize import (NORMALIZED, RESCALED, Grid, GridError,
                             _first_copies, assemble_discounted_lp,
                             assemble_lta_lp, build_grid, constraint_residual,
                             nearest_node, node_cuts)
from sclp.model import (Budget, CostSpec, Criterion, DISCOUNTED, ControlSpace,
                        DomainError, GeneratorA, ProblemSpec)
from sclp.problems import finite_fuel_problem, inventory_problem
from generator_reference import eval_Af, eval_Bf


def product_atoms(p, n_state, n_control):
    """Every admissible (x, u) of the uniform product grid, state-major."""
    xx, uu = np.meshgrid(np.linspace(p.state.x_lo, p.state.x_hi, n_state),
                         np.linspace(p.control.u_lo, p.control.u_hi, n_control),
                         indexing="ij")
    ok = p.control.admits(xx, uu)
    return np.column_stack([xx[ok], uu[ok]])


def test_build_grid_shapes():
    p = inventory_problem()
    g = build_grid(p, 11, 5)
    assert g.state_nodes.size == 11
    assert g.mu0_atoms.shape == (11, 2)
    # mu1 is the 11x5 product grid less the jumps that leave [x_lo, x_hi]
    # and the zero-size jumps (u = 0).
    product = product_atoms(p, 11, 5)
    assert product.shape == (55, 2)
    inside = product[:, 0] + product[:, 1] <= p.state.x_hi + 1e-12
    moves = product[:, 1] != 0.0
    assert 0 < g.n1 < 55 - 11
    assert np.array_equal(g.mu1_atoms, product[inside & moves])


def test_inventory_mu0_keeps_one_atom_per_state_at_the_lowest_control():
    # The order size enters no mu0 column of inventory: u = 0 stands for all.
    g = build_grid(inventory_problem(), 11, 5)
    assert np.array_equal(g.mu0_atoms[:, 0], g.state_nodes)
    assert np.all(g.mu0_atoms[:, 1] == 0.0)


def with_u_in_drift(p):
    return dataclasses.replace(p, gen_a=GeneratorA(
        drift=lambda x, u: -1.0 + 0.1 * np.asarray(u, float),
        diffusion=p.gen_a.diffusion))


def with_u_in_budget(p):
    budget = Budget(g=lambda x, u: np.asarray(u, float) + 0.0 * x,
                    h=lambda x, u: np.zeros_like(x), cap=1.0)
    return dataclasses.replace(p, costs=CostSpec(p.costs.c0, p.costs.c1, (budget,)))


@pytest.mark.parametrize("depend", [with_u_in_drift, with_u_in_budget])
def test_control_dependent_mu0_keeps_every_atom(depend):
    p = depend(inventory_problem())
    g = build_grid(p, 11, 5)
    assert np.array_equal(g.mu0_atoms, product_atoms(p, 11, 5))
    assert np.array_equal(g.mu1_atoms, build_grid(inventory_problem(), 11, 5).mu1_atoms)


def mu0_columns_by_state(grid, lp):
    """The value rows of lp's mu0 columns, led by each column's state."""
    return [grid.mu0_atoms[:, 0], lp.c[:lp.n0], *lp.a_eq[:, :lp.n0],
            *lp.a_ub[:, :lp.n0]]


LP_CASES = [
    (inventory_problem(), 21, 11, assemble_lta_lp),
    (finite_fuel_problem(alpha=0.5), 21, 3,
     lambda p, g, b: assemble_discounted_lp(p, g, b, form=NORMALIZED)),
    (finite_fuel_problem(alpha=0.5), 21, 3,
     lambda p, g, b: assemble_discounted_lp(p, g, b, form=RESCALED)),
]


@pytest.mark.parametrize("p, n_state, n_control, assemble", LP_CASES,
                         ids=["inventory", "fuel-normalized", "fuel-rescaled"])
def test_mu0_columns_are_the_distinct_product_grid_columns(p, n_state, n_control,
                                                           assemble):
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    g = build_grid(p, n_state, n_control)
    lp = assemble(p, g, b)
    # Pairwise distinct at each state.  (Columns at different states may
    # still be equal: finite fuel's at x = -4 and 4 are here.)
    assert _first_copies(mu0_columns_by_state(g, lp)).tolist() == list(range(lp.n0))
    # And at each state they are the first copies of the full product
    # grid's mu0 columns.
    full = Grid(mu0_atoms=product_atoms(p, n_state, n_control),
                mu1_atoms=g.mu1_atoms, state_nodes=g.state_nodes)
    lp_full = assemble(p, full, b)
    first = _first_copies(mu0_columns_by_state(full, lp_full))
    assert first.size < full.n0
    assert np.array_equal(full.mu0_atoms[first], g.mu0_atoms)
    assert np.array_equal(lp_full.a_eq[:, first], lp.a_eq[:, :lp.n0])
    assert np.array_equal(lp_full.a_ub[:, first], lp.a_ub[:, :lp.n0])
    assert np.array_equal(lp_full.c[first], lp.c[:lp.n0])


def test_first_copies_groups_exactly_equal_columns():
    rows = [np.array([2.0, 1.0, 2.0, 1.0, 3.0, 1.0]),
            np.array([0.0, 5.0, 0.0, 5.0, 0.0, 5.0])]
    assert _first_copies(rows).tolist() == [0, 1, 4]
    rows[1][2] = -0.0  # equal to column 0's 0.0
    assert _first_copies(rows).tolist() == [0, 1, 4]
    rows[1][3] = np.nextafter(5.0, np.inf)  # one ulp off column 1
    assert _first_copies(rows).tolist() == [0, 1, 3, 4]
    rows[0][[1, 5]] = np.nan  # NaN matches nothing, not even NaN
    assert _first_copies(rows).tolist() == [0, 1, 3, 4, 5]


def test_first_copies_of_tiny_inputs():
    assert _first_copies([np.zeros(0)]).tolist() == []
    assert _first_copies([np.array([1.0])]).tolist() == [0]
    assert _first_copies([np.array([1.0, 1.0])]).tolist() == [0]
    # One row: columns are compared on its entries alone.
    assert _first_copies([np.array([2.0, 1.0, 2.0])]).tolist() == [0, 1]


def test_build_grid_single_control_uses_midpoint():
    p = inventory_problem(u_hi=8.0)
    g = build_grid(p, 5, 1)
    assert np.all(g.mu0_atoms[:, 1] == 4.0)


def test_build_grid_validation():
    p = inventory_problem()
    with pytest.raises(GridError):
        build_grid(p, 2, 5)
    with pytest.raises(GridError):
        build_grid(p, 5, 0)


def test_build_grid_no_admissible_control():
    p0 = finite_fuel_problem()
    p = ProblemSpec(state=p0.state,
                    control=ControlSpace(-1.0, 1.0,
                                         admissible=lambda x, u: np.abs(u) > 2.0),
                    gen_a=p0.gen_a, gen_b=p0.gen_b, costs=p0.costs,
                    criterion=p0.criterion)
    with pytest.raises(GridError, match="no admissible control"):
        build_grid(p, 5, 3)


def test_lta_rows_and_order():
    p = inventory_problem()
    g = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    lp = assemble_lta_lp(p, g, b)
    # The constant element's adjoint row is all-zero (A1 = B1 = 0), dropped.
    assert len(lp.eq_labels) == 8 + 1
    assert lp.eq_labels[-1] == "MASS"
    assert all(lab.startswith("ADJ") for lab in lp.eq_labels[:-1])
    assert np.all(lp.b_eq[:-1] == 0.0) and lp.b_eq[-1] == 1.0
    mass_row = lp.a_eq[-1]
    assert np.all(mass_row[:lp.n0] == 1.0) and np.all(mass_row[lp.n0:] == 0.0)


def _adjoint_row_index(lp):
    """Basis index of every ADJ row of an LP."""
    return [(r, int(lab[3:])) for r, lab in enumerate(lp.eq_labels)
            if lab.startswith("ADJ")]


def test_adjoint_rows_match_generator_evaluations():
    # Jump kind: Af on mu0 atoms, f(x + u) - f(x) on mu1 atoms, every row.
    p = inventory_problem()
    g = build_grid(p, 11, 3)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 4)
    lp = assemble_lta_lp(p, g, b)
    rows = _adjoint_row_index(lp)
    assert [k for _, k in rows] == [0, 1, 2, 3]
    for r, k in rows:
        f = b.functions[k]
        a = eval_Af(p.gen_a, f, g.mu0_atoms[:, 0], g.mu0_atoms[:, 1])
        bb = eval_Bf(p.gen_b, f, g.mu1_atoms[:, 0], g.mu1_atoms[:, 1])
        assert np.array_equal(lp.a_eq[r], np.concatenate([a, bb]))


@pytest.mark.parametrize("form", [NORMALIZED, RESCALED])
def test_discounted_adjoint_rows_match_generator_evaluations(form):
    # Gradient kind (finite fuel), both discounted forms, every row.
    p = finite_fuel_problem(alpha=0.5)
    g = build_grid(p, 21, 2)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    lp = assemble_discounted_lp(p, g, b, form=form)
    alpha = p.criterion.alpha
    nu_x = np.array([x for x, _ in p.criterion.nu0])
    nu_p = np.array([q for _, q in p.criterion.nu0])
    x0, u0 = g.mu0_atoms[:, 0], g.mu0_atoms[:, 1]
    rows = _adjoint_row_index(lp)
    assert len(rows) == (8 if form == NORMALIZED else 9)
    for r, k in rows:
        f = b.functions[k]
        a = eval_Af(p.gen_a, f, x0, u0)
        bb = eval_Bf(p.gen_b, f, g.mu1_atoms[:, 0], g.mu1_atoms[:, 1])
        fbar = float(np.dot(f.value(nu_x), nu_p))
        if form == NORMALIZED:
            a, rhs = a + alpha * (fbar - f.value(x0)), 0.0
        else:
            a, rhs = a - alpha * f.value(x0), -fbar
        assert np.array_equal(lp.a_eq[r], np.concatenate([a, bb]))
        assert lp.b_eq[r] == rhs


def test_jump_target_outside_interval_rejected():
    p = inventory_problem()
    g = build_grid(p, 11, 3)
    # Keep every mu1 atom, including those whose jump leaves [x_lo, x_hi].
    g = Grid(mu0_atoms=g.mu0_atoms, mu1_atoms=product_atoms(p, 11, 3),
             state_nodes=g.state_nodes)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 4)
    with pytest.raises(DomainError, match="jump target"):
        assemble_lta_lp(p, g, b)
    # So do atoms off the state interval.
    off = g.mu0_atoms + np.array([100.0, 0.0])
    g = Grid(mu0_atoms=off, mu1_atoms=g.mu1_atoms[:0], state_nodes=g.state_nodes)
    with pytest.raises(DomainError, match="outside"):
        assemble_lta_lp(p, g, b)


def test_min_basis_size():
    p = inventory_problem()
    g = build_grid(p, 11, 3)
    b = BasisFamily((constant_one(),))
    with pytest.raises(ValueError, match="at least 2"):
        assemble_lta_lp(p, g, b)


def test_discounted_forms_differ_as_documented():
    p = finite_fuel_problem(alpha=0.5)
    g = build_grid(p, 21, 2)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 8)
    lpn = assemble_discounted_lp(p, g, b, form=NORMALIZED)
    lpr = assemble_discounted_lp(p, g, b, form=RESCALED)
    # Normalized keeps the mass row; rescaled relies on the constant row.
    assert lpn.eq_labels[-1] == "MASS"
    assert "MASS" not in lpr.eq_labels
    assert len(lpr.eq_labels) == len(lpn.eq_labels)  # constant row kept instead
    # Objective scaling: normalized carries 1/alpha.
    assert np.allclose(lpn.c, lpr.c / 0.5)
    # Budget right-hand side: alpha*K vs K.
    assert lpn.b_ub[0] == pytest.approx(0.5 * p.costs.budgets[0].cap)
    assert lpr.b_ub[0] == pytest.approx(p.costs.budgets[0].cap)


def test_discounted_requires_discounted_criterion():
    p = inventory_problem()
    g = build_grid(p, 11, 3)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 4)
    with pytest.raises(ValueError):
        assemble_discounted_lp(p, g, b)


def test_nu0_off_nodes_rejected():
    p = finite_fuel_problem(x0=0.1234567)
    g = build_grid(p, 11, 2)  # nodes at multiples of 0.8; x0 not a node
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 4)
    with pytest.raises(ValueError, match="off the state nodes"):
        assemble_discounted_lp(p, g, b)


def test_constraint_residual():
    p = inventory_problem()
    g = build_grid(p, 11, 3)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 4)
    lp = assemble_lta_lp(p, g, b)
    w = np.zeros(lp.n_cols)
    eq, ub = constraint_residual(lp, w)
    assert eq == pytest.approx(1.0)  # mass row violated by empty measure
    assert ub == 0.0
    with pytest.raises(ValueError, match="columns"):
        constraint_residual(lp, np.zeros(3))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(-2.0, 2.0))
def test_adjoint_rows_linear_in_generator(scale, shift):
    # Af is linear in (drift, diffusion^2): scaling the drift scales the
    # drift part of every adjoint row.
    p0 = inventory_problem(mu_d=1.0, sigma=0.0 + 1.0)
    p1 = inventory_problem(mu_d=scale, sigma=1.0)
    g = build_grid(p0, 11, 3)
    b = BasisFamily.cubic_on_interval(p0.state.x_lo, p0.state.x_hi, 4)
    lp0 = assemble_lta_lp(p0, g, b)
    lp1 = assemble_lta_lp(p1, g, b)
    f = b.functions[1]
    x0 = g.mu0_atoms[:, 0]
    diff = lp1.a_eq[1, :lp1.n0] - lp0.a_eq[1, :lp0.n0]
    expect = -(scale - 1.0) * f.d1(x0) + shift * 0.0
    assert np.allclose(diff, expect, atol=1e-12)


def test_nearest_node_ties_go_left():
    nodes = np.array([0.0, 1.0, 2.0])
    x = np.array([-5.0, 0.0, 0.4, 0.5, 0.6, 1.5, 2.0, 7.0])
    assert nearest_node(nodes, x).tolist() == [0, 0, 0, 0, 1, 1, 2, 2]


def _nearest_node_reference(nodes, x):
    """nearest_node as one rounded comparison per point, before node_cuts."""
    idx = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
    left = np.maximum(idx - 1, 0)
    return np.where(np.abs(nodes[left] - x) <= np.abs(nodes[idx] - x), left, idx)


def _exact_midpoints(nodes):
    return [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(nodes[:-1], nodes[1:])]


def _exact_nearest_node(nodes, x):
    """The nearest node in rational arithmetic, ties to the left."""
    mids = _exact_midpoints(nodes)
    return np.array([bisect.bisect_left(mids, Fraction(v)) for v in x], dtype=np.intp)


def _ulps(x, k):
    """x moved by k ulps (down for negative k); ±inf past the largest float."""
    with np.errstate(over="ignore"):
        for _ in range(abs(k)):
            x = np.nextafter(x, np.copysign(np.inf, k))
    return x


NODE_SETS = {f"linspace({lo:g},{hi:g},{n})": np.linspace(lo, hi, n)
             for lo, hi in ((-6.0, 4.0), (-4.0, 4.0)) for n in (2, 25, 41, 161, 321)}
NODE_SETS["random"] = np.unique(np.random.default_rng(4).uniform(-6.0, 4.0, 60))


@pytest.mark.parametrize("name", sorted(NODE_SETS))
def test_node_cuts_reproduce_the_rounded_comparison(name):
    # Away from midpoints, the exact rule and the rounded comparison agree.
    nodes = NODE_SETS[name]
    w_lo, w_hi = nodes[1] - nodes[0], nodes[-1] - nodes[-2]
    outside = [np.linspace(nodes[0] - w_lo, nodes[0], 101),
               np.linspace(nodes[-1], nodes[-1] + w_hi, 101)]
    rng = np.random.default_rng(5)
    uniform = rng.uniform(nodes[0] - w_lo, nodes[-1] + w_hi, 10 ** 5)
    x = np.concatenate([*outside, uniform])
    assert np.array_equal(nearest_node(nodes, x), _nearest_node_reference(nodes, x))


BIG, TINY = np.finfo(float).max, np.finfo(float).smallest_subnormal
EXACT_SETS = dict(NODE_SETS)
EXACT_SETS["subnormal"] = np.array([*(TINY * np.array([-7, -4, -1, 0, 1, 2, 5, 8, 13])),
                                    2.0 ** -1022, 2.0 ** -1022 + 3 * TINY])
EXACT_SETS["near-overflow"] = np.array([-BIG, -1e-300, 1e300,
                                        *(_ulps(0.5 * BIG, k) for k in range(-3, 1))])
EXACT_SETS["extremes"] = np.array([-BIG, -TINY, TINY, BIG])
EXACT_SETS["adjacent"] = np.sort([_ulps(p, k) for p in (0.0, 1.0) for k in range(-3, 4)])
EXACT_SETS["powers-of-two"] = np.array([-2.0 ** 60, -8.0, -4.0, -2.0 ** -60, 2.0 ** -60,
                                        4.0, 8.0, 2.0 ** 60])


@pytest.mark.parametrize("name", sorted(EXACT_SETS))
def test_node_cuts_round_the_exact_midpoints_down(name):
    nodes = EXACT_SETS[name]
    cuts = node_cuts(nodes)
    a, b = nodes[:-1], nodes[1:]
    assert np.all((a <= cuts) & (cuts < b))
    up = np.nextafter(cuts, np.inf)
    for cut, mid, above in zip(cuts, _exact_midpoints(nodes), up):
        assert Fraction(cut) <= mid < Fraction(above)

    mids = 0.5 * (a + b)
    x = np.concatenate([_ulps(p, k) for p in (nodes, mids, cuts) for k in (-2, -1, 0, 1, 2)])
    x = x[np.isfinite(x)]
    assert np.array_equal(nearest_node(nodes, x), _exact_nearest_node(nodes, x))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=12), st.lists(finite_floats, max_size=20))
def test_nearest_node_is_exact_on_any_finite_nodes(values, extra):
    nodes = np.unique(values)
    pairs = list(zip(nodes[:-1].tolist(), nodes[1:].tolist()))
    if not all(math.isfinite(a + b) for a, b in pairs):
        with pytest.raises(ValueError, match="finite neighbour sums"):
            node_cuts(nodes)
        return
    cuts = node_cuts(nodes)
    x = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:]), extra,
                        *(_ulps(cuts, k) for k in (-1, 0, 1))])
    x = x[np.isfinite(x)]
    assert np.array_equal(nearest_node(nodes, x), _exact_nearest_node(nodes, x))


@pytest.mark.parametrize("nodes", [[], [[0.0, 1.0]], [0.0, np.nan, 1.0],
                                   [0.0, np.inf], [-np.inf, 0.0],
                                   [0.0, 1.0, 1.0], [1.0, 0.0], [1e308, 1.5e308]])
def test_node_cuts_need_finite_increasing_nodes(nodes):
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        node_cuts(np.array(nodes, dtype=float))
