import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sclp.basis import BasisFamily, constant_one
from sclp.discretize import (NORMALIZED, RESCALED, Grid, GridError,
                             assemble_discounted_lp, assemble_lta_lp,
                             build_grid, constraint_residual, nearest_node)
from sclp.model import (Criterion, DISCOUNTED, ControlSpace, DomainError,
                        ProblemSpec, eval_Af, eval_Bf)
from sclp.problems import finite_fuel_problem, inventory_problem


def test_build_grid_shapes():
    p = inventory_problem()
    g = build_grid(p, 11, 5)
    assert g.mu0_atoms.shape == (55, 2)
    assert g.state_nodes.size == 11
    # Jump targets above x_hi are dropped from the mu1 atom set.
    assert g.n1 < g.n0
    inside = g.mu0_atoms[:, 0] + g.mu0_atoms[:, 1] <= p.state.x_hi + 1e-12
    assert np.array_equal(g.mu1_atoms, g.mu0_atoms[inside])


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
    g = Grid(mu0_atoms=g.mu0_atoms, mu1_atoms=g.mu0_atoms.copy(),
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
