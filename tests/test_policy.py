import numpy as np
import pytest

from sclp.basis import BasisFamily
from sclp.discretize import Grid, assemble_lta_lp, build_grid
from sclp.policy import (MeasurePair, boundary_mass_diagnostic, extract_strict,
                         marginals_and_kernels)
from sclp.problems import inventory_problem
from sclp.simplex import solve


def toy_grid():
    nodes = np.linspace(0.0, 1.0, 5)
    controls = np.array([0.0, 1.0])
    xx, uu = np.meshgrid(nodes, controls, indexing="ij")
    atoms = np.column_stack([xx.ravel(), uu.ravel()])
    return Grid(mu0_atoms=atoms, mu1_atoms=atoms.copy(), state_nodes=nodes,
                control_nodes=controls)


def test_measure_pair_validation():
    with pytest.raises(ValueError):
        MeasurePair(w0=np.array([-1e-6]), w1=np.array([0.0]))
    MeasurePair(w0=np.array([0.25, 0.25]), w1=np.array([1.0]))


def test_from_solution_clamps_noise():
    g = toy_grid()
    w = np.zeros(2 * g.n0)
    w[0] = 1.0
    w[1] = -1e-14  # solver noise
    pair = MeasurePair.from_solution(g, w)
    assert pair.w0[1] == 0.0


def test_disintegration_point_masses():
    g = toy_grid()
    w0 = np.zeros(g.n0)
    w0[0] = 0.5   # (x=0, u=0)
    w0[3] = 0.5   # (x=0.25, u=1)
    pair = MeasurePair(w0=w0, w1=np.zeros(g.n1))
    pol = marginals_and_kernels(g, pair)
    assert np.allclose(pol.mu0_marginal, [0.5, 0.5, 0, 0, 0])
    u, p = pol.eta0.rows[0]
    assert np.array_equal(u, [0.0]) and np.array_equal(p, [1.0])
    u, p = pol.eta0.rows[1]
    assert np.array_equal(u, [1.0]) and np.array_equal(p, [1.0])
    strict, bad = extract_strict(pol)
    assert bad == []
    assert strict == {0: 0.0, 1: 1.0}


def test_mixed_kernel_blocks_strict():
    g = toy_grid()
    w0 = np.zeros(g.n0)
    w0[0] = 0.3   # (x=0, u=0)
    w0[1] = 0.3   # (x=0, u=1): genuine mixture at node 0
    w0[2] = 0.4   # (x=0.25, u=0)
    pair = MeasurePair(w0=w0, w1=np.zeros(g.n1))
    pol = marginals_and_kernels(g, pair)
    strict, bad = extract_strict(pol)
    assert strict is None
    assert bad == [0]


def test_kernel_rows_sum_to_one():
    g = toy_grid()
    w0 = np.abs(np.sin(np.arange(g.n0))) + 0.01
    pair = MeasurePair(w0=w0 / w0.sum(), w1=np.zeros(g.n1))
    pol = marginals_and_kernels(g, pair)
    for i, (u, p) in pol.eta0.rows.items():
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(u) > 0)


def test_all_zero_w0_rejected():
    g = toy_grid()
    pair = MeasurePair(w0=np.zeros(g.n0), w1=np.ones(g.n1))
    with pytest.raises(ValueError, match="probability"):
        marginals_and_kernels(g, pair)


def test_disagreeing_kernels_block_strict():
    g = toy_grid()
    w0 = np.zeros(g.n0)
    w0[0] = 1.0          # eta0 at node 0 picks u = 0
    w1 = np.zeros(g.n1)
    w1[1] = 1.0          # eta1 at node 0 picks u = 1
    pol = marginals_and_kernels(g, MeasurePair(w0=w0, w1=w1))
    strict, bad = extract_strict(pol)
    assert strict is None and bad == [0]


def test_boundary_mass_uniform():
    g = toy_grid()
    w0 = np.zeros(g.n0)
    w0[::2] = 0.2  # uniform over the 5 state nodes at u = 0
    pol = marginals_and_kernels(g, MeasurePair(w0=w0, w1=np.zeros(g.n1)))
    # margin 0.1 of width 1 catches exactly the two end nodes.
    assert boundary_mass_diagnostic(pol, 0.1) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        boundary_mass_diagnostic(pol, 0.6)


def test_lp_solution_roundtrip():
    p = inventory_problem()
    g = build_grid(p, 21, 5)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 10)
    lp = assemble_lta_lp(p, g, b)
    sol = solve(lp)
    assert sol.status == "optimal"
    pair = MeasurePair.from_solution(g, sol.weights)
    pol = marginals_and_kernels(g, pair)
    assert pol.mu0_marginal.sum() == pytest.approx(1.0, abs=1e-8)
    # Singular mass exists (the drift forces reordering).
    assert pol.mu1_marginal.sum() > 0.01
    assert boundary_mass_diagnostic(pol, 0.1) < 0.05
