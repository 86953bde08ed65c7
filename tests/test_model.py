import numpy as np
import pytest

from sclp.basis import BasisFamily, C2Function, constant_one
from sclp.discretize import build_grid
from sclp.model import (DISCOUNTED, GRADIENT, JUMP, LONG_TERM_AVERAGE, Budget,
                        ControlSpace, CostSpec, Criterion, DomainError,
                        GeneratorA, GeneratorB, ProblemSpec, StateSpace,
                        eval2, validate_conditions)
from sclp.problems import finite_fuel_problem, inventory_problem
from generator_reference import eval_Af, eval_Bf

QUAD = C2Function(lambda x: x ** 2, lambda x: 2.0 * x,
                  lambda x: np.full_like(x, 2.0), name="x^2")


def test_eval_Af_quadratic():
    # Af = (sigma^2/2) f'' + b f' with f = x^2: sigma^2 + 2 b x.
    gen = GeneratorA(drift=lambda x, u: -np.ones_like(x),
                     diffusion=lambda x, u: 2.0 * np.ones_like(x))
    assert eval_Af(gen, QUAD, 1.5, 0.0) == pytest.approx(4.0 - 3.0)
    out = eval_Af(gen, QUAD, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert np.allclose(out, [4.0, 2.0])


def test_eval_Af_annihilates_constant():
    gen = GeneratorA(drift=lambda x, u: x + u, diffusion=lambda x, u: 1.0 + x * x)
    x = np.linspace(-2, 2, 9)
    assert np.all(eval_Af(gen, constant_one(), x, x) == 0.0)


def test_eval_Bf_jump_and_gradient():
    jump = GeneratorB(kind=JUMP, displacement=lambda x, u: u)
    assert eval_Bf(jump, QUAD, 1.0, 2.0) == pytest.approx(9.0 - 1.0)
    grad = GeneratorB(kind=GRADIENT, direction=lambda x, u: -np.ones_like(x))
    assert eval_Bf(grad, QUAD, 3.0, 0.0) == pytest.approx(-6.0)
    assert eval_Bf(jump, constant_one(), 1.0, 2.0) == 0.0
    assert eval_Bf(grad, constant_one(), 1.0, 2.0) == 0.0


def test_domain_errors():
    st = StateSpace(-1.0, 1.0)
    gen = GeneratorA(drift=lambda x, u: x, diffusion=lambda x, u: np.ones_like(x))
    with pytest.raises(DomainError):
        eval_Af(gen, QUAD, 2.0, 0.0, state=st)
    jump = GeneratorB(kind=JUMP, displacement=lambda x, u: u)
    with pytest.raises(DomainError, match="jump target"):
        eval_Bf(jump, QUAD, 0.5, 1.0, state=st)


def test_generator_b_validation():
    with pytest.raises(ValueError):
        GeneratorB(kind="teleport")
    with pytest.raises(ValueError):
        GeneratorB(kind=JUMP)
    with pytest.raises(ValueError):
        GeneratorB(kind=GRADIENT)


def test_criterion_validation():
    with pytest.raises(ValueError):
        Criterion(kind=DISCOUNTED, alpha=0.0, nu0=((0.0, 1.0),))
    with pytest.raises(ValueError):
        Criterion(kind=DISCOUNTED, alpha=1.0)
    with pytest.raises(ValueError):
        Criterion(kind=DISCOUNTED, alpha=1.0, nu0=((0.0, 0.5), (1.0, 0.6)))
    Criterion(kind=LONG_TERM_AVERAGE)


@pytest.mark.parametrize("alpha, nu0", [
    (np.nan, ((0.0, 1.0),)),
    (np.inf, ((0.0, 1.0),)),
    (1.0, ((np.nan, 1.0),)),
    (1.0, ((0.0, np.nan),)),
    (1.0, ((0.0, 1.5), (0.2, -0.5))),  # mass 1, one probability negative
])
def test_criterion_rejects_non_finite_and_negative_inputs(alpha, nu0):
    with pytest.raises(ValueError):
        Criterion(kind=DISCOUNTED, alpha=alpha, nu0=nu0)


def test_budget_cap_validation():
    zero = lambda x, u: np.zeros_like(x)
    with pytest.raises(ValueError):
        Budget(g=zero, h=zero, cap=0.0)
    with pytest.raises(ValueError):
        Budget(g=zero, h=zero, cap=np.inf)


def test_state_control_validation():
    with pytest.raises(ValueError):
        StateSpace(1.0, 1.0)
    with pytest.raises(ValueError):
        ControlSpace(2.0, 1.0)
    for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="infinite"):
            StateSpace(lo, hi)
        with pytest.raises(ValueError, match="infinite"):
            ControlSpace(lo, hi)


def test_validate_conditions_builtins_pass():
    for problem, nc in ((inventory_problem(), 5), (finite_fuel_problem(), 2)):
        grid = build_grid(problem, 21, nc)
        rep = validate_conditions(problem, grid)
        assert rep.passed, rep.lines()
        assert rep.unit_annihilated
        assert rep.generators_finite


def test_validate_conditions_flags_negative_cost():
    p0 = inventory_problem()
    bad = ProblemSpec(state=p0.state, control=p0.control, gen_a=p0.gen_a,
                      gen_b=p0.gen_b,
                      costs=CostSpec(c0=lambda x, u: x,  # negative for x < 0
                                     c1=p0.costs.c1),
                      criterion=p0.criterion, name="bad")
    grid = build_grid(bad, 21, 5)
    rep = validate_conditions(bad, grid)
    assert not rep.costs_nonnegative
    assert not rep.passed


def test_validate_conditions_flags_unbounded_singular_cost():
    p0 = inventory_problem()
    zero = lambda x, u: np.zeros_like(np.asarray(x, float))
    bad = ProblemSpec(state=p0.state, control=p0.control, gen_a=p0.gen_a,
                      gen_b=p0.gen_b,
                      costs=CostSpec(c0=p0.costs.c0, c1=zero),
                      criterion=p0.criterion, name="freejumps")
    grid = build_grid(bad, 21, 5)
    rep = validate_conditions(bad, grid)
    assert not rep.singular_cost_bounded_away



def test_validate_conditions_reports_an_infinite_diffusion():
    # The unit probe computes inf * 0 above x = 2: FAIL flags, no warning
    # (warnings are errors in this suite).
    p0 = inventory_problem()
    diffusion = lambda x, u: np.where(np.asarray(x) > 2.0, np.inf, 1.0)
    p = ProblemSpec(state=p0.state, control=p0.control,
                    gen_a=GeneratorA(drift=p0.gen_a.drift, diffusion=diffusion),
                    gen_b=p0.gen_b, costs=p0.costs, criterion=p0.criterion)
    rep = validate_conditions(p, build_grid(p, 21, 5))
    assert not rep.unit_annihilated
    assert not rep.generators_finite
    assert not rep.passed
    assert "generators_finite: FAIL" in rep.lines()

def _eval2_broadcasting(fn, x, u):
    """eval2 as it was before its equal-shape early return."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.asarray(fn(x, u), dtype=float)
    shape = np.broadcast_shapes(x.shape, u.shape)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


@pytest.mark.parametrize("case", ["scalar_fn", "zero_d", "column_u", "partial_shape",
                                  "int_fn", "identity", "int_inputs", "list_inputs"])
def test_eval2_same_value_shape_dtype_and_aliasing(case):
    x = np.linspace(-1.0, 1.0, 5)
    u = np.linspace(0.0, 2.0, 5)
    fn = lambda x, u: x * u + 1.0
    if case == "scalar_fn":
        fn = lambda x, u: 2.5
    elif case == "zero_d":
        x, u = np.float64(0.5), 1.5
    elif case == "column_u":
        u = u[:, None]
    elif case == "partial_shape":
        u = u[:, None]
        fn = lambda x, u: x
    elif case == "int_fn":
        fn = lambda x, u: np.ones(np.shape(x), dtype=int)
    elif case == "identity":
        fn = lambda x, u: x
    elif case == "int_inputs":
        x, u = np.arange(5), np.arange(5)
    else:
        x, u = x.tolist(), u.tolist()
    got = eval2(fn, x, u)
    want = _eval2_broadcasting(fn, x, u)
    assert got.shape == want.shape and got.dtype == want.dtype == float
    assert np.array_equal(got, want)
    assert got.flags.writeable == want.flags.writeable
    for arg in (x, u):
        if isinstance(arg, np.ndarray):
            assert np.shares_memory(got, arg) == np.shares_memory(want, arg)


@pytest.mark.parametrize("fn", [lambda x, u: 1j, lambda x, u: x * 1j,
                                lambda x, u: None])
def test_eval2_rejects_complex_and_none_results(fn):
    with pytest.raises(TypeError):
        eval2(fn, np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("admissible, want", [
    (None, [[True] * 3] * 2),
    (lambda x, u: False, [[False] * 3] * 2),
    (lambda x, u: u > 0.5, [[False] * 3, [True] * 3]),
])
def test_admits_gives_a_bool_array_of_full_shape(admissible, want):
    x, u = np.zeros(3), np.array([[0.0], [1.0]])
    got = ControlSpace(0.0, 1.0, admissible).admits(x, u)
    assert got.dtype == bool and got.flags.writeable
    assert got.tolist() == want


def _counted(fn, calls, name):
    def wrapper(x, u):
        calls[name] = calls.get(name, 0) + 1
        return fn(x, u)
    return wrapper


def _nan_above(fn, level):
    return lambda x, u: np.where(np.asarray(x) > level, np.nan, fn(x, u))


@pytest.mark.parametrize("case", ["inventory", "fuel", "nan_diffusion", "nan_drift",
                                  "nan_displacement", "nan_direction"])
def test_validate_conditions_probes_match_eval_af_bf(case):
    # Flags as eval_Af/eval_Bf give them probe by probe, with every problem
    # callable evaluated once.
    p = finite_fuel_problem() if case in ("fuel", "nan_direction") else inventory_problem()
    gen_a, gen_b = p.gen_a, p.gen_b
    if case == "nan_diffusion":
        gen_a = GeneratorA(drift=gen_a.drift, diffusion=_nan_above(gen_a.diffusion, 2.0))
    elif case == "nan_drift":
        gen_a = GeneratorA(drift=_nan_above(gen_a.drift, -5.0), diffusion=gen_a.diffusion)
    elif case == "nan_displacement":
        # NaN at the grid's jumps from x = -4.5 and -4 (size 8; u = 0 moves nothing).
        gen_b = GeneratorB(kind=JUMP, displacement=_nan_above(gen_b.displacement, -5.0))
    elif case == "nan_direction":
        gen_b = GeneratorB(kind=GRADIENT, direction=_nan_above(gen_b.direction, 0.5))
    grid = build_grid(p, 21, 2)
    x0, u0 = grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1]
    x1, u1 = grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1]
    lin = C2Function(lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
    unit = (np.all(eval_Af(gen_a, constant_one(), x0, u0) == 0.0)
            and np.all(eval_Bf(gen_b, constant_one(), x1, u1) == 0.0))
    finite = all(np.all(np.isfinite(ev(gen, f, x, u)))
                 for f in (lin, QUAD)
                 for ev, gen, x, u in ((eval_Af, gen_a, x0, u0), (eval_Bf, gen_b, x1, u1)))
    calls = {}
    counted = {k: _counted(getattr(gen_a, k), calls, k) for k in ("drift", "diffusion")}
    gen_a = GeneratorA(**counted)
    key = "displacement" if gen_b.kind == JUMP else "direction"
    gen_b = GeneratorB(kind=gen_b.kind, **{key: _counted(getattr(gen_b, key), calls, key)})
    rep = validate_conditions(ProblemSpec(state=p.state, control=p.control, gen_a=gen_a,
                                          gen_b=gen_b, costs=p.costs,
                                          criterion=p.criterion), grid)
    assert (rep.unit_annihilated, rep.generators_finite) == (unit, finite)
    assert rep.passed == (unit and finite)
    assert calls == {"drift": 1, "diffusion": 1, key: 1}
    if case in ("inventory", "fuel"):
        assert unit and finite
    else:
        assert not finite
