"""Problem definitions for singularly controlled one-dimensional diffusions.

A problem couples an Ito diffusion generator (drift + diffusion, acting
through f', f'') with a singular-action generator (state jumps or gradient
pushes), nonnegative running/singular costs, optional budget rows, and the
optimization criterion.  The state space is a compact interval chosen wide
enough that stationary mass near the boundary is negligible; the policy
module's boundary-mass diagnostic monitors that choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


STATE_TOL = 1e-12  # states this far outside the interval still count as inside


class DomainError(ValueError):
    """Evaluation requested outside the truncated state interval."""


def eval2(fn, x, u):
    """Evaluate a problem function fn(x, u) as a float64 array of full shape.

    fn gets float arrays and may return a scalar or anything that broadcasts
    to their shape; a complex or None result raises TypeError.  A full-shape
    float64 array is returned as fn gave it, maybe fn's own argument
    (inventory's displacement returns u): never modify the result in place.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return _full(fn(x, u), x, u)


def eval_real(fn, x, u):
    """eval2(fn, x, u), except that a Python float result comes back as it is.

    For the hot loops: a constant function then costs no array, and
    arithmetic with the float gives the same values as with eval2's array.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = fn(x, u)
    return out if type(out) is float else _full(out, x, u)


def _full(out, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """fn's result out as a float64 array of the shape of (x, u) (see eval2)."""
    shape = x.shape
    if u.shape != shape:
        shape = np.broadcast_shapes(shape, u.shape)
    if type(out) is np.ndarray and out.dtype == float and out.shape == shape:
        return out
    full = np.empty(shape)
    np.copyto(full, out, casting="same_kind")
    return full


@dataclass(frozen=True)
class StateSpace:
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not -np.inf < self.x_lo < self.x_hi < np.inf:
            raise ValueError(f"empty or infinite state interval [{self.x_lo}, {self.x_hi}]")

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return (x >= self.x_lo - STATE_TOL) & (x <= self.x_hi + STATE_TOL)

    def require(self, x):
        """Raise DomainError naming the first state of x outside the interval."""
        inside = self.contains(x)
        if not np.all(inside):
            bad = np.asarray(x, dtype=float)[~inside].ravel()
            raise DomainError(f"state {bad[0]!r} outside [{self.x_lo}, {self.x_hi}]")


@dataclass(frozen=True)
class ControlSpace:
    """Control interval [u_lo, u_hi] with an optional admissibility predicate.

    admissible(x, u) -> bools that broadcast to the shape of (x, u) carve the
    closed admissible set out of the product space; None admits every pair.
    """

    u_lo: float
    u_hi: float
    admissible: Callable | None = None

    def __post_init__(self):
        if not -np.inf < self.u_lo <= self.u_hi < np.inf:
            raise ValueError(f"empty or infinite control interval "
                             f"[{self.u_lo}, {self.u_hi}]")

    def admits(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        out = True if self.admissible is None else self.admissible(x, u)
        return np.full(np.broadcast_shapes(x.shape, u.shape), out, dtype=bool)


@dataclass(frozen=True)
class GeneratorA:
    """One-dimensional Ito diffusion generator.

    Af(x, u) = diffusion(x, u)^2 / 2 * f''(x) + drift(x, u) * f'(x).
    Both callables are problem functions, evaluated through eval2.
    """

    drift: Callable
    diffusion: Callable


JUMP = "jump"
GRADIENT = "gradient"


@dataclass(frozen=True)
class GeneratorB:
    """Singular generator, one of two shapes.

    jump:     Bf(x, u) = f(x + displacement(x, u)) - f(x)
    gradient: Bf(x, u) = direction(x, u) * f'(x)
    """

    kind: str
    displacement: Callable | None = None
    direction: Callable | None = None

    def __post_init__(self):
        if self.kind not in (JUMP, GRADIENT):
            raise ValueError(f"unknown singular generator kind: {self.kind!r}")
        if self.kind == JUMP and self.displacement is None:
            raise ValueError("jump generator requires a displacement function")
        if self.kind == GRADIENT and self.direction is None:
            raise ValueError("gradient generator requires a direction function")


@dataclass(frozen=True)
class Budget:
    """Soft (in-mean) budget row: integral of g d(mu0) + h d(mu1) <= cap."""

    g: Callable
    h: Callable
    cap: float
    name: str = "budget"

    def __post_init__(self):
        if not 0.0 < self.cap < np.inf:
            raise ValueError(f"budget cap must be positive and finite, got {self.cap}")


@dataclass(frozen=True)
class CostSpec:
    c0: Callable
    c1: Callable
    budgets: tuple[Budget, ...] = ()


LONG_TERM_AVERAGE = "lta"
DISCOUNTED = "discounted"


@dataclass(frozen=True)
class Criterion:
    """Optimization criterion: long-term average or discounted.

    For the discounted criterion, nu0 is the initial distribution as a
    tuple of (x, prob) pairs supported on state grid nodes.
    """

    kind: str
    alpha: float | None = None
    nu0: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in (LONG_TERM_AVERAGE, DISCOUNTED):
            raise ValueError(f"unknown criterion kind: {self.kind!r}")
        if self.kind == DISCOUNTED:
            if self.alpha is None or not 0 < self.alpha < np.inf:
                raise ValueError("discounted criterion requires a finite alpha > 0")
            if not self.nu0:
                raise ValueError("discounted criterion requires an initial distribution nu0")
            if not all(-np.inf < x < np.inf and 0 <= p < np.inf for x, p in self.nu0):
                raise ValueError("nu0 needs finite states and probabilities >= 0")
            mass = sum(p for _, p in self.nu0)
            if abs(mass - 1.0) > 1e-12:
                raise ValueError(f"nu0 mass is {mass!r}, expected 1 within 1e-12")


@dataclass(frozen=True)
class ProblemSpec:
    state: StateSpace
    control: ControlSpace
    gen_a: GeneratorA
    gen_b: GeneratorB
    costs: CostSpec
    criterion: Criterion
    name: str = "problem"


def jump_targets(gen_b: GeneratorB, x, u, state: StateSpace | None = None):
    """x + displacement(x, u) for a jump generator.

    When state is given every target must stay inside it; a violation names
    the offending atom.
    """
    xa = np.asarray(x, dtype=float)
    ua = np.asarray(u, dtype=float)
    target = xa + eval2(gen_b.displacement, xa, ua)
    outside = None if state is None else ~state.contains(target)
    if outside is not None and outside.any():
        bx, bu, bt = (np.broadcast_to(v, outside.shape)[outside][0]
                      for v in (xa, ua, target))
        raise DomainError(
            f"jump target {bt!r} from atom (x={bx!r}, u={bu!r}) leaves "
            f"[{state.x_lo}, {state.x_hi}]")
    return target


@dataclass
class ValidationReport:
    """Grid-level checks of the standing conditions on a problem.

    On a compact truncated grid the growth bounds reduce to finiteness, so
    only finiteness of generator evaluations is checked; lower bounds on
    singular costs correspond to the bounded-away-from-zero requirement.
    """

    c1_min: float
    h_mins: tuple[float, ...]
    singular_cost_bounded_away: bool
    costs_nonnegative: bool
    unit_annihilated: bool
    generators_finite: bool
    messages: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (self.singular_cost_bounded_away and self.costs_nonnegative
                and self.unit_annihilated and self.generators_finite)

    def lines(self) -> list[str]:
        def flag(ok):
            return "pass" if ok else "FAIL"

        out = [
            f"singular_cost_bounded_away: {flag(self.singular_cost_bounded_away)} "
            f"(min c1 = {self.c1_min:.6g}, min h_i = "
            f"{tuple(round(v, 12) for v in self.h_mins)})",
            f"costs_nonnegative: {flag(self.costs_nonnegative)}",
            f"unit_annihilated: {flag(self.unit_annihilated)}",
            f"generators_finite: {flag(self.generators_finite)}",
            f"overall: {flag(self.passed)}",
        ]
        out.extend(self.messages)
        return out


def validate_conditions(problem: ProblemSpec, grid) -> ValidationReport:
    """Check the standing conditions on the atoms of a grid.

    The report carries pass/fail flags per condition; raises ValueError
    only for a grid without mu0 atoms.
    """
    from .basis import BasisFamily, C2Function, constant_one
    from .discretize import generator_rows

    if grid.mu0_atoms.shape[0] == 0:
        raise ValueError("grid has no mu0 atoms")
    x0, u0 = grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1]
    x1, u1 = grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1]
    msgs: list[str] = []

    # Cost sign checks.
    c0v = eval2(problem.costs.c0, x0, u0)
    c1v = eval2(problem.costs.c1, x1, u1)
    nonneg = bool(np.all(c0v >= 0)) and bool(np.all(c1v >= 0))
    g_ok = True
    h_mins = []
    for bud in problem.costs.budgets:
        gv = eval2(bud.g, x0, u0)
        hv = eval2(bud.h, x1, u1)
        g_ok = g_ok and bool(np.all(gv >= 0)) and bool(np.all(hv >= 0))
        h_mins.append(float(hv.min()) if hv.size else np.inf)
    nonneg = nonneg and g_ok
    if not nonneg:
        msgs.append("a cost or budget function takes a negative value on the grid")

    c1_min = float(c1v.min()) if c1v.size else np.inf
    bounded_away = (x1.size == 0) or (c1_min > 0) or any(
        np.isfinite(m) and m > 0 for m in h_mins)
    if not bounded_away:
        msgs.append("neither c1 nor any singular budget function is bounded away "
                    "from 0 on the mu1 atoms")

    # The generator rows (discretize.generator_rows) of the probes 1, x and
    # x^2: the unit must map to exactly 0, x and x^2 to finite values;
    # inf * 0 or inf - inf fails them without a warning.
    probes = BasisFamily((
        constant_one(),
        C2Function(lambda x: x, np.ones_like, np.zeros_like, name="x"),
        C2Function(lambda x: x ** 2, lambda x: 2.0 * x,
                   lambda x: np.full_like(x, 2.0), name="x^2")))
    with np.errstate(invalid="ignore", over="ignore"):
        gen = generator_rows(problem, grid, probes)
    unit_ok = bool(np.all(gen[0] == 0.0))
    finite = bool(np.all(np.isfinite(gen[1:])))
    if not finite:
        msgs.append("a generator evaluation is non-finite on the grid")

    return ValidationReport(
        c1_min=c1_min,
        h_mins=tuple(h_mins),
        singular_cost_bounded_away=bounded_away,
        costs_nonnegative=nonneg,
        unit_annihilated=unit_ok,
        generators_finite=finite,
        messages=tuple(msgs),
    )
