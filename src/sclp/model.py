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
    """Evaluate fn(x, u), broadcasting scalar-valued callables to full shape."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.asarray(fn(x, u), dtype=float)
    if out.shape == x.shape == u.shape:
        return out
    shape = np.broadcast_shapes(x.shape, u.shape)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


@dataclass(frozen=True)
class StateSpace:
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError(f"state interval is empty: [{self.x_lo}, {self.x_hi}]")

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

    admissible(x, u) -> bool array carves the closed admissible set out of
    the product space; None means every pair is admissible.
    """

    u_lo: float
    u_hi: float
    admissible: Callable | None = None

    def __post_init__(self):
        if self.u_lo > self.u_hi:
            raise ValueError(f"control interval is empty: [{self.u_lo}, {self.u_hi}]")

    def admits(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.admissible is None:
            return np.broadcast_to(True, np.broadcast_shapes(x.shape, u.shape)).copy()
        out = np.asarray(self.admissible(x, u), dtype=bool)
        shape = np.broadcast_shapes(x.shape, u.shape)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out


@dataclass(frozen=True)
class GeneratorA:
    """One-dimensional Ito diffusion generator.

    Af(x, u) = diffusion(x, u)^2 / 2 * f''(x) + drift(x, u) * f'(x).
    Both callables must be numpy-vectorized over (x, u).
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
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("discounted criterion requires alpha > 0")
            if not self.nu0:
                raise ValueError("discounted criterion requires an initial distribution nu0")
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
    if state is not None and not np.all(state.contains(target)):
        mask = ~state.contains(target)
        bx = np.broadcast_to(xa, mask.shape)[mask].ravel()[0]
        bu = np.broadcast_to(ua, mask.shape)[mask].ravel()[0]
        bt = np.asarray(target)[mask].ravel()[0]
        raise DomainError(
            f"jump target {bt!r} from atom (x={bx!r}, u={bu!r}) leaves "
            f"[{state.x_lo}, {state.x_hi}]")
    return target


def eval_Af(gen_a: GeneratorA, f, x, u, state: StateSpace | None = None):
    """Evaluate the diffusion generator on test function f at (x, u).

    f must expose exact analytic derivatives via d1/d2 (no finite
    differencing).  Raises DomainError when state is given and x leaves it.
    """
    scalar = np.isscalar(x) and np.isscalar(u)
    xa = np.asarray(x, dtype=float)
    ua = np.asarray(u, dtype=float)
    if state is not None:
        state.require(xa)
    sig = eval2(gen_a.diffusion, xa, ua)
    b = eval2(gen_a.drift, xa, ua)
    out = 0.5 * sig * sig * f.d2(xa) + b * f.d1(xa)
    return float(out) if scalar else out


def eval_Bf(gen_b: GeneratorB, f, x, u, state: StateSpace | None = None):
    """Evaluate the singular generator on test function f at (x, u).

    For jump generators the jump target must stay inside the state interval
    when one is supplied; a violation names the offending atom.
    """
    scalar = np.isscalar(x) and np.isscalar(u)
    xa = np.asarray(x, dtype=float)
    ua = np.asarray(u, dtype=float)
    if state is not None:
        state.require(xa)
    if gen_b.kind == JUMP:
        target = jump_targets(gen_b, xa, ua, state=state)
        out = f.value(target) - f.value(xa)
        out = np.broadcast_to(out, np.broadcast_shapes(xa.shape, ua.shape)).copy()
    else:
        out = eval2(gen_b.direction, xa, ua) * f.d1(xa)
    return float(out) if scalar else out


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

    Never raises; the report carries pass/fail flags per condition.
    """
    from .basis import BasisFamily, C2Function, constant_one

    if grid.mu0_atoms.shape[0] == 0:
        raise ValueError("grid has no mu0 atoms")
    x0, u0 = grid.mu0_atoms[:, 0], grid.mu0_atoms[:, 1]
    x1, u1 = grid.mu1_atoms[:, 0], grid.mu1_atoms[:, 1]
    msgs: list[str] = []

    # Cost sign checks.
    c0v = eval2(problem.costs.c0, x0, u0)
    c1v = eval2(problem.costs.c1, x1, u1) if x1.size else np.zeros(0)
    nonneg = bool(np.all(c0v >= 0)) and bool(np.all(c1v >= 0))
    g_ok = True
    h_mins = []
    for bud in problem.costs.budgets:
        gv = eval2(bud.g, x0, u0)
        hv = eval2(bud.h, x1, u1) if x1.size else np.zeros(0)
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

    # Generators on the probes 1, x and x^2 as one family, with eval_Af's and
    # eval_Bf's arithmetic: the unit must map to exactly 0, x and x^2 to
    # finite values.
    probes = BasisFamily((
        constant_one(),
        C2Function(lambda x: x, np.ones_like, np.zeros_like, name="x"),
        C2Function(lambda x: x ** 2, lambda x: 2.0 * x,
                   lambda x: np.full_like(x, 2.0), name="x^2")))
    sig = eval2(problem.gen_a.diffusion, x0, u0)
    d1, d2 = probes.evaluate(x0, (1, 2))
    gen = [0.5 * sig * sig * d2 + eval2(problem.gen_a.drift, x0, u0) * d1]
    if x1.size and problem.gen_b.kind == JUMP:
        targets = jump_targets(problem.gen_b, x1, u1)
        (v,) = probes.evaluate(np.concatenate([targets, x1]), (0,))
        gen.append(v[:, :x1.size] - v[:, x1.size:])
    elif x1.size:
        (d1,) = probes.evaluate(x1, (1,))
        gen.append(eval2(problem.gen_b.direction, x1, u1) * d1)
    unit_ok = all(bool(np.all(g[0] == 0.0)) for g in gen)
    finite = all(bool(np.all(np.isfinite(g[1:]))) for g in gen)
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
