"""Built-in example problems and the problem-file loader.

Problem files are flat INI key/value files.  Function-valued entries name a
function from a fixed catalog instead of a general expression language:

    constant v                      -> v
    linear a bx bu                  -> a + bx*x + bu*u
    quadratic a bx bu cxx cuu       -> a + bx*x + bu*u + cxx*x^2 + cuu*u^2
    piecewise_linear kink sl sr     -> sl*max(kink - x, 0) + sr*max(x - kink, 0)
    abs_control a b                 -> a + b*|u|
    control                         -> u
    tabulated x1:v1 x2:v2 ...       -> linear interpolation in x

Example file::

    [problem]
    name = my-inventory
    [state]
    x_lo = -6
    x_hi = 4
    [control]
    u_lo = 0
    u_hi = 8
    admissible = all
    [dynamics]
    drift = constant -1
    diffusion = constant 1
    [singular]
    kind = jump
    displacement = control
    [costs]
    c0 = piecewise_linear 0 2 1
    c1 = linear 1 0 0.5
    [criterion]
    kind = lta

Discounted problems add ``alpha = ...`` and ``nu0 = x1:p1 x2:p2`` to the
criterion section; the nu0 points must lie in the state interval.  Budgets are optional ``[budget.<name>]`` sections with
``g``, ``h`` and ``cap`` keys.
"""
from __future__ import annotations

import configparser
import math

import numpy as np

from .model import (DISCOUNTED, GRADIENT, JUMP, LONG_TERM_AVERAGE, Budget,
                    ControlSpace, CostSpec, Criterion, GeneratorA, GeneratorB,
                    ProblemSpec, StateSpace)


class ProblemFileError(ValueError):
    """A problem file is malformed or references an unknown catalog entry."""


def inventory_problem(mu_d: float = 1.0, sigma: float = 1.0,
                      c_b: float = 2.0, c_h: float = 1.0,
                      k1: float = 1.0, k2: float = 0.5,
                      x_lo: float = -6.0, x_hi: float = 4.0,
                      u_hi: float = 8.0) -> ProblemSpec:
    """Single-item inventory under constant demand with fixed-plus-proportional
    ordering cost, backlog penalty c_b, holding cost c_h; long-term average."""
    return ProblemSpec(
        state=StateSpace(x_lo, x_hi),
        control=ControlSpace(0.0, u_hi),
        gen_a=GeneratorA(drift=lambda x, u: -mu_d, diffusion=lambda x, u: sigma),
        gen_b=GeneratorB(kind=JUMP, displacement=lambda x, u: u),
        costs=CostSpec(
            c0=lambda x, u: c_b * np.maximum(-x, 0.0) + c_h * np.maximum(x, 0.0),
            c1=lambda x, u: k1 + k2 * u,
        ),
        criterion=Criterion(kind=LONG_TERM_AVERAGE),
        name="inventory",
    )


def finite_fuel_problem(alpha: float = 1.0, sigma: float = 1.0,
                        fuel: float = 1.0, x0: float = 0.0,
                        x_lo: float = -4.0, x_hi: float = 4.0) -> ProblemSpec:
    """Quadratic state cost, driftless diffusion, bidirectional unit pushes
    limited by an (in-mean) fuel budget; discounted from a point start.

    Admissible singular directions are restricted to |u| = 1, so the fuel
    density h = |u| is bounded away from zero on the admissible set.
    """
    return ProblemSpec(
        state=StateSpace(x_lo, x_hi),
        control=ControlSpace(-1.0, 1.0,
                             admissible=lambda x, u: np.abs(np.abs(u) - 1.0) <= 1e-12),
        gen_a=GeneratorA(drift=lambda x, u: 0.0, diffusion=lambda x, u: sigma),
        gen_b=GeneratorB(kind=GRADIENT, direction=lambda x, u: u),
        costs=CostSpec(
            c0=lambda x, u: x ** 2,
            c1=lambda x, u: 0.0,
            budgets=(Budget(g=lambda x, u: 0.0, h=lambda x, u: np.abs(u),
                            cap=fuel, name="fuel"),),
        ),
        criterion=Criterion(kind=DISCOUNTED, alpha=alpha, nu0=((x0, 1.0),)),
        name="finite-fuel",
    )


BUILTIN_PROBLEMS = {
    "inventory": inventory_problem,
    "finite-fuel": finite_fuel_problem,
}


def _float(text: str, where: str, infinite: bool = False) -> float:
    """text as a finite float (or an infinite one, if infinite), never NaN."""
    try:
        v = float(text)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: not a number: {text!r}") from exc
    if math.isnan(v) or (math.isinf(v) and not infinite):
        raise ProblemFileError(f"{where}: not a finite number: {text!r}")
    return v


def _floats(parts, spec, n):
    if len(parts) != n:
        raise ProblemFileError(
            f"function {spec!r}: expected {n} numeric arguments, got {len(parts)}")
    return [_float(p, f"function {spec!r}") for p in parts]


def _pairs(parts, where, infinite=False):
    """x:v pairs of exactly two finite fields (v may be infinite, if infinite)."""
    pairs = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != 2:
            raise ProblemFileError(f"{where}: malformed x:v pair {part!r}")
        pairs.append((_float(fields[0], where), _float(fields[1], where, infinite)))
    return pairs


def parse_function(spec: str):
    """Build a vectorized (x, u) callable from a catalog entry string."""
    parts = spec.split()
    if not parts:
        raise ProblemFileError("empty function specification")
    kind, args = parts[0], parts[1:]
    if kind == "constant":
        (v,) = _floats(args, spec, 1)
        return lambda x, u: v
    if kind == "linear":
        a, bx, bu = _floats(args, spec, 3)
        return lambda x, u: a + bx * x + bu * u
    if kind == "quadratic":
        a, bx, bu, cxx, cuu = _floats(args, spec, 5)
        return lambda x, u: a + bx * x + bu * u + cxx * x ** 2 + cuu * u ** 2
    if kind == "piecewise_linear":
        kink, sl, sr = _floats(args, spec, 3)
        return lambda x, u: sl * np.maximum(kink - x, 0.0) + sr * np.maximum(x - kink, 0.0)
    if kind == "abs_control":
        a, b = _floats(args, spec, 2)
        return lambda x, u: a + b * np.abs(u)
    if kind == "control":
        if args:
            raise ProblemFileError(f"function {spec!r}: 'control' takes no arguments")
        return lambda x, u: u
    if kind == "tabulated":
        if len(args) < 2:
            raise ProblemFileError(f"function {spec!r}: need at least 2 x:v pairs")
        # An infinite value loads, so that validate can report it.
        pts = sorted(_pairs(args, f"function {spec!r}", infinite=True))
        xs = np.array([p[0] for p in pts])
        vs = np.array([p[1] for p in pts])
        if np.any(np.diff(xs) <= 0):
            raise ProblemFileError(f"function {spec!r}: duplicate x values")
        return lambda x, u: np.interp(x, xs, vs)
    raise ProblemFileError(f"unknown catalog function: {kind!r}")


def _parse_admissible(spec: str):
    parts = spec.split()
    if parts == ["all"]:
        return None
    if len(parts) == 2 and parts[0] == "abs_equals":
        v = _float(parts[1], "[control] admissible")
        return lambda x, u: np.abs(np.abs(u) - v) <= 1e-12
    raise ProblemFileError(f"[control] admissible: unknown admissible rule: {spec!r}")


def _get(cp, section, key, default=None):
    if not cp.has_section(section) or not cp.has_option(section, key):
        if default is not None:
            return default
        raise ProblemFileError(f"missing [{section}] {key}")
    return cp.get(section, key)


def _number(cp, section, key) -> float:
    return _float(_get(cp, section, key), f"[{section}] {key}")


def _function(cp, section, key, default=None):
    """parse_function of [section] key; its errors name the key."""
    spec = _get(cp, section, key, default)
    try:
        return parse_function(spec)
    except ProblemFileError as exc:
        raise ProblemFileError(f"[{section}] {key}: {exc}") from exc


def _model(section, make, *args, **kwargs):
    """make(*args, **kwargs); a value the model rejects names [section]."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ProblemFileError(f"[{section}] {exc}") from exc


def load_problem(path: str) -> ProblemSpec:
    """Load a ProblemSpec from an INI problem file (see module docstring)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        # One line: configparser's messages span several.
        raise ProblemFileError(" ".join(f"malformed problem file: {exc}".split())) from exc
    if not read:
        raise ProblemFileError(f"cannot read problem file: {path}")

    name = _get(cp, "problem", "name", default="problem")
    state = _model("state", StateSpace, _number(cp, "state", "x_lo"),
                   _number(cp, "state", "x_hi"))
    control = _model(
        "control", ControlSpace, _number(cp, "control", "u_lo"),
        _number(cp, "control", "u_hi"),
        admissible=_parse_admissible(_get(cp, "control", "admissible", default="all")))
    gen_a = GeneratorA(drift=_function(cp, "dynamics", "drift"),
                       diffusion=_function(cp, "dynamics", "diffusion"))

    kind = _get(cp, "singular", "kind")
    if kind == JUMP:
        gen_b = GeneratorB(kind=JUMP,
                           displacement=_function(cp, "singular", "displacement"))
    elif kind == GRADIENT:
        gen_b = GeneratorB(kind=GRADIENT,
                           direction=_function(cp, "singular", "direction"))
    else:
        raise ProblemFileError(f"[singular] kind: unknown singular kind: {kind!r}")

    budgets = []
    for section in cp.sections():
        if not section.startswith("budget."):
            continue
        budgets.append(_model(
            section, Budget,
            g=_function(cp, section, "g", default="constant 0"),
            h=_function(cp, section, "h"),
            cap=_number(cp, section, "cap"),
            name=section.split(".", 1)[1]))
    costs = CostSpec(c0=_function(cp, "costs", "c0"),
                     c1=_function(cp, "costs", "c1"),
                     budgets=tuple(budgets))

    ckind = _get(cp, "criterion", "kind")
    if ckind == LONG_TERM_AVERAGE:
        criterion = Criterion(kind=LONG_TERM_AVERAGE)
    elif ckind == DISCOUNTED:
        alpha = _number(cp, "criterion", "alpha")
        nu0 = tuple(_pairs(_get(cp, "criterion", "nu0").split(), "[criterion] nu0"))
        off = [x for x, _ in nu0 if not state.contains(x)]
        if off:
            raise ProblemFileError(f"[criterion] nu0: point {off[0]!r} lies outside "
                                   f"the state interval [{state.x_lo}, {state.x_hi}]")
        criterion = _model("criterion", Criterion, kind=DISCOUNTED, alpha=alpha, nu0=nu0)
    else:
        raise ProblemFileError(f"[criterion] kind: unknown criterion kind: {ckind!r}")

    return ProblemSpec(state=state, control=control, gen_a=gen_a, gen_b=gen_b,
                       costs=costs, criterion=criterion, name=name)
