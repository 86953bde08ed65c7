"""Reference generators for the tests: A f and B f at (x, u), member by member.

One row builder, discretize.generator_rows, evaluates the generators on a
whole basis family at once, for the LP's adjoint rows and for
validate_conditions' probes; these evaluate them on one test function, the
plain way, to check it against.
"""
import numpy as np

from sclp.model import JUMP, GeneratorA, GeneratorB, StateSpace, eval2, jump_targets


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
