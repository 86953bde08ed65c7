"""Test-function families: cubic B-splines with exact analytic derivatives.

The adjoint rows of the measure LPs need test functions f that are twice
continuously differentiable with compact support, together with exact f'
and f''.  Uniform cardinal cubic B-splines provide both; the family also
carries an explicit constant element so the span contains f = 1 (which
generates the mass condition in the rescaled discounted form).

BasisFamily.evaluate computes all members at many points at once.  At most
four cubic B-splines of a uniform family are nonzero at any point (de Boor,
A Practical Guide to Splines), so only those are computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class C2Function:
    """A twice continuously differentiable function with analytic derivatives.

    value, d1 and d2 must accept and return numpy arrays (scalars are fine
    too; they are promoted on evaluation).
    """

    def __init__(self, value: Callable, d1: Callable, d2: Callable, name: str = "f"):
        self._value = value
        self._d1 = d1
        self._d2 = d2
        self.name = name

    def value(self, x):
        return np.asarray(self._value(np.asarray(x, dtype=float)), dtype=float)

    def d1(self, x):
        return np.asarray(self._d1(np.asarray(x, dtype=float)), dtype=float)

    def d2(self, x):
        return np.asarray(self._d2(np.asarray(x, dtype=float)), dtype=float)

    def __repr__(self):
        return f"C2Function({self.name})"


def constant_one() -> C2Function:
    """The constant function f = 1; its derivatives are exactly zero."""
    return C2Function(
        lambda x: np.ones_like(x),
        lambda x: np.zeros_like(x),
        lambda x: np.zeros_like(x),
        name="1",
    )


# Cardinal cubic B-spline N(s) supported on [0, 4], unit knot spacing.
# Piecewise cubic polynomials; C^2 at the interior knots.  _PIECES[order][p]
# is the order-th derivative of N on [p, p + 1].
_PIECES = (
    (lambda s: s ** 3 / 6.0,
     lambda s: (-3.0 * s ** 3 + 12.0 * s ** 2 - 12.0 * s + 4.0) / 6.0,
     lambda s: (3.0 * s ** 3 - 24.0 * s ** 2 + 60.0 * s - 44.0) / 6.0,
     lambda s: (4.0 - s) ** 3 / 6.0),
    (lambda s: s ** 2 / 2.0,
     lambda s: (-9.0 * s ** 2 + 24.0 * s - 12.0) / 6.0,
     lambda s: (9.0 * s ** 2 - 48.0 * s + 60.0) / 6.0,
     lambda s: -((4.0 - s) ** 2) / 2.0),
    (lambda s: s,
     lambda s: -3.0 * s + 4.0,
     lambda s: 3.0 * s - 8.0,
     lambda s: 4.0 - s),
)


def _cardinal(order: int, s):
    """order-th derivative of N at s (0 outside [0, 4]).

    Each piece is evaluated only on its own points: [p, p + 1), and [3, 4]
    for the last one.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for p, piece in enumerate(_PIECES[order]):
        on = (p <= s) & ((s < p + 1) if p < 3 else (s <= 4.0))
        out[on] = piece(s[on])
    return out


class CubicBSpline(C2Function):
    """Cubic B-spline on uniform knots t0, t0+h, ..., t0+4h (compact support)."""

    def __init__(self, t0: float, h: float, name: str | None = None):
        if h <= 0:
            raise ValueError("knot spacing must be positive")
        self.t0 = float(t0)
        self.h = float(h)
        super().__init__(self._v, self._g, self._gg, name=name or f"B[{t0:.6g},{t0 + 4 * h:.6g}]")

    @property
    def support(self) -> tuple[float, float]:
        return (self.t0, self.t0 + 4.0 * self.h)

    def _v(self, x):
        return _cardinal(0, (x - self.t0) / self.h)

    def _g(self, x):
        return _cardinal(1, (x - self.t0) / self.h) / self.h

    def _gg(self, x):
        return _cardinal(2, (x - self.t0) / self.h) / self.h ** 2


# Points within this distance of a knot (in units of the knot spacing) take
# the piece-selecting path; elsewhere rounding cannot move them across one.
_KNOT_TOL = 1e-6


class _SplineRun:
    """The uniform cubic B-spline members of a family, by increasing first knot."""

    def __init__(self, rows: np.ndarray, t0: np.ndarray, h: float):
        self.rows = rows  # member index of each spline
        self.t0 = t0
        self.h = h

    @staticmethod
    def find(functions) -> "_SplineRun | None":
        """The family's CubicBSpline members, if they share h on uniform knots."""
        rows = np.array([k for k, f in enumerate(functions)
                         if isinstance(f, CubicBSpline)], dtype=np.intp)
        if rows.size == 0:
            return None
        t0 = np.array([functions[k].t0 for k in rows])
        order = np.argsort(t0, kind="stable")
        rows, t0 = rows[order], t0[order]
        h = functions[rows[0]].h
        # Each spline's s must agree with the shared knot index to well
        # within _KNOT_TOL: equal spacing, uniform starts, moderate scale.
        uneven = np.abs(t0 - (t0[0] + np.arange(t0.size) * h)).max() / h
        span = (abs(t0[0]) + abs(t0[-1])) / h + t0.size
        if any(functions[k].h != h for k in rows) or uneven > 1e-9 or span > 1e8:
            return None
        return _SplineRun(rows, t0, h)

    def evaluate(self, x: np.ndarray, orders, out) -> None:
        """Write the splines' rows of the requested orders into zeroed out arrays."""
        m = self.rows.size
        base = (x - self.t0[0]) / self.h
        cell = np.floor(base)
        frac = base - cell
        near = (base > -1.0) & (base < m + 4.0)  # may touch a support
        clear = near & (frac >= _KNOT_TOL) & (frac <= 1.0 - _KNOT_TOL)
        # Away from knots, spline cell + off is nonzero on its piece -off.
        self._fill(out, orders, x, cell, clear, range(-3, 1), fixed=True)
        # Next to a knot the computed s may fall on either side of it: use a
        # wider window and let each value select its own piece.
        self._fill(out, orders, x, cell, near & ~clear, range(-4, 2), fixed=False)

    def _fill(self, out, orders, x, cell, mask, offsets, fixed):
        cols = np.flatnonzero(mask)
        if cols.size == 0:
            return
        first = cell[cols].astype(np.intp)
        lo, hi = first.min(), first.max()
        for off in offsets:
            j, c = first + off, cols
            if lo + off < 0 or hi + off >= self.rows.size:
                # Past an end of the run: keep the splines that exist.
                exists = (j >= 0) & (j < self.rows.size)
                j, c = j[exists], c[exists]
            # The same operations as CubicBSpline's own methods, bit for bit.
            s = (x[c] - self.t0[j]) / self.h
            rows = self.rows[j]
            for order, arr in zip(orders, out):
                v = _PIECES[order][-off](s) if fixed else _cardinal(order, s)
                if order:
                    v = v / self.h ** order
                arr[rows, c] = v


@dataclass(frozen=True)
class BasisFamily:
    """An ordered family of C^2 test functions used for the adjoint rows.

    includes_constant records whether the constant function is a member
    (by convention it is appended last when present).
    """

    functions: tuple[C2Function, ...]
    includes_constant: bool = False

    def __len__(self):
        return len(self.functions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.functions)

    @cached_property
    def _layout(self) -> tuple[list[int], _SplineRun | None]:
        """(members evaluated one by one, the spline run evaluated together)."""
        run = _SplineRun.find(self.functions)
        together = set() if run is None else set(run.rows.tolist())
        return [k for k in range(len(self)) if k not in together], run

    def evaluate(self, x, orders=(0, 1, 2), out=None) -> tuple[np.ndarray, ...]:
        """Every member's value (order 0), f' (order 1) or f'' (order 2) at x.

        Returns one (len(self), x.size) array per requested order, in the
        order requested; row k equals functions[k].value / d1 / d2 at the
        flattened x, bit for bit.  Uniform cubic B-spline members are
        evaluated together: each point's knot interval is found once and only
        the splines that can be nonzero there are computed.  Other members
        use their own methods.  out, if given, holds one array per order to
        overwrite (a loop that evaluates every step can reuse them).
        """
        if any(o not in (0, 1, 2) for o in orders):
            raise ValueError(f"derivative orders must be 0, 1 or 2, got {orders!r}")
        x = np.asarray(x, dtype=float).reshape(-1)
        shape = (len(self), x.size)
        if out is None:
            out = tuple(np.zeros(shape) for _ in orders)
        elif len(out) != len(orders) or any(a.shape != shape for a in out):
            raise ValueError(f"out must hold {len(orders)} arrays of shape {shape}")
        else:
            for arr in out:
                arr.fill(0.0)
        others, run = self._layout
        for k in others:
            f = self.functions[k]
            for order, rows in zip(orders, out):
                rows[k] = (f.value, f.d1, f.d2)[order](x)
        if run is not None:
            run.evaluate(x, orders, out)
        return out

    @staticmethod
    def cubic_on_interval(x_lo: float, x_hi: float, n: int,
                          include_constant: bool = True) -> "BasisFamily":
        """n uniform cubic B-splines whose supports all lie inside [x_lo, x_hi].

        Knot spacing h = (x_hi - x_lo) / (n + 3); element j is supported on
        [x_lo + j h, x_lo + (j + 4) h].
        """
        if n < 1:
            raise ValueError("need at least one spline element")
        if not x_lo < x_hi:
            raise ValueError("x_lo must be below x_hi")
        h = (x_hi - x_lo) / (n + 3)
        elems: list[C2Function] = [
            CubicBSpline(x_lo + j * h, h, name=f"bspl{j:03d}") for j in range(n)
        ]
        if include_constant:
            elems.append(constant_one())
        return BasisFamily(tuple(elems), includes_constant=include_constant)
