"""Test-function families: cubic B-splines with exact analytic derivatives.

The adjoint rows of the measure LPs need test functions f that are twice
continuously differentiable with compact support, together with exact f'
and f''.  Uniform cubic B-splines provide both; the family also carries an
explicit constant element so the span contains f = 1 (which generates the
mass condition in the rescaled discounted form).

Every cubic B-spline is a member of a run of splines on one uniform knot
lattice, and splines are evaluated only through their run, the one place
that knows the lattice (_SplineRun.locate).  A family's splines fall into
ranges, consecutive members that are consecutive splines of one run, and
each range is evaluated at once: each point's knot cell is found once, and
only the at most four splines nonzero there (de Boor, A Practical Guide to
Splines) are computed, each on the piece that cell selects.  The pieces are
defined once, in _TAU, as cubics in the point's offset inside its knot
cell.  A spline on its own is a range of one, with the same arithmetic per
point, so BasisFamily.evaluate, which computes all members at many points
at once, matches each member's value, d1 and d2 bit for bit.

PathSums accumulates weighted values and derivatives of every member along
simulated paths (the martingale residuals), range by range.  It also
touches only each point's four splines, found by locate, and reads the
same table, but sums a block's weighted pieces in one matrix product, so
its sums agree with evaluation to round-off rather than bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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


# Cardinal cubic B-spline N(s), supported on [0, 4] with unit knot spacing:
# four cubic pieces, C^2 at the interior knots, each written in tau = s - p,
# the offset of a point inside its knot cell [p, p + 1].  The order-th
# derivative of N on [p, p + 1] is the sum over q of _TAU[order, q, p] * tau ** q;
# this table is the one definition of the pieces.
_TAU = np.array([
    [[0, 1, 4, 1], [0, 3, 0, -3], [0, 3, -6, 3], [1, -3, 3, -1]],
    [[0, 3, 0, -3], [0, 6, -12, 6], [3, -9, 9, -3], [0, 0, 0, 0]],
    [[0, 6, -12, 6], [6, -18, 18, -6], [0, 0, 0, 0], [0, 0, 0, 0]],
]) / 6.0


class _SplineRun:
    """n uniform cubic B-splines, spline j on knots t0 + (j + i) h, i = 0..4.

    The one unit in which cubic B-splines are evaluated, and the one that
    knows their knot lattice.
    """

    def __init__(self, t0: float, h: float, n: int):
        t0, h = float(t0), float(h)
        if not (np.isfinite(t0) and 0 < h < np.inf and np.isfinite(t0 + (n + 3) * h)):
            raise ValueError("knots must be finite and their spacing positive")
        self.t0 = t0  # first knot; spline j's is t0 + j * h
        self.h = h
        # _TAU in units of x: row 3 q + order weighs tau**q, column p is piece p.
        self.tau_table = np.stack([_TAU[o] / h ** o for o in range(3)], axis=1).reshape(12, 4)

    def member(self, j: int, name: str | None = None) -> "CubicBSpline":
        """Spline j as a CubicBSpline view of this run."""
        f = CubicBSpline.__new__(CubicBSpline)
        f._join(self, j, name)
        return f

    def locate(self, x: np.ndarray, lo: int, hi: int):
        """(indices, cells, offsets) of the points of x in knot cells lo..hi + 3.

        A point lies in knot cell floor(u), u = (x - t0) / h, at offset
        tau = u - cell inside it; spline cell - p takes its piece p there
        (p = 0..3), so cells lo..hi + 3 are the support of splines lo..hi.
        """
        u = (x - self.t0) / self.h
        cell = np.floor(u)
        tau = u - cell
        if x.size and cell.min() >= lo and cell.max() <= hi + 3:  # no copies needed
            return np.arange(x.size), cell.astype(np.intp), tau
        at = ((cell >= lo) & (cell <= hi + 3)).nonzero()[0]
        return at, cell[at].astype(np.intp), tau[at]

    def evaluate(self, x: np.ndarray, orders, out, lo: int, hi: int, row: int) -> None:
        """Write splines lo..hi at x into zeroed, C-contiguous out arrays, one per order.

        Spline j goes to row row + j - lo, and only the points that locate
        finds are computed.  Each point takes all four pieces by Horner's
        rule in its offset tau, elementwise, and each piece whose spline is
        written is kept, so a value does not depend on the other points or
        splines.  Values (order 0) are clamped at 0, which round-off near
        the ends of a support can cross.
        """
        cols, cell, tau = self.locate(x, lo, hi)
        j = cell - np.arange(4)[:, None]  # spline cell - p takes piece p there
        keep = (j >= lo) & (j <= hi)
        at = ((j + (row - lo)) * x.size + cols)[keep]  # flat index into out
        for order, arr in zip(orders, out):
            a = self.tau_table[order::3, :, None]  # a[q, p] weighs tau**q in piece p
            v = (((a[3] * tau + a[2]) * tau + a[1]) * tau + a[0])[keep]
            if not order:
                np.maximum(v, 0.0, out=v)
            arr.reshape(-1)[at] = v


class CubicBSpline(C2Function):
    """Cubic B-spline on uniform knots t0, t0+h, ..., t0+4h (compact support).

    A member of a _SplineRun, whose evaluation gives its value, d1 and d2;
    constructed directly, it is a run of one.
    """

    def __init__(self, t0: float, h: float, name: str | None = None):
        self._join(_SplineRun(t0, h, 1), 0, name)

    def _join(self, run: _SplineRun, j: int, name: str | None) -> None:
        self.run, self.j = run, j
        self.t0, self.h = run.t0 + j * run.h, run.h
        super().__init__(partial(self._row, 0), partial(self._row, 1),
                         partial(self._row, 2),
                         name=name or f"B[{self.t0:.6g},{self.t0 + 4 * self.h:.6g}]")

    @property
    def support(self) -> tuple[float, float]:
        return (self.t0, self.t0 + 4.0 * self.h)

    def _row(self, order: int, x: np.ndarray) -> np.ndarray:
        out = (np.zeros((1, x.size)),)
        self.run.evaluate(x.reshape(-1), (order,), out, self.j, self.j, 0)
        return out[0].reshape(x.shape)


@dataclass(frozen=True)
class BasisFamily:
    """An ordered family of C^2 test functions used for the adjoint rows."""

    functions: tuple[C2Function, ...]

    def __len__(self):
        return len(self.functions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.functions)

    @cached_property
    def _layout(self) -> tuple[list[int], list[list]]:
        """(members evaluated one by one, spline ranges [run, lo, hi, row]).

        Members row .. row + hi - lo are splines lo .. hi of run, in order.
        A spline that does not extend the last range opens a new one.
        """
        others, ranges = [], []
        for k, f in enumerate(self.functions):
            prev = self.functions[k - 1] if k else None
            if not isinstance(f, CubicBSpline):
                others.append(k)
            elif isinstance(prev, CubicBSpline) and prev.run is f.run and prev.j == f.j - 1:
                ranges[-1][2] = f.j  # prev ends the last range
            else:
                ranges.append([f.run, f.j, f.j, k])
        return others, ranges

    def evaluate(self, x, orders=(0, 1, 2)) -> tuple[np.ndarray, ...]:
        """Every member's value (order 0), f' (order 1) or f'' (order 2) at x.

        Returns one (len(self), x.size) array per requested order, in the
        order requested; row k equals functions[k].value / d1 / d2 at the
        flattened x, bit for bit.  The cubic B-spline members of one run are
        evaluated together; other members use their own methods.
        """
        if any(o not in (0, 1, 2) for o in orders):
            raise ValueError(f"derivative orders must be 0, 1 or 2, got {orders!r}")
        x = np.asarray(x, dtype=float).reshape(-1)
        out = tuple(np.zeros((len(self), x.size)) for _ in orders)
        others, ranges = self._layout
        for k in others:
            f = self.functions[k]
            for order, rows in zip(orders, out):
                rows[k] = (f.value, f.d1, f.d2)[order](x)
        for run, lo, hi, row in ranges:
            run.evaluate(x, orders, out, lo, hi, row)
        return out

    @staticmethod
    def cubic_on_interval(x_lo: float, x_hi: float, n: int) -> "BasisFamily":
        """n uniform cubic B-splines inside [x_lo, x_hi], then the constant 1.

        Knot spacing h = (x_hi - x_lo) / (n + 3); element j < n is supported
        on [x_lo + j h, x_lo + (j + 4) h], and element n is f = 1.
        """
        if n < 1:
            raise ValueError("need at least one spline element")
        if not -np.inf < x_lo < x_hi < np.inf:
            raise ValueError("need finite x_lo below x_hi")
        run = _SplineRun(x_lo, (float(x_hi) - float(x_lo)) / (n + 3), n)
        splines = tuple(run.member(j, f"bspl{j:03d}") for j in range(n))
        return BasisFamily(splines + (constant_one(),))


# Points PathSums buffers before it reduces them.
_BLOCK = 2048


class PathSums:
    """Per-path sums of w0 f(x) + w1 f'(x) + w2 f''(x) for every member f.

    PathSums(family, n_paths) starts every sum at 0.  Each range of the
    family, splines lo..hi of one run (BasisFamily._layout), keeps its sums
    in one (n_paths, hi - lo + 7) array, column j - lo + 3 for spline j.  A
    point adds only to the four splines nonzero in its knot cell, each piece
    a cubic in the point's offset tau inside the cell (the run's tau_table),
    and a point that the run does not locate in cells lo..hi + 3 adds
    nothing to the range.  The three columns on each side of the range's
    splines take the pieces that fall there and are never read.  Other
    members add their own value, d1 and d2 to their own rows.  The splines'
    sums agree with BasisFamily.evaluate to round-off, not bit for bit.

    Calls are buffered and reduced in blocks of _BLOCK points, as soon as
    the buffer is full; a call that fills it goes on in the next block.
    Every sum takes its terms point by point in the order added, a point's
    four spline terms in a row, and a point's terms do not depend on the
    other points of its block, so the sums do not depend on where blocks
    end.
    """

    def __init__(self, family: BasisFamily, n_paths: int):
        self._functions = family.functions
        self._others, ranges = family._layout
        self._other_sums = np.zeros((len(self._others), n_paths))
        self._paths = np.arange(n_paths)
        # Each range with its sums, and where path i's column of knot cell lo
        # lies in them (flattened).
        self._ranges = [(run, lo, hi, row, np.zeros((n_paths, hi - lo + 7)),
                         self._paths * (hi - lo + 7) + 3 - lo)
                        for run, lo, hi, row in ranges]
        # The buffer: points, their paths and the reduction's columns, whose
        # row 0 holds one weight per order (0 where a call has no term of
        # that order); and the orders the calls weighed.
        self._x = np.empty(_BLOCK)
        self._at = np.empty(_BLOCK, dtype=np.intp)
        self._cols = np.empty((4, 3, _BLOCK))
        self._orders = set()
        self._n = 0

    def add(self, x, weights: dict, paths=None) -> None:
        """Add the sum over orders of weights[order] * f^(order)(x) to each f.

        weights maps derivative orders (0, 1, 2) to one weight per point or
        one for all.  Point i adds to path paths[i]; by default, point i to
        path i.  A path may take several points.
        """
        x = np.asarray(x, dtype=float)
        at = self._paths[:x.size] if paths is None else np.asarray(paths)
        m = self._x.size - self._n
        if x.size > m:  # fill the buffer, which reduces it, then add the rest
            for part in (slice(m), slice(m, None)):
                self.add(x[part], {o: w[part] if np.ndim(w) else w for o, w in weights.items()},
                         at[part])
            return
        n, end = self._n, self._n + x.size
        self._x[n:end] = x
        self._at[n:end] = at
        for order in range(3):
            self._cols[0, order, n:end] = weights.get(order, 0.0)
        self._orders.update(weights)
        self._n = end
        if end == self._x.size:
            self._flush()

    def _flush(self) -> None:
        """Add the buffered points' terms to the sums and empty the buffer."""
        n, self._n = self._n, 0
        orders, self._orders = self._orders, set()
        if not n:
            return
        x, at, cols = self._x[:n], self._at[:n], self._cols[..., :n]
        # Orders no call weighed would add only zeros to the other members.
        w = cols[0]
        used = [o for o in range(3) if o in orders]
        for i, k in enumerate(self._others):
            f = self._functions[k]
            terms = sum(w[o] * (f.value, f.d1, f.d2)[o](x) for o in used)
            np.add.at(self._other_sums[i], at, terms)
        for run, lo, hi, _, sums, offset in self._ranges:
            inside, cell, tau = run.locate(x, lo, hi)
            kept, first = cols, offset[at]
            if inside.size < n:
                # take, unlike cols[..., inside], keeps the points C-contiguous.
                kept, first = np.take(cols, inside, axis=2), first[inside]
            # kept[q, order] = w[order] * tau**q.
            for q in range(1, 4):
                np.multiply(kept[q - 1], tau, out=kept[q])
            # v[i, p] is point i's term of spline cell - p, in column cell - lo + 3 - p.
            lhs = kept.reshape(12, -1).T
            if lhs.shape[0] == 1:  # matmul would take gemv, which rounds unlike gemm
                v = (np.concatenate([lhs, lhs]) @ run.tau_table)[:1]
            else:
                v = lhs @ run.tau_table
            first += cell
            at_cells = np.empty(v.shape, dtype=np.intp)
            for p in range(4):
                np.subtract(first, p, out=at_cells[:, p])
            np.add.at(sums.reshape(-1), at_cells.ravel(), v.ravel())

    def rows(self) -> np.ndarray:
        """The sums, one row of n_paths per member, in family order."""
        self._flush()
        out = np.empty((len(self._functions), self._paths.size))
        out[self._others] = self._other_sums
        for _, lo, hi, row, sums, _ in self._ranges:
            out[row:row + hi - lo + 1] = sums[:, 3:hi - lo + 4].T
        return out
