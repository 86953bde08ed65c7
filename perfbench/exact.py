"""Exact long-run average cost of (s, S) bands for the inventory problem.

Pure Python, independent of sclp: the benchmark checks sclp's numbers
against these values, so they must not come from sclp itself.

Between orders the inventory is Brownian motion with drift -mu and
volatility sigma, started at S and killed at s.  By renewal-reward
(Bather 1966; Harrison, Sellke & Taylor 1983) the long-run average cost is

    C(s, S) = mu * (v(S) + K + k (S - s)) / (S - s)

with v(y) the expected running cost from y until s is hit:

    v'(y) = (2 / sigma^2) * int_y^inf c0(z) exp(-theta (z - y)) dz,
    v(s) = 0,   theta = 2 mu / sigma^2.

For c0(z) = c_b (kink - z)^+ + c_h (z - kink)^+ both integrals have closed
forms; _antiderivative below is a continuous primitive of v'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class InventoryParams:
    """Parameters of sclp.inventory_problem() with its default arguments."""

    mu: float = 1.0      # demand rate (drift -mu)
    sigma: float = 1.0
    c_b: float = 2.0     # backlog cost slope
    c_h: float = 1.0     # holding cost slope
    kink: float = 0.0
    fixed: float = 1.0   # K, fixed cost per order
    unit: float = 0.5    # k, cost per unit ordered


def _antiderivative(p: InventoryParams, y: float) -> float:
    """A continuous primitive of v'(y), exact for piecewise-linear c0."""
    a = 2.0 / p.sigma ** 2
    th = 2.0 * p.mu / p.sigma ** 2
    z = y - p.kink
    if z < 0.0:
        return a * (-p.c_b * z * z / (2.0 * th) - p.c_b * z / th ** 2
                    + (p.c_b + p.c_h) * math.exp(th * z) / th ** 3)
    at_kink = a * (p.c_b + p.c_h) / th ** 3
    return at_kink + a * p.c_h * (z * z / (2.0 * th) + z / th ** 2)


def band_cost(p: InventoryParams, s: float, big_s: float) -> float:
    """Exact long-run average cost C(s, S) of ordering up to S at s."""
    if not s < big_s:
        raise ValueError("band requires s < S")
    v = _antiderivative(p, big_s) - _antiderivative(p, s)
    width = big_s - s
    return p.mu * (v + p.fixed + p.unit * width) / width


def optimal_band(p: InventoryParams, lo: float = -6.0, hi: float = 4.0
                 ) -> tuple[float, float, float]:
    """Minimize C(s, S) over lo <= s < S <= hi; returns (C*, s*, S*).

    A 41 x 41 scan followed by repeated zooms around the incumbent; C is
    smooth and unimodal near its minimum, so 40 zooms reach machine
    precision in the argmin well beyond what the checks need.
    """
    best = None
    s_lo, s_hi, b_lo, b_hi = lo, hi, lo, hi
    for _ in range(40):
        n = 40
        for i in range(n + 1):
            s = s_lo + (s_hi - s_lo) * i / n
            for j in range(n + 1):
                big_s = b_lo + (b_hi - b_lo) * j / n
                if not lo <= s < big_s <= hi:
                    continue
                c = band_cost(p, s, big_s)
                if best is None or c < best[0]:
                    best = (c, s, big_s)
        ds = (s_hi - s_lo) / 8.0
        db = (b_hi - b_lo) / 8.0
        _, s0, b0 = best
        s_lo, s_hi = max(lo, s0 - ds), min(hi, s0 + ds)
        b_lo, b_hi = max(lo, b0 - db), min(hi, b0 + db)
    return best
