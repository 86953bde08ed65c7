"""Correctness checks on sclp's outputs, computed from public fields only.

Every check compares against an independent reference (an exact formula,
a certificate, or a second computation); none compares against a stored
copy of earlier output.  Failures are collected, not raised, so one run
reports every broken check.
"""
from __future__ import annotations

import math
import re

import numpy as np

# Family-wise false-alarm rate of each statistical check: one spurious
# failure in about a million passes, over all estimates the check covers.
FAMILY_ALPHA = 1e-6


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


def _normal_upper_quantile(p: float) -> float:
    """z with P(Z > z) = p for a standard normal Z (bisection on erfc)."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return hi


def family_critical(m: int, n: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided Bonferroni critical value for m t-statistics on n samples.

    The normal quantile is corrected to Student's t with n - 1 degrees of
    freedom by the Cornish-Fisher expansion (accurate far into the tail for
    the sample sizes used here).
    """
    z = _normal_upper_quantile(alpha / (2.0 * max(m, 1)))
    nu = max(n - 1, 1)
    return (z + (z ** 3 + z) / (4.0 * nu)
            + (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96.0 * nu ** 2))


def standard_error(half_width: float) -> float:
    """sclp reports 95% half-widths, 1.96 standard errors."""
    return half_width / 1.96


def lp_certificate(chk: Checks, lp, sol, label: str):
    """Primal feasibility, dual feasibility and zero duality gap.

    Reduced costs are judged relative to the magnitude of the terms that
    cancel in c - A^T y, at the solver's own tolerance of 1e-9.
    """
    w = sol.weights
    chk.require(sol.status == "optimal", f"{label}: status {sol.status}")
    chk.require(bool(np.all(w >= 0.0)), f"{label}: negative weight")
    eq = float(np.abs(lp.a_eq @ w - lp.b_eq).max()) if lp.b_eq.size else 0.0
    chk.require(eq <= 1e-8, f"{label}: equality residual {eq!r} > 1e-8")
    if lp.b_ub.size:
        ub = float((lp.a_ub @ w - lp.b_ub).max())
        chk.require(ub <= 1e-8, f"{label}: budget row violated by {ub!r}")
        chk.require(bool(np.all(sol.dual_ub <= 1e-9)),
                    f"{label}: inequality dual of the wrong sign")
    y_eq, y_ub = sol.dual_eq, sol.dual_ub
    reduced = lp.c - lp.a_eq.T @ y_eq - lp.a_ub.T @ y_ub
    scale = (np.abs(lp.c) + np.abs(lp.a_eq).T @ np.abs(y_eq)
             + np.abs(lp.a_ub).T @ np.abs(y_ub))
    worst = float((reduced + 1e-9 * scale).min())
    chk.require(worst >= 0.0, f"{label}: reduced cost below -1e-9*scale by {worst!r}")
    primal = float(lp.c @ w)
    dual = float(lp.b_eq @ y_eq + lp.b_ub @ y_ub)
    gap = abs(primal - dual)
    chk.require(gap <= 1e-8 * (1.0 + abs(primal)),
                f"{label}: duality gap {gap!r}")
    chk.require(abs(primal - sol.objective) <= 1e-12 * (1.0 + abs(primal)),
                f"{label}: objective {sol.objective!r} is not c.w = {primal!r}")
    return eq


def same_lp(a, b) -> bool:
    """Every coefficient, bound, size and label identical."""
    return (a.n0 == b.n0 and a.n1 == b.n1
            and tuple(a.eq_labels) == tuple(b.eq_labels)
            and tuple(a.ub_labels) == tuple(b.ub_labels)
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("c", "a_eq", "b_eq", "a_ub", "b_ub")))


def non_increasing(values, rel: float = 1e-9) -> bool:
    return all(values[i + 1] <= values[i] + rel * abs(values[i])
               for i in range(len(values) - 1))


def covers(chk: Checks, estimates, exact_values, n: int, label: str):
    """Each (value, half_width) lies within a family-wise bound of its exact value."""
    crit = family_critical(len(estimates), n)
    for (value, half), truth in zip(estimates, exact_values):
        se = standard_error(half)
        chk.require(se > 0 and abs(value - truth) <= crit * se,
                    f"{label}: {value!r} +/- {half!r} misses exact {truth!r} "
                    f"at the family-wise bound {crit:.2f} SE")


_ESTIMATE = re.compile(r"^(\S+): (\S+) \+/- (\S+) \(n=(\d+)\)$", re.M)


def parse_estimates(text: str) -> dict[str, tuple[float, float, int]]:
    """name -> (value, half_width, n) from a report's estimate lines."""
    return {m.group(1): (float(m.group(2)), float(m.group(3)), int(m.group(4)))
            for m in _ESTIMATE.finditer(text)}


def parse_field(text: str, pattern: str):
    m = re.search(pattern, text, re.M)
    return m.group(1) if m else None


def martingale(chk: Checks, residuals: dict[str, tuple[float, float, int]],
               label: str):
    """Constant test function exactly 0; the rest within a family-wise bound.

    A residual with zero half-width belongs to a test function no path
    reached; it must then be exactly zero as well.
    """
    const = residuals.get("mart[1]")
    chk.require(const is not None and const[0] == 0.0 and const[1] == 0.0,
                f"{label}: constant test function residual {const!r} is not exactly 0")
    others = {k: v for k, v in residuals.items() if k != "mart[1]"}
    chk.require(len(others) > 0, f"{label}: no martingale residuals")
    if not others:
        return
    n = next(iter(others.values()))[2]
    crit = family_critical(len(others), n)
    for name, (value, half, _) in others.items():
        se = standard_error(half)
        ok = value == 0.0 if se == 0.0 else abs(value) <= crit * se
        chk.require(ok, f"{label}: {name} = {value!r} +/- {half!r} beyond "
                        f"the family-wise bound {crit:.2f} SE")
