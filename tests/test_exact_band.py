"""exact_band_cost and exact_optimal_band: the renewal-reward band oracle.

Checked against a closed form written out here, against the optimum over
all bands, against identities that hold for any diffusion, and against the
Monte Carlo band_policy_oracle, whose confidence intervals must cover the
exact values, also where the diffusion depends on x.
"""
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from sclp import verify
from sclp.cli import _band_box, _default_band_grids
from sclp.model import CostSpec, GeneratorA, ProblemSpec
from sclp.problems import finite_fuel_problem, inventory_problem, load_problem
from sclp.verify import (BandPolicy, OracleNotApplicable, SimConfig, band_policy_oracle,
                         exact_band_cost, exact_optimal_band)
from test_cli import INVENTORY_INI

C_STAR = 1.8136700700  # the inventory optimum over all bands
BAND_STAR = (-1.0683, 0.8137)


def closed_form(s, big_s, mu=1.0, sigma=1.0, c_b=2.0, c_h=1.0, k1=1.0, k2=0.5):
    """C(s, S) of the built-in inventory problem, from v(y) = E[cost until s].

    With theta = 2 mu / sigma^2, v' solves v'' = theta v' - 2 c0 / sigma^2;
    for c0 = c_b x^- + c_h x^+ its bounded solution is, for y >= 0,
    (2 c_h / sigma^2) (y / theta + 1 / theta^2), and for y < 0,
    (2 / sigma^2) (c_b (e^{theta y} - 1 - theta y) + c_h e^{theta y}) / theta^2.
    """
    th, a = 2.0 * mu / sigma ** 2, 2.0 / sigma ** 2

    def v(y):  # a primitive of v'
        if y >= 0.0:
            return a * ((c_b + c_h) / th ** 3 + c_h * (y * y / (2.0 * th) + y / th ** 2))
        return a * (c_b * (math.exp(th * y) / th ** 3 - y * y / (2.0 * th) - y / th ** 2)
                    + c_h * math.exp(th * y) / th ** 3)

    return mu * (v(big_s) - v(s) + k1 + k2 * (big_s - s)) / (big_s - s)


def report_bands():
    s_grid, big_grid = _default_band_grids(inventory_problem())
    return [BandPolicy(float(s), float(S)) for s in s_grid for S in big_grid if s < S]


def test_matches_the_closed_form_at_the_report_bands():
    bands = report_bands()
    assert len(bands) == 56
    for est in exact_band_cost(inventory_problem(), bands):
        err = abs(est.cost - closed_form(est.band.s, est.band.big_s))
        assert err <= est.half_width and err <= 1e-7, (est, err)


def test_optimal_band_is_the_inventory_optimum():
    best = exact_optimal_band(inventory_problem(), *_band_box(inventory_problem()))
    assert abs(best.cost - C_STAR) <= 1e-5
    assert abs(best.band.s - BAND_STAR[0]) <= 0.02
    assert abs(best.band.big_s - BAND_STAR[1]) <= 0.02
    # A band's own cost, which no band undercuts.
    assert best.cost >= C_STAR - best.half_width - 1e-12
    assert abs(best.cost - closed_form(best.band.s, best.band.big_s)) <= 1e-12


def test_optimal_band_takes_a_few_milliseconds():
    p = inventory_problem()
    box = _band_box(p)
    exact_optimal_band(p, *box)
    t0 = time.perf_counter()
    for _ in range(5):
        exact_optimal_band(p, *box)
    assert (time.perf_counter() - t0) / 5 < 0.1  # 4 ms on a 2-vCPU VM


def test_identities_hold_for_any_diffusion():
    # c0 = 1 costs 1 per unit time; an order costing 3 comes every
    # (S - s) / mu_d on average.  Neither depends on the diffusion, but with
    # sigma varying the quadrature is no longer exact.
    inv = inventory_problem(mu_d=2.0)
    for diffusion in (lambda x, u: 1.0, lambda x, u: 1.0 + 0.3 * np.tanh(x)):
        flat = ProblemSpec(state=inv.state, control=inv.control,
                           gen_a=GeneratorA(drift=inv.gen_a.drift, diffusion=diffusion),
                           gen_b=inv.gen_b, criterion=inv.criterion,
                           costs=CostSpec(c0=lambda x, u: 1.0, c1=lambda x, u: 3.0))
        for est in exact_band_cost(flat, [BandPolicy(-1.0, 0.5), BandPolicy(-4.0, 2.0)]):
            width = est.band.big_s - est.band.s
            err = abs(est.cost - (1.0 + 3.0 * 2.0 / width))
            assert err <= est.half_width + 1e-12 and err <= 1e-6, (est, err)


def _sigma_problem(tmp_path, sigma):
    """The inventory INI with diffusion = sigma."""
    path = tmp_path / "sigma.ini"
    path.write_text(INVENTORY_INI.replace("diffusion = constant 1", f"diffusion = {sigma}"))
    return load_problem(str(path))


# sim-long's bands: the 41x11/12 policy's band, the optimum and a wide band.
SIM_LONG_BANDS = [BandPolicy(-1.0, 0.6), BandPolicy(*BAND_STAR), BandPolicy(-2.0, 2.0)]
LINEAR_SIGMA = "linear 1 0.05 0"  # 0.7 to 1.2 on [-6, 4]


def test_error_estimate_covers_a_finer_mesh(tmp_path, monkeypatch):
    # Off the closed form's domain, the estimate covers the value on a mesh
    # 8 times finer.
    p = _sigma_problem(tmp_path, LINEAR_SIGMA)
    coarse = exact_band_cost(p, SIM_LONG_BANDS)
    monkeypatch.setattr(verify, "_MESH_CELLS", 8 * verify._MESH_CELLS)
    for est, fine in zip(coarse, exact_band_cost(p, SIM_LONG_BANDS)):
        assert abs(est.cost - fine.cost) <= est.half_width <= 1e-5, (est, fine)


def family_critical(m, alpha=1e-6):
    """Two-sided Bonferroni normal critical value for m estimates."""
    return NormalDist().inv_cdf(1.0 - alpha / (2 * m))


def test_monte_carlo_oracle_covers_the_exact_costs(tmp_path):
    # sim-long's bands at its oracle settings, on the built-in inventory and
    # with an x-dependent diffusion; one family-wise bound over all six.
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=4000, seed=0)
    pairs = []
    for p in (inventory_problem(), _sigma_problem(tmp_path, LINEAR_SIGMA)):
        for band, exact in zip(SIM_LONG_BANDS, exact_band_cost(p, SIM_LONG_BANDS)):
            pairs.append((band_policy_oracle(p, band, cfg), exact))
    crit = family_critical(len(pairs))
    for mc, exact in pairs:
        assert abs(mc.cost - exact.cost) <= crit * mc.half_width / 1.96, (mc, exact)
    # The diffusion moves the exact cost by far more than the quadrature error.
    assert pairs[3][1].cost - pairs[0][1].cost > 0.02


def test_preconditions_match_the_monte_carlo_oracle():
    inv = inventory_problem()
    sloped = ProblemSpec(state=inv.state, control=inv.control,
                         gen_a=GeneratorA(drift=lambda x, u: -1.0 - 0.1 * x,
                                          diffusion=inv.gen_a.diffusion),
                         gen_b=inv.gen_b, costs=inv.costs, criterion=inv.criterion)
    band = BandPolicy(-1.0, 0.5)
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=4, seed=0)
    for p in (sloped, finite_fuel_problem()):
        with pytest.raises(OracleNotApplicable) as mc:
            band_policy_oracle(p, band, cfg)
        with pytest.raises(OracleNotApplicable) as ex:
            exact_band_cost(p, [band])
        assert str(ex.value) == str(mc.value)
    with pytest.raises(ValueError, match="state interval"):
        exact_band_cost(inv, [BandPolicy(-1.0, 5.0)])
    with pytest.raises(ValueError, match="state interval"):
        exact_optimal_band(inv, (-7.0, -1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="s < S"):
        exact_optimal_band(inv, (1.0, 2.0), (-1.0, 0.5))


@pytest.mark.parametrize("diffusion, message", [
    (lambda x, u: 0.0, "positive finite diffusion"),
    # theta = 2 / (1 + x^2)^2 integrates to less than the tail's damping.
    (lambda x, u: 1.0 + np.asarray(x) ** 2, "damp the renewal ODE")])
def test_diffusions_the_ode_cannot_take_are_not_applicable(diffusion, message):
    inv = inventory_problem()
    p = ProblemSpec(state=inv.state, control=inv.control,
                    gen_a=GeneratorA(drift=inv.gen_a.drift, diffusion=diffusion),
                    gen_b=inv.gen_b, costs=inv.costs, criterion=inv.criterion)
    with pytest.raises(OracleNotApplicable, match=message):
        exact_band_cost(p, [BandPolicy(-1.0, 0.5)])
