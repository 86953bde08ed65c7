"""Band oracle and band search: pinned estimates, one step loop, guards.

tests/data/band_oracle_pins.csv holds every OracleEstimate field (exact
repr) of each band of four cases, as the one-band-at-a-time loop computed
them: the report's default 8x8 grids, the benchmark's 9-pair slice, a
diffusion that depends on x, and one cycle per band (half-widths nan).
"""
import csv
import pathlib

import numpy as np
import pytest

from sclp import verify
from sclp.cli import _default_band_grids
from sclp.model import (ControlSpace, CostSpec, Criterion, GeneratorA,
                        GeneratorB, JUMP, LONG_TERM_AVERAGE, ProblemSpec,
                        StateSpace)
from sclp.problems import inventory_problem
from sclp.verify import (BandPolicy, SimConfig, SimulationError,
                         band_policy_oracle, band_search)

PINS = pathlib.Path(__file__).parent / "data" / "band_oracle_pins.csv"
FIELDS = ("cost", "half_width", "mean_cycle_length", "cycle_length_half_width",
          "mean_cycle_cost", "n_cycles")
CASES = ("report", "sim_long", "x_diffusion", "one_cycle")


def _band_problem(diffusion):
    """Inventory-shaped toy on [-2, 2]: drift -1, jumps d(x, u) = u."""
    return ProblemSpec(
        state=StateSpace(-2.0, 2.0),
        control=ControlSpace(0.0, 1.0),
        gen_a=GeneratorA(drift=lambda x, u: np.full_like(np.asarray(x, float), -1.0),
                         diffusion=diffusion),
        gen_b=GeneratorB(kind=JUMP, displacement=lambda x, u: u),
        costs=CostSpec(c0=lambda x, u: 2.0 * np.maximum(-x, 0.0) + np.maximum(x, 0.0),
                       c1=lambda x, u: 1.0 + 0.5 * np.asarray(u, float)),
        criterion=Criterion(kind=LONG_TERM_AVERAGE),
        name="band toy")


def _case(name):
    """(problem, s grid, S grid, config) of a pinned case."""
    inv = inventory_problem()
    if name == "report":
        s_grid, big_grid = _default_band_grids(inv)
        return inv, s_grid, big_grid, SimConfig(dt=0.02, horizon=20.0, n_paths=64, seed=3)
    if name == "sim_long":
        return (inv, [-1.4, -1.1, -0.8], [0.5, 0.8, 1.1],
                SimConfig(dt=0.01, horizon=10.0, n_paths=50, seed=0))
    if name == "x_diffusion":
        p = _band_problem(lambda x, u: 0.5 + 0.1 * np.asarray(x, float) ** 2)
        return p, [-1.0, -0.5], [0.5, 1.0], SimConfig(dt=0.01, horizon=10.0, n_paths=40, seed=5)
    assert name == "one_cycle"
    return inv, [-1.0, -0.5], [0.5, 1.0], SimConfig(dt=0.01, horizon=10.0, n_paths=1, seed=2)


def _pins(name):
    """[s, S, *FIELDS] reprs of the case's bands, in lexicographic order."""
    with open(PINS, newline="") as fh:
        return [row[1:] for row in csv.reader(fh) if row[0] == name]


def _fields(est):
    return [repr(getattr(est, f)) for f in FIELDS]


@pytest.mark.parametrize("name", CASES)
def test_band_search_and_oracle_pinned(name):
    p, s_grid, big_grid, cfg = _case(name)
    pins = _pins(name)
    res = band_search(p, s_grid, big_grid, cfg)
    assert [[repr(s), repr(S), repr(c), repr(h)] for s, S, c, h in res.table] == \
        [row[:4] for row in pins]
    costs = [float(row[2]) for row in pins]
    first_min = min(range(len(costs)), key=costs.__getitem__)
    assert (res.best.s, res.best.big_s, res.cost) == \
        tuple(float(v) for v in pins[first_min][:3])
    for (s, S, c, h), row in zip(res.table, pins):
        est = band_policy_oracle(p, BandPolicy(s, S), cfg)
        assert _fields(est) == row[2:]
        assert repr((est.cost, est.half_width)) == repr((c, h))


@pytest.mark.parametrize("pool", [None, 1, 120])
@pytest.mark.parametrize("name", CASES)
def test_batched_estimates_pinned_for_any_pool_size(name, pool, monkeypatch):
    # 1: one band at a time; 120: bands join while others finish.
    if pool is not None:
        monkeypatch.setattr(verify, "_POOL_CYCLES", pool)
    p, _, _, cfg = _case(name)
    pins = _pins(name)
    bands = [BandPolicy(float(row[0]), float(row[1])) for row in pins]
    assert [_fields(e) for e in verify._band_cycles(p, bands, cfg)] == \
        [row[2:] for row in pins]


def test_band_search_rejects_a_pair_outside_the_interval():
    cfg = SimConfig(dt=0.01, horizon=10.0, n_paths=4, seed=0)
    with pytest.raises(ValueError, match="state interval"):
        band_search(inventory_problem(), [-1.0], [0.5, 5.0], cfg)  # x_hi = 4


def test_cycles_that_never_end_raise():
    p = _band_problem(lambda x, u: np.full_like(np.asarray(x, float), np.nan))
    cfg = SimConfig(dt=0.1, horizon=10.0, n_paths=3, seed=0)  # ~10k steps
    with pytest.raises(SimulationError, match="did not terminate"):
        band_policy_oracle(p, BandPolicy(-1.0, 0.5), cfg)
    with pytest.raises(SimulationError, match="did not terminate"):
        band_search(p, [-1.0], [0.5, 1.0], cfg)
