"""Band oracle and band search: pinned estimates, shared paths, memory bound, guards.

tests/data/band_oracle_pins.csv holds every OracleEstimate field (exact
repr) of band_policy_oracle on each band of four cases: the report's
default 8x8 grids, the benchmark's 9-pair slice, a diffusion that depends
on x, and one cycle per band (half-widths nan).  band_search_pins.csv holds
the same fields of band_search's estimates of the same bands, whose cycles
are shared by all bands of one S.
"""
import csv
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from sclp import verify
from sclp.cli import _default_band_grids
from sclp.model import (ControlSpace, CostSpec, Criterion, GeneratorA,
                        GeneratorB, JUMP, LONG_TERM_AVERAGE, ProblemSpec,
                        StateSpace, eval2)
from sclp.problems import inventory_problem
from sclp.verify import (BandPolicy, SimConfig, SimulationError,
                         band_policy_oracle, band_search)

DATA = pathlib.Path(__file__).parent / "data"
ORACLE_PINS, SEARCH_PINS = DATA / "band_oracle_pins.csv", DATA / "band_search_pins.csv"
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


def _pins(path, name):
    """[s, S, *FIELDS] reprs of the case's bands, in lexicographic order."""
    with open(path, newline="") as fh:
        return [row[1:] for row in csv.reader(fh) if row[0] == name]


def _fields(est):
    return [repr(getattr(est, f)) for f in FIELDS]


def _groups(pins):
    """The (S, descending levels) groups of pinned bands, as band_search forms them."""
    levels = {}
    for row in pins:
        levels.setdefault(float(row[1]), []).append(float(row[0]))
    return [(big_s, sorted(ss, reverse=True)) for big_s, ss in sorted(levels.items())]


def _by_band(groups, ests):
    return {(s, big_s): e for (big_s, ss), row in zip(groups, ests) for s, e in zip(ss, row)}


@pytest.mark.parametrize("name", CASES)
def test_band_search_and_oracle_pinned(name):
    p, s_grid, big_grid, cfg = _case(name)
    search, oracle = _pins(SEARCH_PINS, name), _pins(ORACLE_PINS, name)
    res = band_search(p, s_grid, big_grid, cfg)
    assert [[repr(s), repr(S), repr(c), repr(h)] for s, S, c, h in res.table] == \
        [row[:4] for row in search]
    costs = [float(row[2]) for row in search]
    first_min = min(range(len(costs)), key=costs.__getitem__)
    assert (res.best.s, res.best.big_s, res.cost) == \
        tuple(float(v) for v in search[first_min][:3])
    for row in oracle:
        est = band_policy_oracle(p, BandPolicy(float(row[0]), float(row[1])), cfg)
        assert _fields(est) == row[2:]


@pytest.mark.parametrize("pool", [None, 1, 120])
@pytest.mark.parametrize("name", CASES)
def test_batched_estimates_pinned_for_any_pool_size(name, pool, monkeypatch):
    # 1: one group at a time; 120: groups join while others finish.
    if pool is not None:
        monkeypatch.setattr(verify, "_POOL_CYCLES", pool)
    p, _, _, cfg = _case(name)
    oracle = _pins(ORACLE_PINS, name)
    singles = [(float(row[1]), [float(row[0])]) for row in oracle]
    assert [_fields(e) for [e] in verify._band_cycles(p, singles, cfg)] == \
        [row[2:] for row in oracle]
    search = _pins(SEARCH_PINS, name)
    groups = _groups(search)
    ests = _by_band(groups, verify._band_cycles(p, groups, cfg))
    assert [_fields(ests[float(row[0]), float(row[1])]) for row in search] == \
        [row[2:] for row in search]


@pytest.mark.parametrize("name", CASES)
def test_one_level_group_and_lowest_level_are_the_oracle(name):
    # A group's lowest level draws what its band draws alone.
    p, _, _, cfg = _case(name)
    groups = _groups(_pins(SEARCH_PINS, name))
    for (big_s, levels), ests in zip(groups, verify._band_cycles(p, groups, cfg)):
        alone = band_policy_oracle(p, BandPolicy(levels[-1], big_s), cfg)
        [[single]] = verify._band_cycles(p, [(big_s, levels[-1:])], cfg)
        assert _fields(single) == _fields(alone) == _fields(ests[-1])


def test_cycle_means_grow_as_s_falls():
    # Per cycle, a lower level is never crossed before a higher one, and
    # c0 >= 0 and the order cost grows with S - s.
    p, _, _, cfg = _case("report")
    groups = _groups(_pins(SEARCH_PINS, "report"))
    for (_, levels), ests in zip(groups, verify._band_cycles(p, groups, cfg)):
        assert len(levels) > 1
        for field in ("mean_cycle_length", "mean_cycle_cost"):
            means = [getattr(e, field) for e in ests]
            assert all(a <= b for a, b in zip(means, means[1:])), (field, means)


def _group_reference(p, big_s, levels, cfg):
    """One group's estimates, one cycle at a time: the stream and tests
    _band_cycles specifies, with no crossing-probability floor."""
    n, dt = cfg.n_paths, cfg.dt
    drift = -float(eval2(p.gen_a.drift, 0.0, 0.0)) * dt
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x, c, at = [big_s] * n, [0.0] * n, [0] * n  # at: highest uncrossed level
    cost = [[0.0] * n for _ in levels]
    step = [[0] * n for _ in levels]
    live, k = list(range(n)), 0
    while live:
        z = rng.standard_normal(len(live))
        sig = {i: float(eval2(p.gen_a.diffusion, np.array([x[i]]), np.zeros(1))[0])
               for i in live}
        x1 = {i: (sig[i] * math.sqrt(dt)) * zi + (x[i] - drift) for i, zi in zip(live, z)}
        for i in live:
            c[i] += float(eval2(p.costs.c0, np.array([x[i]]), np.zeros(1))[0]) * dt
        up = [i for i in live if x1[i] > levels[-1]]
        r = dict(zip(up, rng.random(len(up))))
        k += 1
        for i in live:
            while at[i] < len(levels):
                s = levels[at[i]]
                if x1[i] > s:
                    log_p = (-2.0 * (x[i] - s) * (x1[i] - s)) / (sig[i] * sig[i] * dt)
                    if not r[i] < math.exp(log_p):
                        break
                cost[at[i]][i], step[at[i]][i] = c[i], k
                at[i] += 1
            x[i] = x1[i]
        live = [i for i in live if at[i] < len(levels)]
    t = np.cumsum(np.full(k, dt))
    return [verify._band_estimate(
        np.array(cost[j]) + float(eval2(p.costs.c1, np.array(s), np.array(big_s - s))),
        t[np.array(step[j]) - 1]) for j, s in enumerate(levels)]


@pytest.mark.parametrize("name", ["x_diffusion", "close_levels"])
def test_group_matches_a_cycle_by_cycle_reference(name):
    # close_levels: a coarse step crosses several close levels at once, and
    # a repeated level is crossed on the step its twin is.
    if name == "close_levels":
        p, cfg = inventory_problem(), SimConfig(dt=0.05, horizon=10.0, n_paths=30, seed=7)
        groups = [(0.5, [-0.9, -0.95, -1.0, -1.0, -1.02])]
    else:
        p, _, _, cfg = _case(name)
        groups = _groups(_pins(SEARCH_PINS, name))
    for group, ests in zip(groups, verify._band_cycles(p, groups, cfg)):
        assert [_fields(e) for e in ests] == \
            [_fields(e) for e in _group_reference(p, *group, cfg)]


def _search_peak(k, cfg):
    """tracemalloc peak (bytes) of band_search over a k x k grid of pairs."""
    s_grid, big_grid = np.linspace(-1.6, -0.6, k), np.linspace(0.4, 1.4, k)
    tracemalloc.start()
    try:
        band_search(inventory_problem(), s_grid, big_grid, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_band_search_memory_does_not_grow_with_the_pair_count():
    # At 1024 cycles, 4 pairs already fill the default 4096 live cycles, so
    # 36 pairs may only queue.  Holding every cycle at once would step 9
    # times as many (a peak of several MB).  Measured peaks, 4 and 36 pairs
    # (numpy 2.4, Python 3.11): 530 and 559 KiB with the earlier pool of 14
    # preallocated buffers; 662 and 686 KiB with the flat live arrays.
    cfg = SimConfig(dt=0.05, horizon=10.0, n_paths=1024, seed=0)
    band_search(inventory_problem(), [-1.0], [1.0],
                SimConfig(dt=0.05, horizon=10.0, n_paths=8, seed=0))  # warm-up
    few, many = _search_peak(2, cfg), _search_peak(6, cfg)
    assert many < 1.25 * few, (few, many)


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
