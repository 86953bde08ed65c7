"""PathSums: martingale sums on each point's four local spline pieces."""
import numpy as np
import pytest

from sclp import basis
from sclp.basis import _TAU, BasisFamily, C2Function, PathSums, constant_one
from sclp.discretize import assemble_discounted_lp, assemble_lta_lp
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.verify import SimConfig, simulate

from test_basis import _PIECES
from test_verify import _lp_policy, _wrapped


def test_tau_table_is_the_pieces_in_the_cell_offset():
    # tau = k/256 keeps p + tau and _PIECES' own arithmetic exact, so the
    # comparison measures the table alone; elsewhere _PIECES cancels in
    # 9 s^2 - 48 s + 60 and is off by up to 8e-15 itself.
    tau = np.arange(257) / 256.0
    powers = tau[:, None] ** np.arange(4)
    for order in range(3):
        for p in range(4):
            want = _PIECES[order][p](p + tau)
            got = powers @ _TAU[order, :, p]
            assert np.max(np.abs(got - want)) <= 1e-15, (order, p)
            assert got[0] == want[0], (order, p)


def _dense_sums(fam, x, weights, paths, n_paths):
    """The same sums from BasisFamily.evaluate, one member row at a time."""
    orders = tuple(weights)
    rows = fam.evaluate(x, orders)
    out = np.zeros((len(fam), n_paths))
    for order, r in zip(orders, rows):
        for k in range(len(fam)):
            np.add.at(out[k], paths, np.broadcast_to(weights[order], x.shape) * r[k])
    return out


def test_add_matches_dense_evaluation_with_repeats_and_points_off_the_span():
    # A run over [-2, 2] and the constant; points on [-3, 3] (a third off
    # the span), every knot exactly, and paths that take several points.
    fam = BasisFamily.cubic_on_interval(-2.0, 2.0, 7)
    rng = np.random.default_rng(4)
    knots = -2.0 + np.arange(11) * 0.4
    x = np.concatenate([rng.uniform(-3.0, 3.0, 60), knots])
    paths = rng.integers(0, 9, x.size)
    sums = PathSums(fam, 9)
    want = np.zeros((len(fam), 9))
    for weights in ({0: -1.0}, {1: rng.normal(size=x.size), 2: rng.normal(size=x.size)},
                    {0: rng.normal(size=x.size), 1: 0.5, 2: rng.normal(size=x.size)}):
        sums.add(x, weights, paths)
        want += _dense_sums(fam, x, weights, paths, 9)
    assert np.max(np.abs(sums.rows() - want)) <= 1e-12
    # Only points off the span: nothing is added to any spline.
    off = PathSums(fam, 2)
    off.add(np.array([-2.5, 2.25, 3.0]), {0: 1.0, 1: 1.0, 2: 1.0}, np.array([0, 1, 1]))
    assert off.rows()[:-1].tolist() == np.zeros((7, 2)).tolist()
    assert off.rows()[-1].tolist() == [1.0, 2.0]


@pytest.mark.parametrize("kind", ["jump", "gradient"])
def test_a_run_on_part_of_the_interval_matches_dense_residuals(kind):
    # Inventory's jump targets pass x = 2, off the run's span; finite fuel
    # reflects inside [-0.8, 0.8], so its outer splines are never reached.
    if kind == "jump":
        p = inventory_problem()
        pol, _ = _lp_policy(p, 21, 5, 8, assemble_lta_lp)
        cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=32, seed=5, burn_in=0.5)
    else:
        p = finite_fuel_problem()
        pol, _ = _lp_policy(p, 41, 11, 12, assemble_discounted_lp)
        cfg = SimConfig(dt=0.05, horizon=10.0, n_paths=32, seed=2)
    fam = BasisFamily.cubic_on_interval(-2.0, 2.0, 12)
    fast = simulate(p, pol, cfg, basis=fam).martingale_residuals
    slow = simulate(p, pol, cfg, basis=_wrapped(fam)).martingale_residuals
    for f, s in zip(fast, slow):
        assert f.name == s.name
        assert abs(f.value - s.value) <= 1e-12 and abs(f.half_width - s.half_width) <= 1e-12
        assert (f.value == 0.0) == (s.value == 0.0), (f, s)
    unreached = [f.name for f in fast if f.value == 0.0 and f.half_width == 0.0]
    if kind == "gradient":
        assert unreached == ["mart[bspl000]", "mart[bspl011]", "mart[1]"]
    assert fast[-1].name == "mart[1]" and fast[-1].value == 0.0


def test_non_spline_members_are_summed_as_in_the_dense_run():
    p = inventory_problem()
    pol, fam = _lp_policy(p, 21, 5, 8, assemble_lta_lp)
    bump = C2Function(lambda x: np.exp(-x * x), lambda x: -2.0 * x * np.exp(-x * x),
                      lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x), name="bump")
    mixed = BasisFamily(fam.functions[:-1] + (bump, constant_one()))
    cfg = SimConfig(dt=0.01, horizon=3.0, n_paths=32, seed=5, burn_in=0.5)
    fast = simulate(p, pol, cfg, basis=mixed).martingale_residuals
    slow = simulate(p, pol, cfg, basis=_wrapped(mixed)).martingale_residuals
    assert [f.name for f in fast[-2:]] == ["mart[bump]", "mart[1]"]
    assert fast[-2:] == slow[-2:]
    assert fast[-2].value != 0.0 and fast[-1].value == 0.0


def _bump():
    return C2Function(lambda x: np.exp(-x * x), lambda x: -2.0 * x * np.exp(-x * x),
                      lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x), name="bump")


def _calls(n_paths, n_steps=40, seed=8):
    """add calls in simulate's pattern, on points of [-3, 3] (a run on
    [-2, 2] leaves a third of them off its span): the start, per step a
    generator call on every path, pushes on 0, 1 or more paths and jumps
    that put two points on a path, then the finish."""
    rng = np.random.default_rng(seed)
    calls = [(rng.uniform(-1.0, 1.0, n_paths), {0: -1.0}, None)]
    for _ in range(n_steps):
        calls.append((rng.uniform(-3.0, 3.0, n_paths),
                      {1: rng.normal(size=n_paths), 2: rng.normal(size=n_paths)}, None))
        sub = np.flatnonzero(rng.random(n_paths) < 0.15)
        calls.append((rng.uniform(-3.0, 3.0, sub.size), {1: rng.normal(size=sub.size)}, sub))
        sub = np.flatnonzero(rng.random(n_paths) < 0.15)
        calls.append((rng.uniform(-3.0, 3.0, 2 * sub.size),
                      {0: np.repeat([1.0, -1.0], sub.size)}, np.tile(sub, 2)))
    calls.append((rng.uniform(-3.0, 3.0, n_paths), {0: 1.0}, None))
    return calls


def _summed(fam, calls, n_paths):
    sums = PathSums(fam, n_paths)
    for x, weights, paths in calls:
        sums.add(x, weights, paths)
    return sums.rows()


def _mixed_family():
    """A run on [-2, 2], a second run of other spacing, a bump and 1."""
    fam = BasisFamily.cubic_on_interval(-2.0, 2.0, 7)
    other = BasisFamily.cubic_on_interval(-1.0, 2.5, 4)
    return BasisFamily(fam.functions[:-1] + other.functions[:-1] + (_bump(), constant_one()))


@pytest.mark.parametrize("block", [1, 7])
def test_rows_do_not_depend_on_the_buffer_size(monkeypatch, block):
    # With 1 point every call, one-point pushes too, is reduced on its own;
    # with 7 the 9-path calls are, and the smaller ones share blocks.
    fam = _mixed_family()
    calls = _calls(9)
    want = _summed(fam, calls, 9)
    monkeypatch.setattr(basis, "_BLOCK", block)
    assert _summed(fam, calls, 9).tobytes() == want.tobytes()


def test_one_point_per_call_gives_the_same_rows():
    fam = _mixed_family()
    calls = _calls(9)
    split = []
    for x, weights, paths in calls:
        at = np.arange(x.size) if paths is None else paths
        for i in range(x.size):
            split.append((x[i:i + 1], {o: np.broadcast_to(w, x.shape)[i:i + 1]
                                       for o, w in weights.items()}, at[i:i + 1]))
    assert _summed(fam, split, 9).tobytes() == _summed(fam, calls, 9).tobytes()


def test_calls_past_the_buffer_and_blocks_off_the_span_match_dense(monkeypatch):
    # With a buffer of 7 points the 9-path and 20-point calls exceed it, and
    # the blocks of pushes and jumps hold points off the run's span.
    monkeypatch.setattr(basis, "_BLOCK", 7)
    fam = _mixed_family()
    rng = np.random.default_rng(5)
    calls = _calls(9) + [(rng.uniform(-3.0, 3.0, 20), {0: rng.normal(size=20)},
                          rng.integers(0, 9, 20))]
    want = np.zeros((len(fam), 9))
    for x, weights, paths in calls:
        want += _dense_sums(fam, x, weights, np.arange(x.size) if paths is None else paths, 9)
    assert np.max(np.abs(_summed(fam, calls, 9) - want)) <= 1e-12


def test_irregular_families_sum_as_the_plain_family():
    # Reversed, with a gap and the constant between splines, with a repeated
    # member, and with a second run inside the first: each row is the plain
    # family's row of the same member, byte for byte.
    plain = BasisFamily.cubic_on_interval(-2.0, 2.0, 7)
    other = BasisFamily.cubic_on_interval(-1.0, 2.5, 4)
    calls = _calls(9)
    want = {}
    for fam in (plain, other):
        for f, row in zip(fam.functions[:-1], _summed(fam, calls, 9)):
            want[id(f)] = row.tobytes()
    s, one, o = plain.functions[:-1], plain.functions[-1], other.functions[:-1]
    want[id(one)] = _summed(plain, calls, 9)[-1].tobytes()
    for members in (s[::-1] + (one,), s[1:3] + (one,) + s[4:6], s[2:5] + (s[3],) + s[5:],
                    s[:3] + o[1:] + (one,) + s[3:]):
        rows = _summed(BasisFamily(members), calls, 9)
        assert [r.tobytes() for r in rows] == [want[id(f)] for f in members]
