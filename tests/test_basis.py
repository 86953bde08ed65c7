import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sclp.basis import (_TAU, BasisFamily, C2Function, CubicBSpline, _SplineRun,
                        constant_one)

# An independent reference for _TAU: the cardinal cubic B-spline N(s) on
# [0, 4] as polynomials in s.  _PIECES[order][p] is the order-th derivative
# of N on [p, p + 1].
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


def test_constant_one():
    f = constant_one()
    x = np.linspace(-5, 5, 11)
    assert np.all(f.value(x) == 1.0)
    assert np.all(f.d1(x) == 0.0)
    assert np.all(f.d2(x) == 0.0)


def test_spline_compact_support():
    f = CubicBSpline(t0=1.0, h=0.5)
    assert f.support == (1.0, 3.0)
    x = np.array([0.9, 1.0, 3.0, 3.1])
    v = f.value(x)
    assert v[0] == 0.0 and v[3] == 0.0
    assert f.value(np.array([2.0]))[0] == pytest.approx(2.0 / 3.0)


def test_spline_nonnegative_and_smooth_at_knots():
    f = CubicBSpline(t0=0.0, h=1.0)
    x = np.linspace(-1, 5, 601)
    assert np.all(f.value(x) >= 0.0)
    # C^2: value/d1/d2 continuous across every interior knot.
    for knot in (1.0, 2.0, 3.0):
        eps = 1e-9
        for deriv in (f.value, f.d1, f.d2):
            left = deriv(np.array([knot - eps]))[0]
            right = deriv(np.array([knot + eps]))[0]
            assert abs(left - right) < 1e-6


@pytest.mark.parametrize("order", [0, 1, 2])
def test_cardinal_takes_each_piece_on_its_own_interval(order):
    # Reference: every piece at every point, by Horner's rule in tau = s - p,
    # then one chosen per point, on the half-open intervals [p, p + 1) of the
    # knot cells; values are clamped at 0.
    f = CubicBSpline(0.0, 1.0)
    knots = np.arange(-1.0, 6.0)
    s = np.concatenate([np.random.default_rng(order).uniform(-1.0, 5.0, 5000), knots,
                        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                        [-0.0]])
    cells = [(p <= s) & (s < p + 1.0) for p in range(4)]
    a = _TAU[order]
    want = np.select(cells, [((a[3, p] * (s - p) + a[2, p]) * (s - p) + a[1, p]) * (s - p)
                             + a[0, p] for p in range(4)], default=0.0)
    if order == 0:
        want = np.maximum(want, 0.0)
    got = (f.value, f.d1, f.d2)[order](s)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert (f.value, f.d1, f.d2)[order](np.asarray(4.0)).shape == ()
    # The pieces in s, an independent reference, agree within one ulp of
    # their largest intermediate, 24 s**2 = 216 at s = 3 in piece 2 before
    # the division by 6 (the worst difference seen is 8.6e-15).
    in_s = np.select(cells, [piece(s) for piece in _PIECES[order]], default=0.0)
    assert np.max(np.abs(got - in_s)) <= np.spacing(216.0)


def test_no_spline_value_is_negative():
    # Next to a knot cell's end a piece that vanishes there cancels to
    # round-off, which can fall below 0 (by up to 3e-17); values are
    # clamped.  Points within 1e-16 to 1e-5 knot spacings of every knot,
    # on both sides, reach that round-off.
    fam = BasisFamily.cubic_on_interval(-6.0, 4.0, 50)
    run = fam.functions[0].run
    knots = run.t0 + run.h * np.arange(54)
    near = run.h * np.logspace(-16, -5, 200)
    x = np.concatenate([np.random.default_rng(0).uniform(-6.0, 4.0, 200_000), knots,
                        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                        (knots[:, None] - near).ravel(), (knots[:, None] + near).ravel()])
    assert fam.evaluate(x, (0,))[0].min() >= 0.0
    assert min(f.value(x).min() for f in fam.functions) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.5, 4.5), st.floats(0.1, 3.0), st.floats(-3.0, 3.0))
def test_derivatives_match_finite_differences(s, h, t0):
    f = CubicBSpline(t0=t0, h=h)
    x = t0 + s * h
    eps = 1e-6 * h
    num_d1 = (f.value(x + eps) - f.value(x - eps)) / (2 * eps)
    assert float(f.d1(x)) == pytest.approx(float(num_d1), abs=1e-4 / h)
    # Wider step for the second difference to avoid rounding cancellation.
    eps = 1e-4 * h
    num_d2 = (f.value(x + eps) - 2 * f.value(x) + f.value(x - eps)) / eps ** 2
    assert float(f.d2(x)) == pytest.approx(float(num_d2), abs=1e-2 / h ** 2)


def test_partition_of_unity_in_interior():
    splines = BasisFamily.cubic_on_interval(0.0, 10.0, 17).functions[:-1]
    h = 10.0 / 20
    x = np.linspace(3 * h, 10.0 - 3 * h, 101)
    total = sum(f.value(x) for f in splines)
    assert np.allclose(total, 1.0, atol=1e-12)


def test_family_layout():
    fam = BasisFamily.cubic_on_interval(-1.0, 1.0, 5)
    assert len(fam) == 6
    assert fam.functions[-1].name == "1"
    for f in fam.functions[:-1]:
        lo, hi = f.support
        assert lo >= -1.0 - 1e-12 and hi <= 1.0 + 1e-12


def test_family_validation():
    with pytest.raises(ValueError):
        BasisFamily.cubic_on_interval(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        BasisFamily.cubic_on_interval(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        CubicBSpline(0.0, -1.0)
    # Non-finite knots: a NaN end or spacing, an infinite one, and finite
    # ends whose spacing or last knot overflows.
    for t0, h in ((0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf), (1e308, 1e308)):
        with pytest.raises(ValueError):
            CubicBSpline(t0, h)
    for x_lo, x_hi in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan),
                       (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
        with pytest.raises(ValueError):
            BasisFamily.cubic_on_interval(x_lo, x_hi, 5)


def _assert_rows_match_members(fam, x):
    rows = fam.evaluate(x)
    assert all(r.shape == (len(fam), x.size) for r in rows)
    for k, f in enumerate(fam.functions):
        for got, want in zip(rows, (f.value(x), f.d1(x), f.d2(x))):
            want = np.broadcast_to(want, x.shape)
            assert np.array_equal(got[k], want), (f.name, k)
            assert np.array_equal(np.signbit(got[k]), np.signbit(want)), (f.name, k)


@pytest.mark.parametrize("n", [1, 12, 50])
def test_family_evaluate_matches_members(n):
    fam = BasisFamily.cubic_on_interval(-6.0, 4.0, n)
    knots = np.unique([f.t0 + i * f.h for f in fam.functions[:-1] for i in range(5)])
    rng = np.random.default_rng(n)
    x = np.concatenate([rng.uniform(-7.0, 5.0, 4000), knots,
                        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf)])
    _assert_rows_match_members(fam, x)


def test_family_evaluate_constant_only_and_irregular_members():
    x = np.linspace(-3.0, 3.0, 61)
    _assert_rows_match_members(BasisFamily((constant_one(),)), x)
    # Splines of unequal spacing, out of order, between other members: each
    # is a run of one.
    quad = C2Function(lambda x: x ** 2, lambda x: 2.0 * x,
                      lambda x: np.full_like(x, 2.0), name="x^2")
    fam = BasisFamily((CubicBSpline(0.5, 0.25), quad, CubicBSpline(-2.0, 1.0),
                       constant_one()))
    _assert_rows_match_members(fam, x)
    # A uniform run in reverse order, the constant first: evaluated together.
    uniform = BasisFamily.cubic_on_interval(-3.0, 3.0, 9)
    _assert_rows_match_members(BasisFamily(uniform.functions[::-1]), x)
    # Part of a run around the constant, with a gap and a repeated member,
    # and points where every spline of each piece is in the family.
    run = uniform.functions
    _assert_rows_match_members(BasisFamily(run[2:4] + (constant_one(),) + run[5:7]), x)
    _assert_rows_match_members(BasisFamily(run[2:6] + (quad, run[3], run[8])), x)
    for part in (run[2:8], run[2:4] + run[5:8]):
        _assert_rows_match_members(BasisFamily(part), np.linspace(-0.4, 0.4, 17))


def test_family_evaluate_orders_separately():
    fam = BasisFamily.cubic_on_interval(0.0, 1.0, 6)
    x = np.linspace(-0.1, 1.1, 37)
    v, d1, d2 = fam.evaluate(x)
    (only_d2,) = fam.evaluate(x, (2,))
    d1_again, v_again = fam.evaluate(x, (1, 0))
    assert np.array_equal(only_d2, d2)
    assert np.array_equal(d1_again, d1) and np.array_equal(v_again, v)
    assert fam.evaluate(np.zeros(0), (0,))[0].shape == (len(fam), 0)
    with pytest.raises(ValueError, match="orders"):
        fam.evaluate(x, (3,))


def test_locate_on_and_beside_knots():
    # Knots -6, -5.5, ..., 4: the 17 splines cover cells 0..19, and x_hi = 4
    # is knot 20, in cell n + 3 = 20.
    run = _SplineRun(-6.0, 0.5, 17)
    knots = -6.0 + 0.5 * np.arange(21)
    x = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                        [-7.0, 5.0]])
    u = (x + 6.0) / 0.5
    for lo, hi in ((0, 16), (5, 7), (16, 16)):
        at, cell, tau = run.locate(x, lo, hi)
        want = np.flatnonzero((np.floor(u) >= lo) & (np.floor(u) <= hi + 3))
        assert at.tolist() == want.tolist()
        assert cell.dtype == np.intp and cell.tolist() == np.floor(u[at]).tolist()
        assert tau.tobytes() == (u[at] - np.floor(u[at])).tobytes()
    at, cell, _ = run.locate(x, 0, 16)
    on_knot = dict(zip(at.tolist(), cell.tolist()))
    assert [on_knot.get(k) for k in range(21)] == list(range(20)) + [None]  # x_hi is out
    assert 21 not in on_knot  # just below the first knot
    assert on_knot[22] == 0 and on_knot[42] == 0  # below knot 1, above knot 0
    assert on_knot[61] == 19 and 62 not in on_knot  # above knot 19 and x_hi
    assert 63 not in on_knot and 64 not in on_knot  # -7 and 5
    assert [a.size for a in run.locate(np.array([np.nan, -1.0]), 0, 16)] == [1, 1, 1]
    # Spline j's first knot is t0 + j h, as locate's cells place it.
    f = run.member(3)
    assert f.support == (-4.5, -2.5)
    assert run.locate(np.array([-4.5]), 3, 3)[1].tolist() == [3]
