import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sclp.basis import (_PIECES, BasisFamily, C2Function, CubicBSpline, _cardinal,
                        constant_one)


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
    # Reference: every piece at every point, then one chosen per point.
    knots = np.arange(-1.0, 6.0)
    s = np.concatenate([np.random.default_rng(order).uniform(-1.0, 5.0, 5000), knots,
                        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                        [-0.0]])
    want = np.select([(0.0 <= s) & (s < 1.0), (1.0 <= s) & (s < 2.0),
                      (2.0 <= s) & (s < 3.0), (3.0 <= s) & (s <= 4.0)],
                     [piece(s) for piece in _PIECES[order]], default=0.0)
    got = _cardinal(order, s)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert _cardinal(order, np.asarray(4.0)).shape == ()


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
    # is evaluated on its own.
    quad = C2Function(lambda x: x ** 2, lambda x: 2.0 * x,
                      lambda x: np.full_like(x, 2.0), name="x^2")
    fam = BasisFamily((CubicBSpline(0.5, 0.25), quad, CubicBSpline(-2.0, 1.0),
                       constant_one()))
    _assert_rows_match_members(fam, x)
    # A uniform run in reverse order, the constant first: evaluated together.
    uniform = BasisFamily.cubic_on_interval(-3.0, 3.0, 9)
    _assert_rows_match_members(BasisFamily(uniform.functions[::-1]), x)


def test_family_evaluate_orders_separately():
    fam = BasisFamily.cubic_on_interval(0.0, 1.0, 6)
    x = np.linspace(-0.1, 1.1, 37)
    v, d1, d2 = fam.evaluate(x)
    (only_d2,) = fam.evaluate(x, (2,))
    d1_again, v_again = fam.evaluate(x, (1, 0))
    assert np.array_equal(only_d2, d2)
    assert np.array_equal(d1_again, d1) and np.array_equal(v_again, v)
    assert fam.evaluate(np.zeros(0), (0,))[0].shape == (len(fam), 0)
    # Reused output arrays are overwritten, whatever they held.
    out = (np.full((len(fam), x.size), np.nan), np.full((len(fam), x.size), 7.0))
    got = fam.evaluate(x, (2, 0), out=out)
    assert got[0] is out[0] and np.array_equal(out[0], d2) and np.array_equal(out[1], v)
    with pytest.raises(ValueError, match="shape"):
        fam.evaluate(x, (0,), out=(np.zeros((len(fam), 3)),))
    with pytest.raises(ValueError, match="orders"):
        fam.evaluate(x, (3,))
