import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caputo_density.piecewise import PiecewisePoly, polyder, polyval, taylor_shift
from caputo_density.profiles import FIXED_SPAN, builtin_profile, ramp_profile
from caputo_density.singular_quadrature import poly_abel_integral


def quad_bump():
    return PiecewisePoly([0.0, 0.75, 1.0], [[1.0, -8.0 / 3.0, 16.0 / 9.0], [0.0]], left_tail=1.0)


def test_value_and_left_tail():
    p = quad_bump()
    assert p.value(-3.0) == 1.0
    assert p.value(0.0) == pytest.approx(1.0, abs=1e-15)
    assert p.value(0.5) == pytest.approx((16.0 / 9.0) * 0.0625, rel=1e-14)
    assert p.value(0.9) == 0.0
    xs = np.array([-1.0, 0.25, 0.8, 1.0])
    np.testing.assert_allclose(p.value(xs), [1.0, (16 / 9) * 0.25, 0.0, 0.0], atol=1e-15)


def test_value_rejects_beyond_last_breakpoint():
    with pytest.raises(ValueError):
        quad_bump().value(1.5)


def test_derivative_rejects_beyond_last_breakpoint_like_value():
    ramp = ramp_profile()
    for evaluate in (ramp.value, ramp.derivative_value):
        with pytest.raises(ValueError, match="evaluation beyond the last breakpoint"):
            evaluate(5.0)
        with pytest.raises(ValueError, match="evaluation beyond the last breakpoint"):
            evaluate(np.array([0.5, 1.0 + 1e-9]))
        evaluate(1.0 + 1e-13)  # within the 1e-12 slack of the span
    assert ramp.derivative_value(1.0) == 1.0


@pytest.mark.parametrize("name", sorted(FIXED_SPAN))
@pytest.mark.parametrize("a,b", [(3.0, 4.0), (3.0, None), (None, 4.0)])
def test_fixed_span_profiles_refuse_a_span(name, a, b):
    with pytest.raises(ValueError, match=f"^--a/--b do not apply to the {name} profile; "):
        builtin_profile(name, a, b)


def test_spanned_profiles_take_the_given_span():
    for name in ("constant", "linear"):
        p = builtin_profile(name, 3.0, 4.0)
        assert (p.lo, p.hi) == (3.0, 4.0)
    assert builtin_profile("linear", 3.0, 4.0).value(3.5) == 0.5


def test_derivative_uses_right_piece_at_breakpoints():
    p = quad_bump()
    assert p.derivative_value(0.75) == 0.0  # right piece is identically zero
    assert p.derivative_value(0.0) == pytest.approx(-8.0 / 3.0, rel=1e-14)
    assert p.derivative_value(-0.5) == 0.0  # constant tail


def test_discontinuous_construction_rejected():
    with pytest.raises(ValueError, match="discontinuity"):
        PiecewisePoly([0.0, 0.5, 1.0], [[0.0, 1.0], [7.0]])


def test_left_tail_mismatch_rejected():
    with pytest.raises(ValueError, match="left tail"):
        PiecewisePoly([0.0, 1.0], [[1.0, 1.0]], left_tail=0.0)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 0.0, 1.0], [[1.0], [1.0]])


def test_degree_cap():
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 1.0], [[0.0, 0.0, 0.0, 0.0, 1.0]])


coeff = st.floats(min_value=-3.0, max_value=3.0)


@given(st.lists(coeff, min_size=2, max_size=4), st.lists(coeff, min_size=2, max_size=4),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=100)
def test_linear_combination_evaluates_pointwise(c1, c2, alpha):
    # evaluation is linear in the coefficients: c1 + alpha c2, the shorter padded
    p = PiecewisePoly.single(c1, 0.0, 1.0)
    q = PiecewisePoly.single(c2, 0.0, 1.0)
    n = max(len(c1), len(c2))
    combo = PiecewisePoly.single(
        np.pad(c1, (0, n - len(c1))) + alpha * np.pad(c2, (0, n - len(c2))), 0.0, 1.0
    )
    xs = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(
        combo.value(xs), p.value(xs) + alpha * q.value(xs), atol=1e-12
    )
    np.testing.assert_allclose(
        combo.derivative_value(xs),
        p.derivative_value(xs) + alpha * q.derivative_value(xs),
        atol=1e-12,
    )


@given(st.lists(coeff, min_size=1, max_size=4), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=200)
# 1e-13 * scale underflows to 0; the two sides differ by one subnormal
@example(c=[0.0, 0.0, 5e-324], t=0.0, h=1.75, dx=0.0)
def test_taylor_shift_recentres_the_piece(c, t, h, dx):
    # sum_k c[k] (x - t)^k, re-centred at t + h, is the same polynomial
    shifted = taylor_shift(c, h)
    assert shifted.shape == (len(c),)
    assert np.array_equal(taylor_shift(c, 0.0), c)
    x = t + dx
    weights = [(abs(dx) + 2.0 * abs(h) + 1.0) ** k for k in range(len(c))]
    scale = sum(abs(ck) * w for ck, w in zip(c, weights))
    # the rounding bound's absolute term, a few smallest subnormals per
    # term, matters only where the relative term underflows
    tiny = 4 * 5e-324 * sum(weights)
    assert abs(polyval(x - (t + h), shifted) - polyval(x - t, c)) <= 1e-13 * scale + tiny


@given(st.floats(min_value=1e-12, max_value=10.0), st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=200)
def test_stable_power_difference(hi, frac, p):
    # a constant piece of length L that ends L short of x = hi integrates to
    # (hi^p - (hi - L)^p)/p, a power difference that cancels as L/hi -> 0
    length = hi - hi * frac
    got = poly_abel_integral([(0.0, length, np.array([1.0]))], hi, p - 1.0)
    with mpmath.workdps(40):
        exact = (mpmath.mpf(hi) ** p - (mpmath.mpf(hi) - mpmath.mpf(length)) ** p) / p
    assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


def test_polyval_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(3)
    for length in range(1, 9):
        c = rng.standard_normal(length) * 10.0 ** rng.uniform(-6.0, 6.0, length)
        for x in (0.7310585786300049, np.array(-1.3), rng.uniform(-3.0, 3.0, (5, 7))):
            got = polyval(x, c)
            want = np.polynomial.polynomial.polyval(x, c)
            assert type(got) is type(want) and np.shape(got) == np.shape(want), (length, x)
            assert np.array_equal(got, want), (length, x)


def test_polyder_equals_numpy_for_every_order():
    rng = np.random.default_rng(4)
    for length in range(1, 9):
        c = rng.standard_normal(length) * 10.0 ** rng.uniform(-6.0, 6.0, length)
        for m in range(length + 1):
            got, want = polyder(c, m), np.polynomial.polynomial.polyder(c, m)
            assert got.dtype == want.dtype and got.shape == want.shape, (length, m)
            assert np.array_equal(got, want), (length, m)
        assert polyder(c, 0) is not c


@pytest.mark.parametrize("name", sorted(FIXED_SPAN))
def test_piece_index_is_the_clipped_right_search(name):
    # left of lo the first piece, right of hi (and at NaN) the last, and
    # a breakpoint belongs to the piece it starts
    poly = builtin_profile(name)
    bp = poly.breakpoints
    x = np.concatenate([bp, bp - 1e-9, bp + 1e-9, [-np.inf, np.inf, np.nan]])
    expect = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, poly.coeffs.shape[0] - 1)
    assert np.array_equal(poly._piece_index(x), expect)
