import functools
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from caputo_density.singular_quadrature import (
    gauss_jacobi,
    gauss_ladder,
    integrate_singular,
    kernel_identity_check,
    poly_abel_integral,
    unit_rule,
)
from caputo_density.special_functions import beta, reflection


def algebraic_quad(f, lo, hi, exponent, singular_end):
    """Brute-force oracle: scipy's weighted quadrature for |x_s - t|^e."""
    wvar = (exponent, 0.0) if singular_end == "left" else (0.0, exponent)
    val, err = quad(f, lo, hi, weight="alg", wvar=wvar, limit=200)
    return val


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_constant_integrand(s):
    val = integrate_singular(lambda t: np.ones_like(t), 0.0, 1.0, -s, "right")
    assert val == pytest.approx(1.0 / (1.0 - s), rel=1e-13)


@pytest.mark.parametrize("s,x", [(0.5, 1.0), (0.25, 2.0), (0.75, 0.7)])
def test_linear_integrand_beta_identity(s, x):
    # int_0^x t (x-t)^(-s) dt = x^(2-s) beta(2, 1-s); cross-check vs scipy
    val = integrate_singular(lambda t: t, 0.0, x, -s, "right")
    assert val == pytest.approx(x ** (2.0 - s) * beta(2.0, 1.0 - s), rel=1e-12)
    assert val == pytest.approx(algebraic_quad(lambda t: t, 0.0, x, -s, "right"), rel=1e-9)


@pytest.mark.parametrize("exponent,end", [(-0.3, "left"), (-0.8, "right"), (-0.5, "left")])
def test_cubic_exactness_on_coarse_mesh(exponent, end):
    # every panel of the unit rule is a Gauss rule exact for cubics
    f = lambda t: ((2.0 * t + 0.7) * t - 1.2) * t + 0.3
    ref = algebraic_quad(f, 0.0, 2.0, exponent, end)
    val = integrate_singular(f, 0.0, 2.0, exponent, end)
    assert val == pytest.approx(ref, rel=1e-12)


def test_strong_grading_from_zero_is_finite():
    # an exponent near -1 from lo = 0 (a mesh graded by 100 once overflowed
    # to NaN here) stays finite and exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = integrate_singular(lambda t: 1.0 + 0.0 * t, 0.0, 0.5, -0.98, "left")
    assert val == pytest.approx(0.5**0.02 / 0.02, rel=1e-12)


@pytest.mark.parametrize("exponent,end,lo,hi", [
    (-0.5, "right", 0.0, 1.0), (-0.02, "left", 0.0, 1.0), (-0.98, "right", 0.0, 1.0),
    (-0.3, "left", -1.0, 2.0), (-0.7, "right", 0.5, 4.0),
])
def test_integrate_singular_cos_against_scipy(exponent, end, lo, hi):
    ref = algebraic_quad(np.cos, lo, hi, exponent, end)
    assert integrate_singular(np.cos, lo, hi, exponent, end) == pytest.approx(ref, rel=1e-14)


def test_domain_errors():
    f = lambda t: t
    with pytest.raises(ValueError):
        integrate_singular(f, 1.0, 0.0, -0.5, "right")
    with pytest.raises(ValueError):
        integrate_singular(f, 0.0, 1.0, -1.2, "right")
    with pytest.raises(ValueError):
        integrate_singular(f, 0.0, 1.0, 0.0, "right")
    with pytest.raises(ValueError):
        integrate_singular(f, 0.0, 1.0, -0.5, "middle")


def test_determinism():
    f = lambda t: np.exp(t)
    a = integrate_singular(f, 0.0, 3.0, -0.4, "right")
    b = integrate_singular(f, 0.0, 3.0, -0.4, "right")
    assert a == b


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.02, 0.98])
@pytest.mark.parametrize("tau,x", [(0.0, 1.0), (2.0, 7.0), (-1.0, 0.0)])
def test_kernel_identity(s, tau, x):
    target = reflection(s)
    assert abs(kernel_identity_check(s, tau, x) - target) <= 1e-13 * target


def test_kernel_identity_rejects_bad_interval():
    with pytest.raises(ValueError):
        kernel_identity_check(0.5, 2.0, 2.0)


@given(
    st.floats(min_value=0.3, max_value=0.7),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_kernel_identity_translation_scale_invariance(s, shift, scale):
    target = reflection(s)
    v1 = kernel_identity_check(s, shift, shift + scale)
    v2 = kernel_identity_check(s, scale * 0.5, scale * 1.5)
    assert abs(v1 - target) <= 1e-8 * target
    assert abs(v2 - target) <= 1e-8 * target


def test_poly_abel_against_scipy():
    # continuity is irrelevant here: the helper integrates pieces independently
    pieces = [(0.0, 0.6, np.array([0.5, -1.0, 2.0])), (0.6, 1.0, np.array([0.22, 0.8]))]
    for x, e in ((0.9, -0.5), (1.0, -0.25), (3.0, -0.75)):
        ref = 0.0
        for lo, hi, c in pieces:
            if x <= lo:
                continue
            p = lambda t, c=c, lo=lo: np.polynomial.polynomial.polyval(t - lo, c)
            if x <= hi:
                ref += quad(p, lo, x, weight="alg", wvar=(0.0, e), limit=200)[0]
            else:
                ref += quad(lambda t: p(t) * (x - t) ** e, lo, hi, limit=200)[0]
        assert poly_abel_integral(pieces, x, e) == pytest.approx(ref, rel=1e-8)


def test_poly_abel_partial_upper_limit():
    # phi'(t) = 1 on [0, 1]: int_0^x (x-t)^(-s) dt = x^(1-s)/(1-s) for x <= 1
    s = 0.5
    val = poly_abel_integral([(0.0, 1.0, np.array([1.0]))], 0.49, -s)
    assert val == pytest.approx(0.49**0.5 / 0.5, rel=1e-14)


def test_gauss_ladder_near_edge_branch():
    # f(w) = sqrt(w + 1e-3) has its cut at -1e-3, just left of the interval
    f = lambda t: np.sqrt(t + 1e-3)
    ref = quad(f, 0.0, 1.0, limit=200)[0]
    got = gauss_ladder(f, np.array([1.0]), 1.0, 0.0, 1e-3)
    assert got[0] == pytest.approx(ref, rel=1e-13)


@functools.cache
def _jacobi_moment(k: int, a: float, b: float) -> float:
    """int_-1^1 x^k (1-x)^a (1+x)^b dx as an exact Beta sum, at 50 digits."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        terms = (
            mpmath.binomial(k, j) * 2**j * (-1) ** (k - j) * mpmath.beta(j + b + 1, a + 1)
            for j in range(k + 1)
        )
        return float(2 ** (a + b + 1) * mpmath.fsum(terms))


@pytest.mark.parametrize("n", [12, 20, 32])
@pytest.mark.parametrize("exponent", [-0.01, -0.5, -0.98, -0.99])
@pytest.mark.parametrize("side", ["a", "b"])
def test_gauss_jacobi_moments(n, exponent, side):
    a, b = (exponent, 0.0) if side == "a" else (0.0, exponent)
    x, g = gauss_jacobi(n, a, b)
    assert np.all(np.diff(x) > 0.0) and x[0] > -1.0 and x[-1] < 1.0 and np.all(g > 0.0)
    for k in range(2 * n):
        terms = g * x**k
        # odd moments of a near-even weight are small by cancellation, so the
        # error is measured against the size of the terms summed
        assert abs(np.sum(terms) - _jacobi_moment(k, a, b)) <= 1e-13 * np.sum(np.abs(terms))


def test_gauss_jacobi_closed_forms():
    # a = b = 0 is Gauss-Legendre; a = b = -1/2 (a + b = -1) is Gauss-Chebyshev.
    # Weights from squared eigenvector components are accurate to a few ulps
    # of their sum, not of each weight.
    x, g = gauss_jacobi(20, 0.0, 0.0)
    xl, gl = np.polynomial.legendre.leggauss(20)
    np.testing.assert_allclose(x, xl, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(g, gl, rtol=0.0, atol=4e-15)
    x, g = gauss_jacobi(20, -0.5, -0.5)
    np.testing.assert_allclose(x, np.sort(np.cos((2 * np.arange(1, 21) - 1) * np.pi / 40)),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(g, np.pi / 20, rtol=0.0, atol=4e-15)
    with pytest.raises(ValueError):
        gauss_jacobi(8, -1.0, 0.0)


ABEL_ORDERS = (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99)


@pytest.mark.parametrize("s", ABEL_ORDERS)
def test_abel_unit_rule_sums_to_reflection(s):
    # f = 1: int_0^1 w^(s-1) (1-w)^(-s) dw = B(s, 1-s) = pi/sin(pi s)
    for depth in range(1, 13):
        nodes, weights = unit_rule(s, -s, depth)
        assert nodes.size == 20 + 12 * (depth - 1) + 20 and np.all(np.diff(nodes) > 0.0)
        assert nodes[0] > 0.0 and nodes[-1] < 1.0
        assert abs(np.sum(weights) / reflection(s) - 1.0) <= 1e-14


def _abel_reference(s: float, d: float) -> float:
    """int_0^1 w^(s-1) (1-w)^(-s) (w+d)^(-s) dw by mpmath, with both endpoint
    singularities removed by substitution (w = u^(1/s), 1-w = v^(1/(1-s)))."""
    with mpmath.workdps(30):
        s, d = mpmath.mpf(s), mpmath.mpf(d)
        f = lambda w: (w + d) ** -s
        half = mpmath.mpf(1) / 2
        cuts = sorted({mpmath.mpf(0), half**s, *(p**s for p in (d / 10, d, 10 * d) if p < half)})
        left = mpmath.quad(lambda u: f(u ** (1 / s)) * (1 - u ** (1 / s)) ** -s, cuts) / s
        w = lambda v: 1 - v ** (1 / (1 - s))
        right = mpmath.quad(lambda v: f(w(v)) * w(v) ** (s - 1), [0, half ** (1 - s)]) / (1 - s)
        return float(left + right)


@pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("d", [0.25, 5e-3, 5e-5])
def test_abel_unit_rule_near_branch_point(s, d):
    # H_1((x-b) w) has a branch point at w = -gap/(x-b); d = 5e-5 is x - b
    # at 2e4 gaps. gauss_ladder picks the residual's depth for it
    got = gauss_ladder(lambda z: (z + d) ** -s, np.array([1.0]), s, -s, d)[0]
    ref = _abel_reference(s, d)
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_batched_gauss_ladder_rows_are_scalar_ladders():
    # xi = 0, 300 points of depth 1 (more than one block of its 40-node
    # rule) and a sweep up to depth 17: each point's value is
    # what a call for that point alone gives, bit for bit
    gap = 1e-3
    xi = np.concatenate([[0.0], np.linspace(1e-6, 0.5 * gap, 300), np.geomspace(gap, 60.0, 97)])
    f = lambda z: np.sqrt(z + gap)
    batched = gauss_ladder(f, xi, 0.5, -0.5, gap)
    assert batched.shape == xi.shape
    for x, value in zip(xi, batched):
        assert value == gauss_ladder(f, np.array([x]), 0.5, -0.5, gap)[0]
    assert np.array_equal(gauss_ladder(f, xi[::-1], 0.5, -0.5, gap)[::-1], batched)
