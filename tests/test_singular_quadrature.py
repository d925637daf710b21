import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from caputo_density.singular_quadrature import (
    GradedMesh,
    gauss_ladder,
    integrate_singular,
    kernel_identity_check,
    poly_abel_integral,
)
from caputo_density.special_functions import beta, reflection


def algebraic_quad(f, lo, hi, exponent, singular_end):
    """Brute-force oracle: scipy's weighted quadrature for |x_s - t|^e."""
    wvar = (exponent, 0.0) if singular_end == "left" else (0.0, exponent)
    val, err = quad(f, lo, hi, weight="alg", wvar=wvar, limit=200)
    return val


@given(
    st.floats(min_value=-3.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=1.0, max_value=8.0),
    st.sampled_from(["left", "right"]),
)
@settings(max_examples=100)
def test_graded_mesh_invariants(lo, span, n, grade, end):
    mesh = GradedMesh(lo, lo + span, n, grade, end)
    bp = mesh.breakpoints()
    assert bp[0] == lo and bp[-1] == lo + span
    assert np.all(np.diff(bp) > 0.0)


def test_graded_mesh_unit_grade_is_uniform():
    bp = GradedMesh(0.0, 1.0, 10, 1.0, "left").breakpoints()
    np.testing.assert_allclose(np.diff(bp), 0.1, rtol=1e-12)


def test_graded_mesh_validation():
    with pytest.raises(ValueError):
        GradedMesh(1.0, 0.0, 4, 2.0, "left")
    with pytest.raises(ValueError):
        GradedMesh(0.0, 1.0, 0, 2.0, "left")
    with pytest.raises(ValueError):
        GradedMesh(0.0, 1.0, 4, 0.5, "left")
    with pytest.raises(ValueError):
        GradedMesh(0.0, 1.0, 4, 2.0, "middle")


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
    f = lambda t: ((2.0 * t + 0.7) * t - 1.2) * t + 0.3
    ref = algebraic_quad(f, 0.0, 2.0, exponent, end)
    val = integrate_singular(f, 0.0, 2.0, exponent, end, n=4, grade=1.0)
    assert val == pytest.approx(ref, rel=1e-12)


def test_strong_grading_from_zero_is_finite():
    # grade 2/(1-0.98) = 100 from lo = 0 once kept panels of width ~1e-230,
    # whose moments overflowed to NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = integrate_singular(lambda t: 1.0 + 0.0 * t, 0.0, 0.5, -0.98, "left")
    assert val == pytest.approx(0.5**0.02 / 0.02, rel=1e-12)


def test_strong_grading_collapses_sub_resolution_panels():
    bp = GradedMesh(0.0, 0.5, 256, 100.0, "left").breakpoints()
    assert bp[0] == 0.0 and np.all(np.diff(bp) >= 0.25 * np.finfo(float).eps * 0.5)


def test_refinement_order_at_least_two():
    ref = algebraic_quad(np.cos, 0.0, 1.0, -0.5, "right")
    errs = [abs(integrate_singular(np.cos, 0.0, 1.0, -0.5, "right", n=n) - ref)
            for n in (16, 32, 64)]
    assert errs[1] <= 0.25 * errs[0] * 1.05
    assert errs[2] <= 0.25 * errs[1] * 1.05


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


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("tau,x", [(0.0, 1.0), (2.0, 7.0), (-1.0, 0.0)])
def test_kernel_identity(s, tau, x):
    target = reflection(s)
    assert abs(kernel_identity_check(s, tau, x) - target) <= 1e-8 * target


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
    v1 = kernel_identity_check(s, shift, shift + scale, n=128)
    v2 = kernel_identity_check(s, scale * 0.5, scale * 1.5, n=128)
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
    f = lambda t: np.sqrt(t + 1e-3)
    ref = quad(f, 0.0, 1.0, limit=200)[0]
    assert gauss_ladder(f, 0.0, 1.0, 5e-4) == pytest.approx(ref, rel=1e-13)
