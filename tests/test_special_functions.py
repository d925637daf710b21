import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caputo_density.blowup import Psi0Profile, estimate_kappa
from caputo_density.extension_solver import solve_extension
from caputo_density.profiles import builtin_profile
from caputo_density.special_functions import beta, fractional_order, gamma, reflection, sin_pi


def test_gamma_integers():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_half_against_high_precision():
    # independent oracle: 50-digit arithmetic
    exact = float(mpmath.mp.mpf(mpmath.mp.sqrt(mpmath.mp.pi)))
    assert gamma(0.5) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("z", np.geomspace(0.05, 50.0, 37))
def test_gamma_grid_against_mpmath(z):
    with mpmath.workdps(40):
        exact = float(mpmath.gamma(z))
    assert gamma(float(z)) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
def test_gamma_rejects_nonpositive(z):
    with pytest.raises(ValueError):
        gamma(z)


def test_beta_examples():
    assert beta(1.0, 0.5) == pytest.approx(2.0, rel=1e-13)  # beta(1, s) = 1/s
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta(-1.0, 2.0)
    with pytest.raises(ValueError):
        beta(1.0, 0.0)


def test_reflection_identity_grid():
    for s in np.linspace(0.05, 0.95, 91):
        target = math.pi / math.sin(math.pi * s)
        assert abs(beta(s, 1.0 - s) - target) <= 1e-10 * abs(target)
    # against 40 digits, with no absolute slack: the float pi/sin(pi s) itself
    # errs by up to 1.3e-15 near s = 0.94
    for s in np.linspace(0.01, 0.99, 99):
        with mpmath.workdps(40):
            target = float(mpmath.pi / mpmath.sin(mpmath.pi * mpmath.mpf(s)))
        assert reflection(s) == pytest.approx(target, rel=1e-15, abs=0.0), s


@pytest.mark.parametrize("s", [0.9, 0.98, 0.998, 0.9999])
def test_sin_pi_keeps_its_relative_accuracy_near_one(s):
    # math.sin(math.pi * s) errs here by 4.8e-16, 2.4e-15, 2.7e-14 and 7.2e-13:
    # the rounding of pi s near pi is large against the small sine
    with mpmath.workdps(40):
        sine = mpmath.sin(mpmath.pi * mpmath.mpf(s))
        want = {"sin": float(sine), "reflection": float(mpmath.pi / sine),
                "factor": float(sine / mpmath.pi)}
    kappa = estimate_kappa(s, Psi0Profile.default_quadratic())
    got = {
        "sin": sin_pi(s),
        "reflection": reflection(s),
        "factor": solve_extension(builtin_profile("ramp"), s)._sin_factor,
        "kappa_b": kappa.kappa_b / kappa.kappa_a,
    }
    want["kappa_b"] = want["factor"]
    for name, value in got.items():
        assert abs(value / want[name] - 1.0) <= 1e-15, name


def test_sin_pi_is_the_plain_product_up_to_one_half():
    for s in np.linspace(0.001, 0.5, 500):
        assert sin_pi(s) == math.sin(math.pi * s)


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200)
def test_gamma_recurrence(z):
    assert abs(gamma(z + 1.0) - z * gamma(z)) <= 1e-12 * gamma(z + 1.0)


@given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200)
def test_beta_symmetry(x, y):
    assert abs(beta(x, y) - beta(y, x)) <= 1e-12 * abs(beta(x, y))


@pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.3])
def test_fractional_order_rejects_outside_unit_interval(s):
    with pytest.raises(ValueError, match=f"fractional order must satisfy 0 < s < 1, got {s}"):
        fractional_order(s)


def test_fractional_order_coercion():
    # any real in (0, 1) comes back as the same value, a plain float
    for given in (0.25, np.float64(0.25), "0.25"):
        order = fractional_order(given)
        assert type(order) is float and order == 0.25
    with pytest.raises(ValueError, match="got nan"):
        fractional_order(math.nan)


@pytest.mark.parametrize("s", [1e-300, 2.0**-54, 5e-17])
def test_order_whose_s_minus_1_rounds_to_minus_1_is_refused(s):
    # the quadrature rules take s - 1 as a Jacobi exponent, which must exceed -1
    assert s - 1.0 == -1.0
    with pytest.raises(ValueError, match=f"fractional order {s!r} is too close to 0"):
        fractional_order(s)


def test_least_order_whose_s_minus_1_stays_above_minus_1_is_accepted():
    s = 2.0**-53
    assert s - 1.0 > -1.0
    assert fractional_order(s) == s
