"""The batched Caputo residual against today's per-point formula.

``ExtensionSolution.caputo_value`` applies one cached unit-coordinate
rule to every point. The reference below is the per-point t-space
formula it replaced, rebuilt from ``integrate_singular`` and
``smooth_factor``: both integrate the same tabulated H_1, so they must
agree to rounding.
"""

import functools

import numpy as np
import pytest

from caputo_density.blowup import BlowupMember
from caputo_density.density_builder import (
    CombinedApproximant,
    approximate_monomial,
    prescribe_jet,
)
from caputo_density.extension_solver import solve_extension
from caputo_density.profiles import builtin_profile
from caputo_density.singular_quadrature import (
    abel_unit_rule,
    graded_rule,
    integrate_singular,
    poly_abel_integral,
)
from caputo_density.special_functions import beta, gamma

ORDERS = (0.02, 0.1, 0.5, 0.9, 0.99)


@functools.cache
def _solution(name: str, s: float):
    return solve_extension(builtin_profile(name), s)


def _grid(sol) -> np.ndarray:
    """Points on both sides of a and of b, down to 1e-3 right of b.

    Much closer to b the reference itself moves: its t-space mesh loses
    every panel narrower than ulp(b)/2 to the rounding of b + offset,
    so at b + 1e-6 the two rules differ by discretization (about 1e-13),
    not by rounding. The unit-coordinate rule does not depend on x - b.
    """
    a, b = sol.a, sol.b
    return np.concatenate([
        np.linspace(a - 0.5, a, 3),
        np.linspace(a + 0.01, b, 6),
        b + np.array([1e-3, 0.01, 0.1]),
        np.linspace(b + 0.5, b + 4.0, 8),
    ])


def _reference_caputo(sol, x: float, n: int) -> float:
    """D_a^s u(x) point by point, with the rules graded in t."""
    s, a, b = sol.s.s, sol.a, sol.b
    if x <= a:
        return 0.0
    data = poly_abel_integral(sol.profile.derivative_pieces(), x, -s)
    if x <= b:
        return data / gamma(1.0 - s)
    ext = 0.0
    dpoly = np.polynomial.polynomial.polyder(sol.junction_polynomial)
    for k in range(dpoly.size):
        if dpoly[k] != 0.0:
            ext += dpoly[k] * (x - b) ** (k + 1.0 - s) * beta(k + 1.0, 1.0 - s)
    mid = 0.5 * (b + x)
    h1 = lambda t: sol.smooth_factor(1, t - b)
    ext += integrate_singular(lambda t: h1(t) * (x - t) ** (-s), b, mid, s - 1.0, "left", n=n)
    ext += integrate_singular(lambda t: (t - b) ** (s - 1.0) * h1(t), mid, x, -s, "right", n=n)
    return (data + ext) / gamma(1.0 - s)


@pytest.mark.parametrize("n", [128, 192])
@pytest.mark.parametrize("s", ORDERS)
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_batched_matches_per_point_reference(name, s, n):
    sol = _solution(name, s)
    xs = _grid(sol)
    ref = np.array([_reference_caputo(sol, float(x), n) for x in xs])
    got = sol.caputo_value(xs, n=n)
    assert np.max(np.abs(got - ref)) <= 1e-14


@pytest.mark.parametrize("n", [128, 192])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.99])
def test_values_do_not_depend_on_the_batch(s, n):
    sol = _solution("bump", s)
    xs = _grid(sol)  # several blocks of table reads at either n
    batched = sol.caputo_value(xs, n=n)
    for i, x in enumerate(xs):
        assert batched[i] == sol.caputo_value(float(x), n=n)
    assert np.array_equal(sol.caputo_value(xs[::-1], n=n)[::-1], batched)
    assert np.array_equal(sol.caputo_value(xs[3:], n=n), batched[3:])


def test_scalar_input_returns_float_everywhere(psi_half, psi0_default):
    member = BlowupMember(4, psi_half)
    jet = prescribe_jet(0.5, psi0_default, 1, verify=False)
    monomial = jet.rescaled(2.0, 0.5, jet.p)  # m! v(delta x + p) / delta^m, m = 1
    constant, _ = approximate_monomial(0.5, psi0_default, 0, 0, 1e-2)
    combined = CombinedApproximant.sum(((2.0, monomial), (1.0, constant)))
    xs = np.array([0.25, 0.75])
    for obj in (psi_half, member, jet, monomial, combined):
        value = obj.caputo_value(0.75)
        assert type(value) is float
        batched = obj.caputo_value(xs)
        assert isinstance(batched, np.ndarray) and batched.shape == xs.shape
        assert batched[1] == value


def test_cached_rules_are_read_only():
    arrays = graded_rule(0.5, 1.0, -0.5, "right", 32, 4.0) + abel_unit_rule(0.5, 32)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert graded_rule(0.5, 1.0, -0.5, "right", 32, 4.0)[0] is arrays[0]
