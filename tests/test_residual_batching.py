"""The batched Caputo residual against a per-point reference.

``ExtensionSolution.caputo_value`` applies one cached unit-coordinate
rule to all points of a depth class. The reference below evaluates the
same formula point by point with its own composite rule of twice the
nodes and 20 bands, deeper than any rule these grids call for, built
from ``gauss_jacobi`` and Gauss-Legendre: both integrate the same
tabulated H_1, so they must agree to rounding.
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
from caputo_density.singular_quadrature import gauss_jacobi, poly_abel_integral, unit_rule
from caputo_density.special_functions import beta, gamma

ORDERS = (0.02, 0.1, 0.5, 0.9, 0.99)


@functools.cache
def _solution(name: str, s: float):
    return solve_extension(builtin_profile(name), s)


def _grid(sol, points: int) -> np.ndarray:
    """Points on both sides of a, up to b, then 4 `points` points from 1e-6
    to 4 right of b. Up to half a gap right of b a point takes the 40-node
    residual rule, 204 points to a block: for 128 and 192 these nearest
    points span 3 and 4 blocks of the batched residual, and the rest fall
    into 2 to 4 deeper depth classes."""
    a, b = sol.a, sol.b
    return np.concatenate([
        np.linspace(a - 0.5, a, 3),
        np.linspace(a + 0.01, b, 6),
        b + np.geomspace(1e-6, 4.0, 4 * points),
    ])


@functools.cache
def _doubled_unit_rule(s: float) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 w^(s-1) (1-w)^(-s) f(w) dw with 40-node Gauss-Jacobi end
    panels on [0, 2^-21] and [1/2, 1] and 20 bands of 24 Gauss-Legendre
    nodes doubling in between."""
    edge = 0.5**21
    x, g = gauss_jacobi(40, 0.0, s - 1.0)
    left = 0.5 * edge * (1.0 + x)
    nodes, weights = [left], [(0.5 * edge) ** s * g * (1.0 - left) ** -s]
    gx, gw = np.polynomial.legendre.leggauss(24)
    for k in range(20):
        lo, hi = edge * 2.0**k, edge * 2.0 ** (k + 1)
        w = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gx
        nodes.append(w)
        weights.append(0.5 * (hi - lo) * gw * w ** (s - 1.0) * (1.0 - w) ** -s)
    x, g = gauss_jacobi(40, -s, 0.0)
    right = 0.75 + 0.25 * x
    nodes.append(right)
    weights.append(0.25 ** (1.0 - s) * g * right ** (s - 1.0))
    return np.concatenate(nodes), np.concatenate(weights)


def _reference_caputo(sol, x: float) -> float:
    """D_a^s u(x) for one point, with the doubled unit rule."""
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
    # int_b^x (t-b)^(s-1) (x-t)^(-s) H_1(t-b) dt in w = (t-b)/(x-b)
    nodes, weights = _doubled_unit_rule(s)
    ext += float(np.sum(weights * sol.smooth_factor(1, (x - b) * nodes)))
    return (data + ext) / gamma(1.0 - s)


@pytest.mark.parametrize("points", [128, 192])
@pytest.mark.parametrize("s", ORDERS)
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_batched_matches_per_point_reference(name, s, points):
    sol = _solution(name, s)
    xs = _grid(sol, points)
    ref = np.array([_reference_caputo(sol, float(x)) for x in xs])
    got = sol.caputo_value(xs)
    assert np.max(np.abs(got - ref)) <= 1e-14


# s: bounds at x - b = 1e5 and 5e5 gaps, ten times the measured distance
# from the reference, rounded up to one digit. A rule of fixed depth 12,
# whose first panel is wider than its distance to the branch point out
# here, is off by up to 2.6e-9 and 4.0e-5 (s = 0.1).
FAR_FIELD_BOUNDS = {0.1: (2e-10, 3e-10), 0.5: (7e-13, 2e-12), 0.9: (2e-14, 3e-14)}


@pytest.mark.parametrize("s", sorted(FAR_FIELD_BOUNDS))
def test_far_field_residual_matches_reference(s):
    sol = _solution("ramp", s)
    for gaps, bound in zip((1e5, 5e5), FAR_FIELD_BOUNDS[s]):
        x = sol.b + gaps * sol._branch_gap
        assert abs(sol.caputo_value(x) - _reference_caputo(sol, x)) <= bound


@pytest.mark.parametrize("points", [128, 192])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.99])
def test_values_do_not_depend_on_the_batch(s, points):
    sol = _solution("bump", s)
    xs = _grid(sol, points)
    batched = sol.caputo_value(xs)
    for i, x in enumerate(xs):
        assert batched[i] == sol.caputo_value(float(x))
    assert np.array_equal(sol.caputo_value(xs[::-1])[::-1], batched)
    assert np.array_equal(sol.caputo_value(xs[3:]), batched[3:])


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
    arrays = unit_rule(0.5, 0.0, 12) + unit_rule(0.5, -0.5, 3)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert unit_rule(0.5, 0.0, 12)[0] is arrays[0]
    assert unit_rule(0.5, -0.5, 3)[1] is arrays[3]
