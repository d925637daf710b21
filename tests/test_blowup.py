import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from caputo_density import blowup
from caputo_density.blowup import (
    BlowupMember,
    Combination,
    Psi0Profile,
    build_psi,
    check_blowup_convergence,
    estimate_kappa,
)
from caputo_density.piecewise import PiecewisePoly
from caputo_density.profiles import bump_extension_value
from caputo_density.special_functions import beta


# -- profile admissibility ------------------------------------------------------


def test_default_profile_is_admissible(psi0_default):
    data = psi0_default.data
    assert data.value(-2.0) == 1.0
    assert data.value(0.9) == 0.0
    assert data.derivative_value(0.3) < 0.0


def test_flat_profile_rejected():
    # derivative identically zero on [0, 3/4) violates strict decrease
    with pytest.raises(ValueError, match="strictly decreasing"):
        Psi0Profile(PiecewisePoly([0.0, 1.0], [[0.0]], left_tail=0.0))


def test_nonvanishing_tail_rejected():
    data = PiecewisePoly([0.0, 0.75, 1.0], [[1.0, -4.0 / 3.0], [0.0, -0.1]], left_tail=1.0)
    with pytest.raises(ValueError, match="vanish"):
        Psi0Profile(data)


def test_kinked_profile_rejected():
    # linear ramp down to zero: psi_0'(3/4-) = -4/3 != 0, not C^1
    data = PiecewisePoly([0.0, 0.75, 1.0], [[1.0, -4.0 / 3.0], [0.0]], left_tail=1.0)
    with pytest.raises(ValueError, match="C\\^1"):
        Psi0Profile(data)


def test_wrong_span_rejected():
    with pytest.raises(ValueError, match="span"):
        Psi0Profile(PiecewisePoly([0.0, 0.5], [[1.0, -2.0]], left_tail=1.0))


# -- psi --------------------------------------------------------------------------


def test_build_psi_matches_reference(psi_half, oracle_grid):
    err = np.abs(psi_half.value(oracle_grid) - bump_extension_value(oracle_grid))
    assert err.max() <= 1e-6


def test_psi_data_region(psi_half):
    assert float(psi_half.value(1.0)) == 0.0
    assert float(psi_half.value(0.5)) == pytest.approx(1.0 / 9.0, rel=1e-13)


# -- blow-up members ----------------------------------------------------------------


def test_vj_vanishes_on_quarter_interval(psi_half):
    member = BlowupMember(4, psi_half)
    np.testing.assert_allclose(member.value(np.array([-1.0, -0.5, 0.0])), 0.0, atol=1e-15)


def test_vj_constant_left_tail(psi_half):
    member = BlowupMember(4, psi_half)
    # j^s psi_0(0) with psi_0(0) = 1
    assert member.value(-4.0) == pytest.approx(2.0, rel=1e-14)
    assert member.value(-10.0) == pytest.approx(2.0, rel=1e-14)


def test_vj_at_unit_point_is_psi_of_two(psi_half):
    member = BlowupMember(1, psi_half)
    assert member.value(1.0) == pytest.approx(0.5502526800, abs=1e-8)


def test_member_requires_positive_integer_j(psi_half):
    with pytest.raises(ValueError):
        BlowupMember(0, psi_half)


@pytest.mark.parametrize("x,j,s", [
    *(pytest.param(x, j, 0.5, id=f"{x}-{j}") for j in (2, 8) for x in (0.5, 1.0, 3.0)),
    *(pytest.param(x, 64, 0.02, id=f"{x}-64-0.02") for x in (0.5, 1.0, 3.0)),
])
def test_scaling_identity(psi0_default, x, j, s):
    # D_{-j}^s v_j(x) computed directly equals D_0^s psi(x/j + 1)
    member = BlowupMember(j, build_psi(s, psi0_default))
    lhs = member.caputo_value_direct(x)
    rhs = member.caputo_value(x)
    assert abs(lhs - rhs) <= 1e-13


def test_member_residual(psi_half):
    member = BlowupMember(8, psi_half)
    grid = np.linspace(0.25, 4.0, 9)
    assert max(abs(member.caputo_value_direct(float(x))) for x in grid) <= 1e-5


def test_direct_residual_finite_at_small_order(psi0_default):
    # the direct path integrates from 0 against t^(s-1) = t^-0.98, where a
    # mesh graded by 100 once came out NaN
    member = BlowupMember(4, build_psi(0.02, psi0_default))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = member.caputo_value_direct(1.0)
    assert math.isfinite(value)
    assert abs(value) <= 1e-12  # v_j is stationary: the exact value is 0


def test_direct_residual_reads_nan_and_refuses_inf(psi_half):
    member = BlowupMember(4, psi_half)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(member.caputo_value_direct(np.nan))
        with pytest.raises(ValueError, match=r"cannot read at \+inf"):
            member.caputo_value_direct(np.inf)
    assert member.caputo_value_direct(-np.inf) == 0.0


# -- kappa ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kappa_half(psi0_default):
    return estimate_kappa(0.5, psi0_default)


def test_g_at_junction_value(psi_half):
    assert psi_half.g_value(1.0) == pytest.approx(32.0 / 27.0, rel=1e-13)


def test_kappa_candidates(kappa_half):
    assert kappa_half.kappa_a == pytest.approx(64.0 / 27.0, rel=1e-12)
    assert kappa_half.kappa_b == pytest.approx(64.0 / (27.0 * math.pi), rel=1e-12)


def test_kappa_fit_selects_exactly_one_candidate(kappa_half):
    # the fit arbitrates the normalization-prefactor ambiguity
    assert kappa_half.matched == "b"
    assert abs(kappa_half.kappa - kappa_half.kappa_b) <= 0.01 * kappa_half.kappa_b
    assert abs(kappa_half.kappa - kappa_half.kappa_a) > 0.01 * kappa_half.kappa_a


def test_kappa_positive_and_exponent(kappa_half):
    assert kappa_half.kappa > 0.0
    assert kappa_half.fit_exponent == pytest.approx(0.5, abs=0.05)


def test_kappa_expansion_coefficients(psi_half):
    # C_i = beta(i+1, s) g^(i)(1) / i!; g'(1) = -8/9 for the default bump
    c0, c1 = (
        beta(i + 1, 0.5) * psi_half.forcing.regular_at_b(i) / math.factorial(i)
        for i in (0, 1)
    )
    assert c0 == pytest.approx(64.0 / 27.0, rel=1e-12)
    assert c1 == pytest.approx(beta(2.0, 0.5) * (-8.0 / 9.0), rel=1e-12)


def test_scaled_values_have_finite_limit(psi_half):
    # psi(1+eps) eps^(-s) differences behave like O(eps)
    s = 0.5
    vals = {}
    for eps in (1e-2, 1e-3, 1e-4):
        vals[eps] = psi_half.raw_value(1.0 + eps) * eps ** (-s)
    assert abs(vals[1e-3] - vals[1e-4]) <= 0.2 * abs(vals[1e-2] - vals[1e-3])


@pytest.mark.parametrize("s", [0.002, 0.25, 0.75, 0.998])
def test_kappa_other_orders(psi0_default, s):
    est = estimate_kappa(s, psi0_default)
    assert est.matched == "b"
    assert est.kappa > 0.0
    assert est.fit_exponent == pytest.approx(s, abs=0.05)


# -- convergence -----------------------------------------------------------------------


def test_blowup_convergence(psi0_default, kappa_half):
    conv = check_blowup_convergence(
        0.5, psi0_default, (4, 8, 16, 32, 64), (0.5, 2.0), kappa=kappa_half
    )
    sups = conv.sup_errors
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert -1.3 <= conv.rate_exponent <= -0.7


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_convergence_equals_the_member_loop_bit_for_bit(psi0_default, s):
    # j other than powers of two, so that x/j + 1 and x (1/j) + 1 differ in rounding
    j_list, (lo, hi), n = (3, 5, 12, 40, 100), (0.3, 2.7), 57
    kappa = estimate_kappa(s, psi0_default)
    conv = check_blowup_convergence(s, psi0_default, j_list, (lo, hi), n_points=n, kappa=kappa)
    psi = build_psi(s, psi0_default)
    xs = np.linspace(lo, hi, n)
    target = kappa.kappa * xs**s
    loop = [float(np.max(np.abs(BlowupMember(j, psi).value(xs) - target))) for j in j_list]
    assert conv.sup_errors == tuple(loop)


def test_blowup_reads_only_the_order_0_table(monkeypatch, psi0_default):
    monkeypatch.setattr(blowup, "_PSI_CACHE", OrderedDict())
    kappa = estimate_kappa(0.3, psi0_default)
    check_blowup_convergence(0.3, psi0_default, (4, 8, 16, 32, 64), kappa=kappa)
    edges, tables = build_psi(0.3, psi0_default)._state
    assert list(tables) == [0]
    assert list(build_psi(0.3, psi0_default).forcing._orders) == [0]
    assert edges[-1] < 1.0  # x/j + 1 - b <= 2/4 needs the first three panels only


def test_pointwise_limit(psi_half, kappa_half):
    x = 1.0
    errs = [abs(BlowupMember(j, psi_half).value(x) / x**0.5 - kappa_half.kappa)
            for j in (8, 32, 128)]
    assert errs[-1] < errs[0]
    assert errs[-1] <= 0.01


def test_convergence_validation(psi0_default, kappa_half):
    with pytest.raises(ValueError, match="increasing"):
        check_blowup_convergence(0.5, psi0_default, (8, 4), kappa=kappa_half)
    with pytest.raises(ValueError, match="bounded"):
        check_blowup_convergence(0.5, psi0_default, (2, 4), (-1.0, 2.0), kappa=kappa_half)


def test_convergence_needs_two_j(psi0_default, kappa_half):
    # one point gives no rate: np.polyfit would warn and fit noise
    for j_list in ((4,), ()):
        with pytest.raises(ValueError, match="at least two"):
            check_blowup_convergence(0.5, psi0_default, j_list, kappa=kappa_half)


def test_alternative_cubic_profile_accepted_and_solves():
    # (64/27)(3/4 - x)^3 on [0, 3/4]: strictly decreasing, C^1 at 3/4, tail 1
    c = 64.0 / 27.0
    data = PiecewisePoly(
        [0.0, 0.75, 1.0],
        [[c * 0.421875, -c * 27.0 / 16.0, c * 9.0 / 4.0, -c], [0.0]],
        left_tail=1.0,
    )
    profile = Psi0Profile(data)
    psi = build_psi(0.5, profile)
    grid = np.linspace(1.05, 4.0, 9)
    assert max(abs(psi.caputo_value(float(x))) for x in grid) <= 1e-5
    est = estimate_kappa(0.5, profile)
    assert est.kappa > 0.0
    assert est.matched == "b"


# -- combinations ------------------------------------------------------------------------


def test_combination_is_its_term_sum(psi_half):
    # built through the constructors: 0.7 + 1.5 v_2(x) - 0.25 * 3 v_8(x/2 + 1)
    constant = Combination(None, (), (), (), 0.7)
    combo = Combination.sum((
        (1.0, constant),
        (1.5, BlowupMember(2, psi_half)),
        (-0.25, BlowupMember(8, psi_half).rescaled(3.0, 0.5, 1.0)),
    ))
    np.testing.assert_array_equal(combo.A, [1.5 * 2**0.5, -0.75 * 8**0.5])
    np.testing.assert_array_equal(combo.alpha, [0.5, 1.0 / 16.0])
    np.testing.assert_array_equal(combo.beta, [1.0, 1.125])
    assert combo.c0 == 0.7

    xs = np.linspace(0.1, 3.0, 13)
    terms = list(zip(combo.A, combo.alpha, combo.beta))

    def term_sum(f, l, c0=0.0):
        return np.array([
            c0 + sum(A * alpha**l * f(alpha * x + beta) for A, alpha, beta in terms)
            for x in xs
        ])

    np.testing.assert_allclose(combo.value(xs), term_sum(psi_half.value, 0, 0.7), rtol=1e-13)
    for l in (1, 2):
        expect = term_sum(lambda y: psi_half.derivative_fast(l, y), l)
        np.testing.assert_allclose(combo.derivative(l, xs), expect, rtol=1e-13)
    np.testing.assert_allclose(
        combo.caputo_value(xs), term_sum(psi_half.caputo_value, 0.5), rtol=1e-13
    )
    assert combo.initial_point == min((psi_half.a - beta) / alpha for _, alpha, beta in terms)
    assert combo.initial_point == -18.0  # v_8(x/2 + 1) is causal from x/2 + 1 = -8
    assert constant.initial_point == -1.0


def test_equal_profiles_share_one_cached_psi(monkeypatch):
    monkeypatch.setattr(blowup, "_PSI_CACHE", OrderedDict())
    one, two = Psi0Profile.default_quadratic(), Psi0Profile.default_quadratic()
    assert one.data is not two.data
    assert one.data.fingerprint() == two.data.fingerprint()
    assert build_psi(0.5, two) is build_psi(0.5, one)
    assert len(blowup._PSI_CACHE) == 1


def test_evicted_psi_is_rebuilt_equal(monkeypatch, psi0_default):
    monkeypatch.setattr(blowup, "_PSI_CACHE", OrderedDict())
    monkeypatch.setattr(blowup, "_PSI_CACHE_SIZE", 1)
    first = build_psi(0.5, psi0_default)
    assert build_psi(0.5, psi0_default) is first
    build_psi(0.25, psi0_default)  # evicts s = 1/2
    rebuilt = build_psi(0.5, psi0_default)
    assert rebuilt is not first
    xs = np.linspace(0.5, 6.0, 23)
    np.testing.assert_array_equal(rebuilt.value(xs), first.value(xs))
    np.testing.assert_array_equal(rebuilt.caputo_value(xs), first.caputo_value(xs))
    assert list(blowup._PSI_CACHE.values()) == [rebuilt]
