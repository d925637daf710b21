import math

import numpy as np
import pytest

from caputo_density.blowup import BlowupMember, build_psi
from caputo_density.density_builder import (
    DeltaUnderflowError,
    ExpTarget,
    JetInfeasibleError,
    PolyTarget,
    SampledTarget,
    SinTarget,
    TargetDegreeError,
    approximate_function,
    approximate_monomial,
    as_target,
    fd_derivative,
    jet_matrix,
    monomial_ck_errors,
    prescribe_jet,
)


def test_fd_derivative_on_exp():
    for order in (1, 2, 3):
        est = fd_derivative(math.exp, 0.3, order, 0.05, half_width=5)
        assert est == pytest.approx(math.exp(0.3), rel=1e-9)


# -- jet matrix -----------------------------------------------------------------


def test_jet_matrix_column_zero_is_values(psi_half):
    members = [BlowupMember(j, psi_half) for j in (2, 4)]
    mat = jet_matrix(members, [0.5, 1.0], 2)
    assert mat.shape == (4, 3)
    assert mat[0, 0] == pytest.approx(members[0].value(0.5), rel=1e-10)
    assert mat[3, 0] == pytest.approx(members[1].value(1.0), rel=1e-10)


def test_jet_matrix_single_entry(psi_half):
    member = BlowupMember(4, psi_half)
    mat = jet_matrix([member], [1.0], 0)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(member.value(1.0), rel=1e-10)


def test_jet_matrix_scaling_structure(psi_half):
    # holding the psi argument fixed, entries scale as j^(s-l)
    y0 = 1.25
    l = 2
    e2, e8 = (
        BlowupMember(j, psi_half).derivative(l, j * (y0 - 1.0)) for j in (2, 8)
    )
    assert e2 / e8 == pytest.approx(4.0 ** (l - 0.5), rel=1e-8)


def test_jet_matrix_validation(psi_half, psi0_default):
    member = BlowupMember(2, psi_half)
    with pytest.raises(ValueError):
        jet_matrix([member], [-1.0], 1)
    with pytest.raises(ValueError):
        jet_matrix([], [1.0], 1)
    other = BlowupMember(4, build_psi(0.25, psi0_default))
    with pytest.raises(ValueError, match="share one psi"):
        jet_matrix([member, other], [1.0], 1)


def test_jet_matrix_matches_entrywise_loop(psi_half):
    # one derivative call per order over all pairs, equal to scalar calls
    members = [BlowupMember(j, psi_half) for j in (2, 4, 8, 16, 32)]
    points = [0.5, 1.0, 2.0]
    ref = np.array([
        [mb.j ** (mb.s.s - l) * psi_half.derivative(l, x / mb.j + 1.0) for l in range(5)]
        for mb in members for x in points
    ])
    assert np.array_equal(jet_matrix(members, points, 4), ref)


def test_jet_matrix_conditioning_backstop(psi_half):
    # m+1 distinct rows stay numerically full rank for m <= 3
    for m in (1, 2, 3):
        members = [BlowupMember(j, psi_half) for j in (2, 4, 8, 16, 32)[: m + 1]]
        mat = jet_matrix(members, [1.0], m)
        assert np.linalg.cond(mat) < 1e12


# -- jet prescription --------------------------------------------------------------


def test_prescribe_jet_order_zero(psi0_default, jet_cache):
    jet = jet_cache(0)
    assert abs(jet.value(jet.p) - 1.0) <= 1e-8


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_prescribe_jet_fd_certificate(jet_cache, m):
    # finite differences of plain v values confirm the jet to 10x jet_tol
    jet = jet_cache(m)
    assert jet.jet_residual <= 1e-8
    for l, err in enumerate(jet.fd_jet_errors):
        assert err <= 1e-7, f"order {l}: fd error {err:.3e}"


def test_jet_vanishes_on_quarter_interval(jet_cache):
    jet = jet_cache(1)
    xs = np.linspace(-jet.vanishing_radius, 0.0, 7)
    np.testing.assert_allclose(jet.value(xs), 0.0, atol=1e-12)
    assert jet.initial_point == -jet.R == -32.0


def test_jet_stationarity(jet_cache):
    jet = jet_cache(2)
    grid = np.linspace(0.3, 3.0, 11)
    assert max(abs(jet.caputo_value(float(x))) for x in grid) <= 1e-5


def test_prescribe_jet_validation(psi0_default):
    with pytest.raises(ValueError):
        prescribe_jet(0.5, psi0_default, 5)
    with pytest.raises(ValueError):
        prescribe_jet(0.5, psi0_default, 2, pool_j=(2, 4))


def test_prescribe_jet_infeasible_tolerance(psi0_default):
    with pytest.raises(JetInfeasibleError, match="residual"):
        prescribe_jet(0.5, psi0_default, 3, jet_tol=1e-18, verify=False)


# -- monomials ------------------------------------------------------------------------


def test_monomial_zero_is_exact_constant(psi0_default):
    approx, report = approximate_monomial(0.5, psi0_default, 0, 2, 1e-3)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(approx.value(xs), 1.0, atol=0.0)
    np.testing.assert_allclose(approx.derivative(1, xs), 0.0, atol=0.0)
    assert approx.caputo_value(0.5) == 0.0
    assert report.achieved == 0.0


def test_monomial_linear(psi0_default, jet_cache):
    approx, report = approximate_monomial(0.5, psi0_default, 1, 0, 1e-2, jet=jet_cache(1))
    xs = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(approx.value(xs) - xs)) < 1e-2
    grid = np.linspace(0.0, 1.0, 21)
    assert max(abs(approx.caputo_value(float(x))) for x in grid) <= 1e-4
    assert report.delta is not None and report.achieved < 1e-2


def test_monomial_delta_linearity(jet_cache):
    jet = jet_cache(1)
    deltas = 0.5 * 0.5 ** np.arange(5)
    errs = [float(monomial_ck_errors(jet, 1, 0, float(d))[0]) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_monomial_budget_to_delta_amplification(psi0_default, jet_cache):
    # l < m errors are delta^(l-m)-amplified jet residuals; the report's
    # achieved error must still respect the budget
    approx, report = approximate_monomial(0.5, psi0_default, 2, 1, 5e-2, jet=jet_cache(2))
    assert report.achieved < 5e-2
    assert sum(report.errors_per_derivative) == pytest.approx(report.achieved)


def test_monomial_underflow_diagnostics(psi0_default, jet_cache):
    with pytest.raises(DeltaUnderflowError, match="delta underflowed"):
        approximate_monomial(0.5, psi0_default, 1, 0, 1e-13, jet=jet_cache(1))


def test_monomial_rescaling_initial_point(psi0_default, jet_cache):
    approx, report = approximate_monomial(0.5, psi0_default, 1, 0, 1e-2, jet=jet_cache(1))
    jet = jet_cache(1)
    assert approx.initial_point == pytest.approx((-jet.p - jet.R) / report.delta)


# -- targets ---------------------------------------------------------------------------


def test_targets_eval_and_derivatives():
    xs = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(SinTarget().eval(xs, 1), np.cos(xs), atol=1e-15)
    np.testing.assert_allclose(ExpTarget().eval(xs, 3), np.exp(xs), atol=1e-15)
    p = PolyTarget([1.0, 0.0, 2.0])
    np.testing.assert_allclose(p.eval(xs, 1), 4.0 * xs, atol=1e-15)
    sampled = SampledTarget(np.linspace(0, 1, 41), np.sin(np.linspace(0, 1, 41)))
    np.testing.assert_allclose(sampled.eval(xs, 0), np.sin(xs), atol=1e-8)
    with pytest.raises(TypeError):
        as_target(lambda x: x)


# -- full pipeline ------------------------------------------------------------------------


def test_approximate_constant_function(psi0_default):
    approx, report = approximate_function(PolyTarget([3.0]), 1, 1e-2, 0.5, psi0_default)
    xs = np.linspace(0.0, 1.0, 50)
    np.testing.assert_allclose(approx.value(xs), 3.0, atol=1e-14)
    assert report.epsilon_achieved <= 1e-12
    assert report.residual_max == 0.0


def test_approximate_square(psi0_default):
    approx, report = approximate_function(PolyTarget([0.0, 0.0, 1.0]), 0, 1e-2, 0.5, psi0_default)
    assert report.ok
    assert report.epsilon_achieved < 1e-2
    assert report.residual_max <= 1e-4
    assert report.polynomial_degree == 2
    # budget accounting: achieved error below the summed stage budgets
    total_budget = report.polynomial_stage_error + sum(
        abs(c) * report.monomial_budgets[m]
        for m, c in ((2, 1.0),)
    )
    assert report.epsilon_achieved <= total_budget + 1e-12


def test_approximate_sin_c1(psi0_default):
    approx, report = approximate_function(SinTarget(), 1, 5e-2, 0.5, psi0_default)
    assert report.ok
    assert report.epsilon_achieved < 5e-2
    assert report.residual_max <= 1e-4
    assert len(report.errors_per_derivative) == 2


def test_degree_cap_failure(psi0_default):
    with pytest.raises(TargetDegreeError, match="increase eps"):
        approximate_function(SinTarget(), 4, 1e-9, 0.5, psi0_default)


def test_prescribe_jet_on_alternative_profile():
    # pipeline is not wired to the default bump: a cubic admissible datum
    from caputo_density.blowup import Psi0Profile
    from caputo_density.piecewise import PiecewisePoly

    c = 64.0 / 27.0
    data = PiecewisePoly(
        [0.0, 0.75, 1.0],
        [[c * 0.421875, -c * 27.0 / 16.0, c * 9.0 / 4.0, -c], [0.0]],
        left_tail=1.0,
    )
    jet = prescribe_jet(0.5, Psi0Profile(data), 1)
    assert jet.jet_residual <= 1e-8
    assert max(jet.fd_jet_errors) <= 1e-7


# the README `approximate --f sin --k 1 --eps 5e-2` run: p per jet order, delta per monomial
README_SIN_P = {1: 1.0, 2: 0.5, 3: 0.5}
README_SIN_DELTA = {0: None, 1: 1.0 / 128.0, 2: 1.0, 3: 1.0 / 8.0}


def test_readme_sin_run_keeps_its_decisions(psi0_default, jet_cache):
    for m, p in README_SIN_P.items():
        assert jet_cache(m).p == p
    _, rep = approximate_function(SinTarget(), 1, 5e-2, 0.5, psi0_default)
    assert rep.delta_per_monomial == README_SIN_DELTA
    assert rep.residual_max <= 1e-10


def test_jet_choice_ignores_rounding_noise(psi0_default, monkeypatch):
    # residuals below jet_tol are 1e-15..1e-13 of noise; a 1e-13 relative
    # change to the matrix must not change which p is taken
    from caputo_density import density_builder

    exact = density_builder.jet_matrix
    rng = np.random.default_rng(0)

    def perturbed(members, points, m):
        matrix = exact(members, points, m)
        return matrix * (1.0 + 1e-13 * rng.choice([-1.0, 1.0], size=matrix.shape))

    monkeypatch.setattr(density_builder, "jet_matrix", perturbed)
    for m, p in README_SIN_P.items():
        assert prescribe_jet(0.5, psi0_default, m, verify=False).p == p
