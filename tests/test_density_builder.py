import functools
import math
import re

import numpy as np
import pytest

from caputo_density import density_builder
from caputo_density.blowup import BlowupMember, build_psi
from caputo_density.density_builder import (
    DELTA_FLOOR,
    ApproximationReport,
    DeltaUnderflowError,
    ExpTarget,
    JetInfeasibleError,
    PolyTarget,
    SampledTarget,
    SinTarget,
    approximate_function,
    approximate_monomial,
    as_target,
    fd_derivative,
    jet_matrix,
    monomial_ck_errors,
    prescribe_jet,
    residual_max,
)


def test_fd_derivative_on_exp():
    for order in (1, 2, 3):
        est = fd_derivative(math.exp, 0.3, order, 0.05, half_width=5)
        assert est == pytest.approx(math.exp(0.3), rel=1e-9)


@pytest.mark.parametrize("order,h,half_width", [
    (3, 0.05, 1),  # more orders than the 3 nodes carry: was a silent 0.0
    (1, 0.0, 4),  # one repeated node: was NaN with RuntimeWarnings
    (-1, 0.05, 4),  # was a bare IndexError
    (1, math.nan, 4),
])
def test_fd_derivative_refuses_bad_stencils(order, h, half_width):
    with pytest.raises(ValueError):
        fd_derivative(math.exp, 0.3, order, h, half_width=half_width)


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
        [mb.j ** (mb.s - l) * psi_half.derivative(l, x / mb.j + 1.0) for l in range(5)]
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


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_fd_certificate_equals_per_order_fd_derivative(jet_cache, m):
    # one value_raw call on the shared 13-node stencil and one Fornberg
    # table give what one fd_derivative per order gives, bit for bit
    jet = jet_cache(m)
    h = 0.06 * min(jet.p, 1.0)
    v_raw = functools.cache(jet.value_raw)
    per_order = tuple(
        abs(fd_derivative(v_raw, jet.p, l, h, half_width=6) - (1.0 if l == m else 0.0))
        for l in range(m + 1)
    )
    assert jet.fd_jet_errors == per_order


def test_prescribe_jet_order_zero(psi0_default, jet_cache):
    jet = jet_cache(0)
    assert abs(jet.value(jet.p) - 1.0) <= 1e-8


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_prescribe_jet_fd_certificate(jet_cache, m):
    # finite differences of plain v values confirm the jet to 10x JET_TOL
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


def test_prescribe_jet_infeasible_tolerance(psi0_default, monkeypatch):
    from caputo_density import density_builder

    monkeypatch.setattr(density_builder, "JET_TOL", 1e-18)
    with pytest.raises(JetInfeasibleError, match="residual"):
        prescribe_jet(0.5, psi0_default, 3)


# -- monomials ------------------------------------------------------------------------


def test_monomial_zero_is_exact_constant(psi0_default):
    approx, report = approximate_monomial(0.5, psi0_default, 0, 2, 1e-3)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(approx.value(xs), 1.0, atol=0.0)
    np.testing.assert_allclose(approx.derivative(1, xs), 0.0, atol=0.0)
    assert approx.caputo_value(0.5) == 0.0
    assert report.epsilon_achieved == 0.0


def test_monomial_linear(psi0_default):
    approx, report = approximate_monomial(0.5, psi0_default, 1, 0, 1e-2)
    xs = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(approx.value(xs) - xs)) < 1e-2
    grid = np.linspace(0.0, 1.0, 21)
    assert max(abs(approx.caputo_value(float(x))) for x in grid) <= 1e-4
    assert report.delta is not None and report.epsilon_achieved < 1e-2


def test_monomial_report_is_the_fit_report(psi0_default):
    # one report type for both routes; the monomial's mass carries m!/delta^m
    approx, report = approximate_monomial(0.5, psi0_default, 1, 0, 1e-2)
    assert type(report) is ApproximationReport and report.ok
    assert report.residual_max == residual_max(approx)
    assert report.initial_point == approx.initial_point
    assert report.terms == approx.A.size
    assert report.coefficient_mass == float(np.sum(np.abs(approx.A)))
    jet = prescribe_jet(0.5, psi0_default, 1)
    sups = monomial_ck_errors(jet, 1, 0, report.delta)
    assert report.errors_per_derivative == tuple(float(e) for e in sups)
    _, fitted = approximate_function(PolyTarget([0.0, 1.0]), 0, 1e-2, 0.5, psi0_default)
    assert fitted.delta is None


def test_monomial_delta_linearity(jet_cache):
    jet = jet_cache(1)
    deltas = 0.5 * 0.5 ** np.arange(5)
    errs = [float(monomial_ck_errors(jet, 1, 0, float(d))[0]) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_monomial_budget_to_delta_amplification(psi0_default):
    # l < m errors are delta^(l-m)-amplified jet residuals; the report's
    # achieved error must still respect the budget
    approx, report = approximate_monomial(0.5, psi0_default, 2, 1, 5e-2)
    assert report.epsilon_achieved < 5e-2
    assert sum(report.errors_per_derivative) == pytest.approx(report.epsilon_achieved)


def test_monomial_underflow_diagnostics(psi0_default):
    with pytest.raises(DeltaUnderflowError, match="delta underflowed"):
        approximate_monomial(0.5, psi0_default, 1, 0, 1e-13)


def test_underflow_quotes_the_best_delta_tried(psi0_default, jet_cache):
    # m = 4 misses 1e-3 at every delta; delta = 2^-6 comes closest, at
    # 3.988e-3, while the last delta tried (about 1.5e-8) reads 1e21
    with pytest.raises(DeltaUnderflowError) as info:
        approximate_monomial(0.5, psi0_default, 4, 0, 1e-3)
    found = re.search(r"best delta tried, (\S+), gives C\^0 error (\S+) ", str(info.value))
    assert found, str(info.value)
    delta, error = float(found[1]), float(found[2])
    assert error < 1e-2
    full = float(np.sum(monomial_ck_errors(jet_cache(4), 4, 0, delta)))
    assert full == pytest.approx(error, rel=1e-3)


def _unscreened_halving(jet, m, k, eps):
    """The delta-halving loop on the full grid at every trial; on underflow
    it quotes the delta of least full-grid error."""
    delta, halvings, best = 1.0, 0, (math.inf, 1.0)
    while True:
        errs = monomial_ck_errors(jet, m, k, delta)
        achieved = float(np.sum(errs))
        if achieved < eps:
            return delta, halvings, tuple(float(e) for e in errs), achieved
        best = min(best, (achieved, delta), key=lambda trial: trial[0])
        delta *= 0.5
        halvings += 1
        if delta < DELTA_FLOOR:
            raise DeltaUnderflowError(
                f"monomial m={m}: delta underflowed below {DELTA_FLOOR:g}; the best "
                f"delta tried, {best[1]:g}, gives C^{k} error {best[0]:.3e} (budget "
                f"{eps:.3e}); the jet residual {jet.jet_residual:.3e} is amplified by "
                f"delta^-{m}"
            )


def _outcome(run):
    try:
        return run()
    except DeltaUnderflowError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_screened_halving_takes_the_unscreened_delta(psi0_default, jet_cache, s, m, k):
    # eps 1e-2 takes 3 to 9 halvings, and underflows at m = 3, k = 2 for
    # s = 0.1, 0.9, where the message must quote the best delta's full-grid
    # error
    jet = jet_cache(m, s=s)

    def screened():
        _, rep = approximate_monomial(s, psi0_default, m, k, 1e-2)
        return rep.delta, round(-math.log2(rep.delta)), rep.errors_per_derivative, \
            rep.epsilon_achieved

    assert _outcome(screened) == _outcome(lambda: _unscreened_halving(jet, m, k, 1e-2))


def test_monomial_rescaling_initial_point(psi0_default, jet_cache):
    approx, report = approximate_monomial(0.5, psi0_default, 1, 0, 1e-2)
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


def test_approximate_sin_c1(psi0_default):
    approx, report = approximate_function(SinTarget(), 1, 5e-2, 0.5, psi0_default)
    assert report.ok
    assert report.epsilon_achieved < 5e-2
    assert report.residual_max <= 1e-4
    assert len(report.errors_per_derivative) == 2


FINE_GRID = np.linspace(0.0, 1.0, 20001)


@pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("target", [SinTarget(), ExpTarget(), PolyTarget([0.0, 0.0, 1.0])],
                         ids=["sin", "exp", "x2"])
def test_fit_meets_tight_eps_across_s(psi0_default, target, k, s):
    eps = 1e-4
    approx, report = approximate_function(target, k, eps, s, psi0_default)
    assert report.ok
    assert report.residual_max <= 1e-4
    assert report.coefficient_mass == pytest.approx(float(np.sum(np.abs(approx.A))))
    # the reported error is a 1000-point surrogate; the sup on 20 001 points meets eps too
    fine = sum(
        float(np.max(np.abs(approx.derivative(l, FINE_GRID) - target.eval(FINE_GRID, l))))
        for l in range(k + 1)
    )
    assert fine < eps


@pytest.mark.parametrize("k", [-1, 5])
def test_approximate_function_refuses_k_out_of_range(psi0_default, k):
    with pytest.raises(ValueError, match="0..4"):
        approximate_function(SinTarget(), k, 1e-2, 0.5, psi0_default)


@pytest.mark.parametrize("call", [
    pytest.param(lambda p: approximate_monomial(0.5, p, 1, 0, math.nan), id="monomial-eps-nan"),
    pytest.param(lambda p: approximate_function(SinTarget(), 0, math.nan, 0.5, p),
                 id="function-eps-nan"),
    pytest.param(lambda p: approximate_monomial(0.5, p, 1, 1.5, 1e-2), id="monomial-k-1.5"),
    pytest.param(lambda p: approximate_function(SinTarget(), 1.5, 1e-2, 0.5, p),
                 id="function-k-1.5"),
    pytest.param(lambda p: approximate_monomial(0.5, p, 1.5, 0, 1e-2), id="monomial-m-1.5"),
    pytest.param(lambda p: prescribe_jet(0.5, p, 1.5), id="jet-m-1.5"),
    pytest.param(lambda p: prescribe_jet(0.5, p, math.nan), id="jet-m-nan"),
])
def test_density_inputs_are_refused_before_any_psi_solve(monkeypatch, psi0_default, call):
    # a NaN eps used to run every trial, and a fractional k or m to die in range()
    def unsolved(*args):
        raise AssertionError("psi built before the inputs were checked")

    monkeypatch.setattr(density_builder, "build_psi", unsolved)
    with pytest.raises(ValueError, match="eps must be positive|must be an integer in 0..4"):
        call(psi0_default)


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


# the p each jet order takes, and the README `approximate --f sin --k 1
# --eps 5e-2` run's pool: rung 1 of the fit ladder, five terms
README_SIN_P = {1: 1.0, 2: 0.5, 3: 0.5}


def test_readme_sin_run_keeps_its_decisions(psi0_default, jet_cache):
    for m, p in README_SIN_P.items():
        assert jet_cache(m).p == p
    _, rep = approximate_function(SinTarget(), 1, 5e-2, 0.5, psi0_default)
    assert rep.terms == 5
    assert rep.residual_max <= 1e-10


def test_jet_choice_ignores_rounding_noise(psi0_default, monkeypatch):
    # residuals below JET_TOL are 1e-15..1e-13 of noise; a 1e-13 relative
    # change to the matrix must not change which p is taken
    from caputo_density import density_builder

    exact = density_builder.jet_matrix
    rng = np.random.default_rng(0)

    def perturbed(members, points, m):
        matrix = exact(members, points, m)
        return matrix * (1.0 + 1e-13 * rng.choice([-1.0, 1.0], size=matrix.shape))

    monkeypatch.setattr(density_builder, "jet_matrix", perturbed)
    for m, p in README_SIN_P.items():
        assert prescribe_jet(0.5, psi0_default, m).p == p
