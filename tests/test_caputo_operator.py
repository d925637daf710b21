import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from caputo_density import caputo_operator
from caputo_density.caputo_operator import caputo_derivative, caputo_residual
from caputo_density.piecewise import PiecewisePoly
from caputo_density.profiles import constant_profile, linear_profile, ramp_profile
from caputo_density.special_functions import gamma


def test_constant_is_stationary():
    prof = constant_profile(3.0, 0.0, 2.0)
    for x in (0.5, 1.0, 2.0):
        assert caputo_derivative(prof, 0.0, 0.5, x) == 0.0


def test_causality_exact_zero():
    prof = linear_profile(0.0, 2.0)
    assert caputo_derivative(prof, 0.0, 0.5, 0.0) == 0.0
    assert caputo_derivative(prof, 0.0, 0.5, -4.0) == 0.0


def test_nan_point_reads_nan_not_stationary(ramp_solution, jet_cache):
    # NaN > a is false, which once sent a NaN point down the causal-zero branch
    xs = np.array([1.5, np.nan, 0.5])
    prof = linear_profile(0.0, 2.0)
    jet = jet_cache(1)
    for name, read in {
        "profile": lambda x: caputo_derivative(prof, 0.0, 0.5, x),
        "solution": ramp_solution.caputo_value,
        "solution via caputo_derivative": lambda x: caputo_derivative(ramp_solution, 0.0, 0.5, x),
        "combination": jet.caputo_value,
    }.items():
        assert np.isnan(read(np.nan)), name
        got = read(xs)
        assert np.isnan(got[1]) and got[0] == read(1.5) and got[2] == read(0.5), name


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_linear_closed_form(s, x):
    # D_0^s t = x^(1-s) / Gamma(2-s)
    prof = linear_profile(0.0, 2.0)
    expect = x ** (1.0 - s) / gamma(2.0 - s)
    assert caputo_derivative(prof, 0.0, s, x) == pytest.approx(expect, abs=1e-8)


def test_linear_at_one_value():
    prof = linear_profile(0.0, 2.0)
    assert caputo_derivative(prof, 0.0, 0.5, 1.0) == pytest.approx(
        1.0 / gamma(1.5), rel=1e-12
    )


coeff = st.floats(min_value=-2.0, max_value=2.0)


@given(st.lists(coeff, min_size=2, max_size=4), st.lists(coeff, min_size=2, max_size=4),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=60)
def test_linearity(c1, c2, alpha, beta_):
    u = PiecewisePoly.single(c1, 0.0, 1.5)
    v = PiecewisePoly.single(c2, 0.0, 1.5)
    # alpha c1 + beta c2, the shorter list padded with zeros
    n = max(len(c1), len(c2))
    combo = PiecewisePoly.single(
        alpha * np.pad(c1, (0, n - len(c1))) + beta_ * np.pad(c2, (0, n - len(c2))), 0.0, 1.5
    )
    for x in (0.4, 1.1):
        lhs = caputo_derivative(combo, 0.0, 0.5, x)
        rhs = alpha * caputo_derivative(u, 0.0, 0.5, x) + beta_ * caputo_derivative(
            v, 0.0, 0.5, x
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_reference_solution_is_stationary(ramp_solution):
    # D_0^(1/2) of the solved ramp extension vanishes on (1, inf)
    assert abs(caputo_derivative(ramp_solution, 0.0, 0.5, 2.0)) <= 1e-5


def test_residual_tables(ramp_solution):
    grid = np.linspace(1.05, 5.0, 50)
    report = caputo_residual(ramp_solution, 0.0, 0.5, grid)
    assert report.max_abs <= 1e-5
    assert report.values.shape == (50,)

    const = constant_profile(1.0, 0.0, 1.0)
    rep2 = caputo_residual(const, 0.0, 0.5, [0.5, 1.0])
    assert rep2.max_abs == 0.0


def test_residual_grid_validation(ramp_solution):
    with pytest.raises(ValueError):
        caputo_residual(ramp_solution, 0.0, 0.5, [])
    with pytest.raises(ValueError):
        caputo_residual(ramp_solution, 0.0, 0.5, [-1.0, 2.0])


def test_order_mismatch_rejected(ramp_solution):
    with pytest.raises(ValueError, match="does not match"):
        caputo_derivative(ramp_solution, 0.0, 0.25, 2.0)


def test_initial_point_inside_memory_rejected(ramp_solution):
    with pytest.raises(ValueError, match="memory"):
        caputo_derivative(ramp_solution, 0.5, 0.5, 2.0)


def test_earlier_initial_point_is_exact(ramp_solution):
    # data constant on (-inf, 0]: starting the memory earlier changes nothing
    v1 = caputo_derivative(ramp_solution, 0.0, 0.5, 2.0)
    v2 = caputo_derivative(ramp_solution, -5.0, 0.5, 2.0)
    assert v1 == v2


def test_generic_evaluator_path():
    # u = sin on [0, x], u' = cos supplied analytically; scipy weighted oracle
    s = 0.4
    x = 1.3
    val = caputo_derivative(np.sin, 0.0, s, x, u_prime=np.cos)
    ref = quad(np.cos, 0.0, x, weight="alg", wvar=(0.0, -s), limit=200)[0] / gamma(1.0 - s)
    assert val == pytest.approx(ref, rel=1e-9)


def test_generic_requires_derivative():
    with pytest.raises(TypeError, match="u_prime"):
        caputo_derivative(np.sin, 0.0, 0.5, 1.0)


def test_data_only_profile_rejects_beyond_b():
    prof = linear_profile(0.0, 1.0)
    with pytest.raises(ValueError, match="extension"):
        caputo_derivative(prof, 0.0, 0.5, 2.0)


def test_residual_dispatch_over_blowup_and_jet_objects(psi_half, jet_cache):
    from caputo_density.blowup import BlowupMember

    member = BlowupMember(4, psi_half)
    grid = np.linspace(0.5, 3.0, 7)
    rep = caputo_residual(member, -4.0, 0.5, grid)
    assert rep.max_abs <= 1e-5

    jet = jet_cache(1)
    rep2 = caputo_residual(jet, jet.initial_point, 0.5, grid)
    assert rep2.max_abs <= 1e-5


def _poly_profile():
    # what `derivative --poly 1,2,-0.5,0.25 --a -1 --b 2` differentiates
    return PiecewisePoly.single([1.0, 2.0, -0.5, 0.25], -1.0, 2.0)


@pytest.mark.parametrize("make,s", [
    (lambda: linear_profile(0.0, 2.0), 0.5),
    (ramp_profile, 0.3),
    (_poly_profile, 0.7),
], ids=["linear", "ramp", "poly"])
def test_array_call_equals_the_scalar_loop_bit_for_bit(make, s):
    prof = make()
    grid = np.concatenate([np.linspace(prof.lo - 1.0, prof.hi, 61), [prof.lo, prof.hi]])
    got = caputo_derivative(prof, prof.lo, s, grid)
    want = np.array([caputo_derivative(prof, prof.lo, s, float(x)) for x in grid])
    assert got.shape == grid.shape and got.tobytes() == want.tobytes()
    assert np.all(got[grid <= prof.lo] == 0.0) and np.any(got != 0.0)
    assert caputo_derivative(prof, prof.lo, s, grid.reshape(3, 3, 7)).tobytes() == want.tobytes()


def test_array_call_of_a_plain_evaluator_equals_the_scalar_loop():
    grid = np.array([-1.0, 0.0, 0.3, 1.3])
    got = caputo_derivative(np.sin, 0.0, 0.4, grid, u_prime=np.cos)
    want = [caputo_derivative(np.sin, 0.0, 0.4, float(x), u_prime=np.cos) for x in grid]
    assert got.tolist() == want and got[0] == got[1] == 0.0


def test_array_call_refuses_any_point_beyond_the_data():
    prof = linear_profile(0.0, 1.0)
    with pytest.raises(ValueError, match="extension"):
        caputo_derivative(prof, 0.0, 0.5, np.array([0.5, 1.0, 1.0 + 1e-9]))


def test_scalar_call_returns_a_float():
    prof = linear_profile(0.0, 2.0)
    for x in (1.0, 0.0, -3.0, np.float64(1.5)):
        assert type(caputo_derivative(prof, 0.0, 0.5, x)) is float


def test_residual_of_data_is_one_closed_form_call(monkeypatch):
    calls = []
    inner = caputo_operator.poly_abel_integral

    def counted(pieces, x, e):
        calls.append(np.size(x))
        return inner(pieces, x, e)

    monkeypatch.setattr(caputo_operator, "poly_abel_integral", counted)
    rep = caputo_residual(ramp_profile(), 0.0, 0.5, np.linspace(0.05, 1.0, 20))
    assert calls == [20]
    assert rep.values.shape == (20,)
