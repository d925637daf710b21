import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from caputo_density.extension_solver import (
    ExtensionSolution,
    JunctionProximityError,
    solve_extension,
)
from caputo_density.piecewise import polyder, polyval
from caputo_density.profiles import (
    bump_extension_value,
    bump_forcing_value,
    constant_profile,
    quadratic_bump_profile,
    ramp_extension_derivative,
    ramp_extension_value,
    ramp_forcing_value,
    ramp_profile,
)
from caputo_density.special_functions import reflection


# -- the forcing g ------------------------------------------------------------


def test_g_ramp_closed_form():
    sol = solve_extension(ramp_profile(), 0.5)
    assert sol.g_value(2.0) == pytest.approx(2.0 - 2.0 * math.sqrt(2.0), rel=1e-14)
    xs = np.linspace(1.0, 9.0, 33)
    np.testing.assert_allclose(sol.g_value(xs), ramp_forcing_value(xs), atol=1e-13)


def test_g_constant_profile_vanishes():
    prof = constant_profile(2.0, 0.0, 1.0)
    xs = np.linspace(1.0, 5.0, 9)
    np.testing.assert_allclose(solve_extension(prof, 0.5).g_value(xs), 0.0, atol=1e-300)


def test_g_bump_closed_form_and_value_at_junction():
    sol = solve_extension(quadratic_bump_profile(), 0.5)
    # the printed closed form evaluates to 32/27 at t = 1 ((4t-3)^(3/2) = 1 there)
    assert sol.g_value(1.0) == pytest.approx(32.0 / 27.0, rel=1e-14)
    xs = np.linspace(1.0, 6.0, 21)
    np.testing.assert_allclose(sol.g_value(xs), bump_forcing_value(xs), atol=1e-12)


def test_g_rejects_left_of_b():
    with pytest.raises(ValueError):
        solve_extension(ramp_profile(), 0.5).g_value(0.5)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_g_against_quadrature_dual_route(s):
    # closed-form g vs brute-force quadrature of -phi'(t)(x-t)^(-s); the
    # integrand is regular on [0, 3/4] for every x >= 1
    prof = quadratic_bump_profile()
    for x in (1.0, 1.7, 4.0):
        num = -quad(lambda t: prof.derivative_value(t) * (x - t) ** (-s), 0.0, 0.75,
                    limit=200)[0]
        assert solve_extension(prof, s).g_value(x) == pytest.approx(num, rel=1e-8)


@pytest.mark.parametrize("s", [0.3, 0.6])
def test_g_singular_route_for_ramp(s):
    # the ramp's derivative support touches b, so g just above b carries the
    # junction branch; check against high-precision quadrature
    import mpmath

    prof = ramp_profile()
    for x in (1.0 + 1e-4, 1.2):
        with mpmath.workdps(30):
            num = -float(mpmath.quad(lambda t: (x - t) ** (-s), [0, 1]))
        assert solve_extension(prof, s).g_value(x) == pytest.approx(num, rel=1e-10)


# -- the solved extension -----------------------------------------------------


def test_golden_oracle_ramp(ramp_solution, oracle_grid):
    err = np.abs(ramp_solution.value(oracle_grid) - ramp_extension_value(oracle_grid))
    assert err.max() <= 1e-6


def test_golden_oracle_bump(bump_solution, oracle_grid):
    err = np.abs(bump_solution.value(oracle_grid) - bump_extension_value(oracle_grid))
    assert err.max() <= 1e-6


def test_bump_oracle_matches_mpmath():
    # the closed form as written, at 50 digits; in floats its terms cancel like x^2
    def closed(x):
        x = mpmath.mpf(x)
        return (
            27 * mpmath.pi
            + mpmath.sqrt(x - 1) * (52 - 48 * x)
            + mpmath.asin(1 / mpmath.sqrt(x)) * (96 * x**2 - 144 * x)
            - mpmath.asin(1 / mpmath.sqrt(4 * x - 3)) * (96 * x**2 - 144 * x + 54)
        ) / (27 * mpmath.pi)

    near = np.linspace(1.01, 5.0, 400)
    far = np.geomspace(5.0, 1e9, 200)
    with mpmath.workdps(50):
        for x, got in zip(near, bump_extension_value(near)):
            assert abs(mpmath.mpf(float(got)) - closed(x)) <= 5e-16, x
        for x, got in zip(far, bump_extension_value(far)):
            want = closed(x)
            assert abs(mpmath.mpf(float(got)) - want) <= 1e-12 * abs(want), x
    assert float(bump_extension_value(1.0)) == 0.0


@pytest.mark.parametrize("s", [0.002, 0.5, 0.998])
def test_forcing_at_b_is_g_value_bit_for_bit(s):
    from caputo_density.blowup import Psi0Profile, build_psi
    from caputo_density.piecewise import PiecewisePoly

    cubic = PiecewisePoly.single([0.0, 1.0, 0.5, -0.4], 0.0, 1.0)
    solutions = [build_psi(s, Psi0Profile.default_quadratic())]
    solutions += [solve_extension(prof, s) for prof in (ramp_profile(), quadratic_bump_profile(), cubic)]
    for sol in solutions:
        want = sol.g_value(sol.b)
        assert type(sol._g_at_b) is float
        assert np.float64(sol._g_at_b).tobytes() == np.float64(want).tobytes()
        assert sol._g_at_b is sol._g_at_b  # taken once


def test_value_matches_data_left_of_b(bump_solution):
    assert bump_solution.value(0.5) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert bump_solution.value(1.0) == 0.0
    assert bump_solution.value(-3.0) == 1.0


def test_continuity_at_junction(ramp_solution):
    eps = 1e-9
    assert ramp_solution.value(1.0 + eps) == pytest.approx(1.0, abs=1e-4)
    assert ramp_solution.value(1.0) == 1.0


def test_constant_profile_extends_constant():
    sol = solve_extension(constant_profile(7.0, 0.0, 1.0), 0.5)
    xs = np.linspace(1.0, 6.0, 13)
    np.testing.assert_allclose(sol.value(xs), 7.0, atol=1e-12)
    for n in (1, 2, 3):
        assert sol.derivative(n, 3.0) == pytest.approx(0.0, abs=1e-12)


def test_bump_value_confirmed_by_independent_quadrature():
    # psi(2) from the closed form, confirmed by swapping the two integrals:
    # u(x) = phi(b) - (sin pi s/pi) int_a^b phi'(tau) I((b-tau)/(x-tau)) dtau
    # with I(z) = int_z^1 w^(-s)(1-w)^(s-1) dw, an incomplete Beta value.
    s = 0.5
    x = 2.0
    prof = quadratic_bump_profile()
    norm = reflection(s)

    def inner(tau):
        z = (1.0 - tau) / (x - tau)
        return norm * (1.0 - betainc(1.0 - s, s, z))

    val, err = quad(lambda tau: prof.derivative_value(tau) * inner(tau), 0.0, 0.75, limit=400)
    independent = 0.0 - (1.0 / math.pi) * val  # phi(b) = 0
    closed = float(bump_extension_value(x))
    assert independent == pytest.approx(closed, abs=1e-9)
    assert closed == pytest.approx(0.5502526800, abs=1e-9)


def test_raw_and_fast_paths_agree(ramp_solution, bump_solution):
    for sol in (ramp_solution, bump_solution):
        for x in (1.05, 1.8, 3.3, 5.0):
            assert sol.raw_value(x) == pytest.approx(float(sol.value(x)), abs=1e-12)


def test_extension_residuals(ramp_solution, bump_solution):
    grid = np.linspace(1.05, 5.0, 50)
    for sol in (ramp_solution, bump_solution):
        res = max(abs(sol.caputo_value(float(x))) for x in grid)
        assert res <= 1e-5


def test_caputo_value_near_a_is_exact(ramp_solution):
    # on [a, b] the ramp's D^s u is x^(1-s)/Gamma(2-s); near a = 0 the
    # distance x - a must not be rounded to a multiple of ulp(b)
    xs = np.array([1e-300, 1e-12, 1e-6, 0.5, 1.0])
    with mpmath.workdps(30):
        want = [float(mpmath.mpf(x) ** 0.5 / mpmath.gamma(1.5)) for x in xs]
    got = ramp_solution.caputo_value(xs)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert ramp_solution.caputo_value(1e-12) == got[1]


# -- derivatives ---------------------------------------------------------------


def test_derivative_order_zero_matches_value(ramp_solution):
    for y in (1.3, 2.7):
        assert ramp_solution.derivative(0, y) == pytest.approx(
            float(ramp_solution.value(y)), abs=1e-9
        )


def test_first_derivative_ramp_closed_form(ramp_solution):
    # d/dx of (2/pi)(x arcsin(1/sqrt x) - sqrt(x-1)) at 2 is 1/2 - 2/pi
    val = ramp_solution.derivative(1, 2.0)
    assert val == pytest.approx(0.5 - 2.0 / math.pi, abs=1e-10)
    ys = np.linspace(1.1, 4.0, 7)
    for y in ys:
        assert ramp_solution.derivative(1, float(y)) == pytest.approx(
            float(ramp_extension_derivative(y)), abs=1e-9
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derivative_consistency_with_finite_differences(bump_solution, n):
    h = 1e-2
    stencil = np.arange(-4, 5)
    from caputo_density.density_builder import _fornberg_weights

    for y in (1.5, 2.5, 4.0):
        nodes = y + h * stencil
        w = _fornberg_weights(y, nodes, n)
        fd = float(w @ bump_solution.value(nodes))
        val = bump_solution.derivative(n, y)
        scale = max(1.0, abs(val))
        assert abs(val - fd) <= 1e-5 * scale


def test_first_derivative_fd_tolerance_band(ramp_solution):
    # spec band: |d - fd| <= max(1e-5, 10 h^2 |u'''|) at h = 1e-4
    h = 1e-4
    for y in np.linspace(1.1, 4.0, 6):
        fd = (float(ramp_solution.value(y + h)) - float(ramp_solution.value(y - h))) / (2 * h)
        d = ramp_solution.derivative(1, float(y))
        u3 = abs(ramp_solution.derivative(3, float(y)))
        assert abs(d - fd) <= max(1e-5, 10.0 * h * h * u3)


def test_fast_derivative_matches_direct(bump_solution):
    # the tables interpolate H_n between their nodes: at off-node points they
    # match P^(n) + xi^(s-n) H_n with H_n by direct quadrature
    sol = bump_solution
    for n in (1, 2, 3):
        ys = np.array([1.2, 2.0, 3.5])
        fast = sol.derivative(n, ys)
        xi = ys - sol.b
        direct = (polyval(xi, polyder(sol.junction_polynomial, n))
                  + xi ** (sol.s - n) * sol._smooth_factor_quad(n, xi))
        np.testing.assert_allclose(fast, direct, rtol=1e-8, atol=1e-10)


def test_batched_derivative_matches_scalar_calls(bump_solution):
    # one table read for the array; each value is its scalar call's
    ys = np.array([3.5, 1.002, 2.0, 1.2, 40.0])
    for n in (0, 1, 2, 4):
        batched = bump_solution.derivative(n, ys)
        assert isinstance(batched, np.ndarray) and batched.shape == ys.shape
        for y, value in zip(ys, batched):
            scalar = bump_solution.derivative(n, float(y))
            assert type(scalar) is float and scalar == value
    with pytest.raises(JunctionProximityError):
        bump_solution.derivative(1, np.array([2.0, 1.0 + 5e-4]))


def test_junction_guard_and_order_cap(ramp_solution):
    with pytest.raises(JunctionProximityError):
        ramp_solution.derivative(1, 1.0 + 1e-4)
    with pytest.raises(ValueError):
        ramp_solution.derivative(9, 2.0)
    with pytest.raises(ValueError):
        ramp_solution.derivative(1, 0.5)


@pytest.mark.parametrize("n", [-1, 1.5, 9])
def test_bad_orders_are_refused_before_any_table(n):
    from caputo_density.blowup import Combination

    sol = solve_extension(quadratic_bump_profile(), 0.3)
    sol.smooth_factor(1, 2.0)
    before = sol._state
    reads = {
        "derivative": lambda: sol.derivative(n, 2.0),
        "derivative_fast": lambda: sol.derivative_fast(n, 2.0),
        "smooth_factor": lambda: sol.smooth_factor(n, 1.0),
        "Combination.derivative": lambda: Combination(sol, [1.0], [0.5], [1.5]).derivative(n, 1.0),
        "bare constant": lambda: Combination(None, (), (), (), 1.0).derivative(n, 0.5),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, read in reads.items():
            with pytest.raises(ValueError, match="derivative order"):
                read()
            assert sol._state is before and sorted(before[1]) == [1], name


def test_fast_derivative_junction_guard(ramp_solution):
    assert ExtensionSolution.derivative_fast is ExtensionSolution.derivative
    with pytest.raises(JunctionProximityError):
        ramp_solution.derivative_fast(1, 1.0 + 1e-4)
    with pytest.raises(JunctionProximityError):
        ramp_solution.derivative_fast(2, np.array([2.0, 1.0 + 5e-4]))
    # order 0 is the value, bounded at the junction
    assert ramp_solution.derivative_fast(0, 1.0 + 1e-4) == pytest.approx(
        float(ramp_solution.value(1.0 + 1e-4)), abs=1e-14
    )
    assert np.isfinite(ramp_solution.derivative_fast(1, 1.0 + 2e-3))


def test_every_evaluator_takes_an_empty_array(ramp_solution):
    empty = np.array([])
    for n in (0, 1, 2):
        for got in (ramp_solution.derivative_fast(n, empty), ramp_solution.derivative(n, empty),
                    ramp_solution.smooth_factor(n, empty)):
            assert isinstance(got, np.ndarray) and got.shape == (0,), n
    for got in (ramp_solution.value(empty), ramp_solution.caputo_value(empty),
                ramp_solution.raw_value(empty)):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_an_empty_read_builds_no_table():
    # the fit's constant rung reads order 1 at no point; that read must not
    # build H_1 on the first panel alone, to be grown again by the next read
    sol = solve_extension(quadratic_bump_profile(), 0.3)
    edges, tables = sol._state
    assert sol.derivative_fast(1, np.array([])).shape == (0,)
    assert sol.smooth_factor(2, []).shape == (0,)
    assert np.array_equal(sol._state[0], edges) and sol._state[1] == tables == {}


def test_reads_at_inf_are_refused_before_any_growth():
    sol = solve_extension(quadratic_bump_profile(), 0.3)
    sol.value(np.array([1.5, 3.0]))
    before = sol._state
    reads = {
        "value": lambda x: sol.value(x),
        "derivative_fast": lambda x: sol.derivative_fast(1, x),
        "smooth_factor": lambda x: sol.smooth_factor(1, x - sol.b),
        "caputo_value": lambda x: sol.caputo_value(x),
        "raw_value": lambda x: sol.raw_value(x),
        "derivative": lambda x: sol.derivative(1, x),
        "g_value": lambda x: sol.g_value(x),
    }
    # raw_value's deepest gauss_ladder rule resolves points up to 2^59 gaps
    # right of b, and every read, table reads included, refuses points beyond
    reach = 2.0**59 * (sol.b - sol.profile.breakpoints[-2])
    refused = [(np.inf, r"\+inf"), (np.array([2.0, np.inf, 1.5]), r"\+inf"),
               (sol.b + 2.0 * reach, r"reaches 2\^59 gaps"),
               (np.array([2.0, 1e300, 1.5]), r"reaches 2\^59 gaps")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, read in reads.items():
            for x, message in refused:
                with pytest.raises(ValueError, match=message):
                    read(x)
                assert sol._state is before, name
        # left of b a table would extrapolate its first panel (1.57e38 at
        # xi = -10 for the bump at s = 1/2)
        for xi in (-10.0, np.array([0.5, -1e-300, 40.0])):
            with pytest.raises(ValueError, match="xi >= 0"):
                sol.smooth_factor(0, xi)
            assert sol._state is before
        # a NaN hides the far point from max; it is refused all the same
        with pytest.raises(ValueError, match=r"reaches 2\^59 gaps"):
            sol.value(np.array([np.nan, 1e300]))
        # a NaN still reads NaN
        assert math.isnan(sol.g_value(np.nan))
        assert np.isnan(sol.g_value(np.array([2.0, np.nan]))[1])
        # the farthest point the rules reach is still read
        assert np.isfinite(sol.raw_value(sol.b + reach))
        assert np.isfinite(sol.g_value(sol.b + reach))


def _nan_batch_reads(sol):
    """Every evaluator of a solution, as a function of x."""
    return {
        "value": sol.value,
        "derivative_fast": lambda x: sol.derivative_fast(1, x),
        "derivative 1": lambda x: sol.derivative(1, x),
        "derivative 3": lambda x: sol.derivative(3, x),
        "smooth_factor": lambda x: sol.smooth_factor(1, x - sol.b),
        "caputo_value": sol.caputo_value,
        "raw_value": sol.raw_value,
        "g_value": sol.g_value,
    }


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
def test_a_nan_in_a_batch_does_not_stop_growth(grown):
    # a NaN is not the batch's largest point: taken as one, no table grows
    # and a point past the built panels reads their extrapolation (4.5e17
    # at x = 2)
    for x in (2.0, 5.0):
        for name in _nan_batch_reads(solve_extension(quadratic_bump_profile(), 0.3)):
            alone = _nan_batch_reads(solve_extension(quadratic_bump_profile(), 0.3))[name](x)
            sol = solve_extension(quadratic_bump_profile(), 0.3)
            if grown:
                sol.value(1.8)  # panels up to b + 0.875 only
            got = _nan_batch_reads(sol)[name](np.array([x, np.nan]))
            assert got[0] == alone and np.isnan(got[1]), (name, x)


def test_junction_power_behavior(ramp_solution):
    # (u(b+eps) - u(b))/eps^s tends to a finite nonzero limit when g(b) != 0;
    # for the ramp the limit is -4/pi
    limit = -4.0 / math.pi
    for eps in (1e-4, 1e-6):
        ratio = (float(ramp_solution.value(1.0 + eps)) - 1.0) / math.sqrt(eps)
        assert ratio == pytest.approx(limit, rel=5e-2)
    eps = 1e-8
    ratio = (float(ramp_solution.value(1.0 + eps)) - 1.0) / math.sqrt(eps)
    assert ratio == pytest.approx(limit, rel=1e-3)


def test_lazy_table_extension(bump_solution):
    far = 17.0  # 16 past b: panels are built out to it on demand
    assert float(bump_solution.value(far)) == pytest.approx(
        float(bump_extension_value(far)), abs=1e-8
    )


def test_concurrent_reads_beyond_the_range_match_one_thread():
    # each thread reaches its own distance past the last panel, so the tables grow
    # in an order that depends on the scheduling; no read may see it
    def reads(sol, i):
        xs = 1.0 + np.linspace(0.5, 12.0 + 9.0 * i, 64)
        return sol.value(xs), sol.smooth_factor(1, xs[::-1] + 3.0 * i)

    expected = [reads(solve_extension(quadratic_bump_profile(), 0.3), i) for i in range(8)]
    sol = solve_extension(quadratic_bump_profile(), 0.3)
    start = threading.Barrier(8, timeout=60.0)
    results = [None] * 8

    def work(i):
        start.wait()
        results[i] = reads(sol, i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _independent_extension_value(prof, s, x, dps=30):
    """Swap the two integrals: u(x) = phi(b) - (sin pi s/pi) *
    int_a^b phi'(tau) I((b-tau)/(x-tau)) dtau with I an incomplete Beta
    value, evaluated in high-precision arithmetic."""
    import mpmath

    with mpmath.workdps(dps):
        sf = mpmath.sin(mpmath.pi * s) / mpmath.pi

        def inner(tau):
            z = (prof.hi - tau) / (x - tau)
            return mpmath.beta(1 - s, s) * (
                1 - mpmath.betainc(1 - s, s, 0, z, regularized=True)
            )

        stops = [float(t) for t in prof.breakpoints]
        val = mpmath.quad(lambda t: prof.derivative_value(float(t)) * inner(t), stops)
        return float(prof.value(prof.hi) - sf * val)


@pytest.mark.parametrize("s", [0.1, 0.9])
@pytest.mark.parametrize("make", [ramp_profile, quadratic_bump_profile])
def test_extreme_orders_against_independent_oracle(s, make):
    prof = make()
    sol = solve_extension(prof, s)
    for x in (1.05, 3.0):
        ref = _independent_extension_value(prof, s, x)
        assert float(sol.value(x)) == pytest.approx(ref, abs=5e-10)
        assert sol.raw_value(x) == pytest.approx(ref, abs=1e-9)
    grid = np.linspace(1.05, 5.0, 9)
    assert max(abs(sol.caputo_value(float(g))) for g in grid) <= 1e-6


# -- randomized profiles ---------------------------------------------------------


def _random_profile(breaks, rows):
    """Continuous piecewise-cubic data on [0, 1] from raw coefficients."""
    from caputo_density.piecewise import PiecewisePoly

    bp = np.concatenate([[0.0], np.asarray(breaks), [1.0]])
    coeffs = []
    value = rows[0][0]
    for j, row in enumerate(rows[: bp.size - 1]):
        c = [value, row[1], row[2], row[3]]
        coeffs.append(c)
        w = bp[j + 1] - bp[j]
        value = ((c[3] * w + c[2]) * w + c[1]) * w + c[0]
    return PiecewisePoly(bp, coeffs)


from hypothesis import given, settings
from hypothesis import strategies as st

_row = st.tuples(*(st.floats(min_value=-2.0, max_value=2.0) for _ in range(4)))


@given(
    st.lists(st.floats(min_value=0.15, max_value=0.85), min_size=0, max_size=2,
             unique=True).map(sorted).filter(
        lambda xs: all(b - a >= 0.08 for a, b in zip(xs, xs[1:]))),
    st.lists(_row, min_size=3, max_size=3),
    st.floats(min_value=0.2, max_value=0.8),
)
@settings(max_examples=6, deadline=None)
def test_random_profiles_solve_consistently(breaks, rows, s):
    prof = _random_profile(breaks, rows)
    sol = solve_extension(prof, s)
    # junction law: u(b+eps) - phi(b) = eps^s H(0) + higher order
    eps = 1e-10
    dev = abs(float(sol.value(1.0 + eps)) - prof.value(prof.hi))
    h0 = abs(float(sol.smooth_factor(0, 0.0)[0]))
    assert dev <= (h0 + 0.5) * eps**s + 1e-10
    # representation-formula path agrees with the cached expansion
    for x in (1.3, 2.4):
        assert sol.raw_value(x) == pytest.approx(float(sol.value(x)), abs=1e-7)
    # the delivered solution is stationary
    for x in (1.2, 2.0):
        assert abs(sol.caputo_value(x)) <= 1e-6
