"""The Chebyshev tables of H_n and the representation-formula path raw_value.

H_n(xi) = (sin pi s/pi) [xi^n int_0^1 G_reg^(n)(b + xi w) (1-w)^(s-1) dw
                         + sum_{i<n} ctilde_{s,i} G_reg^(i)(b) xi^i]

is checked against mpmath at 30 digits, with v = (1-w)^s turning the
integral into int_0^1 G_reg^(n)(b + xi (1 - v^(1/s))) dv / s, whose
endpoint singularity is gone. G_reg^(n) is built in mpmath from the data
pieces (``_forcing_reference``), not from the solver. The error is measured
against the size of what H_n sums, M_n(xi) = the same expression with
every data piece's part of G_reg and every term of the boundary sum
taken in absolute value. For the ramp and the bump M_n = |H_n| up to
the boundary sum's cancellation against the integral.

raw_value integrates the full g, junction branch included, in the same
variable: u(x) = phi(b) + (sin pi s/pi) xi^s int_0^1 g(b + xi (1 - v^(1/s))) dv / s.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from caputo_density import extension_solver
from caputo_density.extension_solver import (
    _RAW_DEPTH,
    ExtensionSolution,
    _cheb_fit,
    _clenshaw,
    _ctilde,
    solve_extension,
)
from caputo_density.piecewise import PiecewisePoly, polyval
from caputo_density.profiles import builtin_profile, quadratic_bump_profile, ramp_profile
from caputo_density.singular_quadrature import jacobi_end_rule, unit_rule


def _tabulated(sol):
    """sol with orders 0 and 1 read out to 10(b - a), so that its state
    holds both tables over every panel up to there."""
    for n in (0, 1):
        sol.smooth_factor(n, 10.0 * (sol.b - sol.a))
    return sol


def _forcing_reference(sol, n, branch=False):
    """z -> each data piece's part of -(-s)_n int phi'(t) (x - t)^(-s-n) dt
    at x = b + z, in mpmath from the data pieces alone; build and call it
    inside one ``mpmath.workdps``.

    A piece p(t) = sum_k c_k (t - tau)^k is re-expanded about x, p(x - v) =
    sum_j a_j v^j, and integrated exactly, sum_j a_j [v^(j+e+1)/(j+e+1)]
    from v = x - min(tau_hi, x) to x - tau, e = -s - n. That is g^(n) if
    ``branch``; otherwise the last piece runs on to x and its end there,
    which carries g's junction branch, is dropped: G_reg^(n). Far from b
    the sum over j cancels like (x/length)^k, which 30 digits absorb out
    to x ~ 1e4.
    """
    s = mpmath.mpf(sol.s)
    e, factor, b = -s - n, -mpmath.ff(-s, n), mpmath.mpf(sol.b)
    pieces = list(sol.profile.derivative_pieces())
    data = [(mpmath.mpf(lo), mpmath.mpf(hi), [mpmath.mpf(ck) for ck in c],
             index == len(pieces) - 1 and not branch)
            for index, (lo, hi, c) in enumerate(pieces) if any(c)]

    def parts(z):
        x, out = b + z, []
        for lo, hi, c, continued in data:
            d, part = x - lo, 0
            for j in range(len(c)):
                a = mpmath.fsum(c[k] * math.comb(k, j) * d ** (k - j) for k in range(j, len(c)))
                q = j + e + 1
                end = 0 if continued or x == hi else (x - hi) ** q
                part += (-1) ** j * a * (d**q - end) / q
            out.append(factor * part)
        return out

    return parts


def _reference_h(sol, n, xi):
    """(H_n(xi), M_n(xi)) in mpmath from the data pieces."""
    s = sol.s
    with mpmath.workdps(30):
        sm, x = mpmath.mpf(s), mpmath.mpf(xi)
        forcing = _forcing_reference(sol, n)
        parts = functools.lru_cache(None)(lambda v: forcing(x * (1 - v ** (1 / sm))))
        value = mpmath.quad(lambda v: mpmath.fsum(parts(v)), [0, 1]) / sm
        size = mpmath.quad(lambda v: mpmath.fsum(abs(t) for t in parts(v)), [0, 1]) / sm
        bnd = [_ctilde(s, n, i) * mpmath.fsum(_forcing_reference(sol, i)(0)) * x**i
               for i in range(n)]
        sf = mpmath.sin(mpmath.pi * sm) / mpmath.pi
        h = sf * (x**n * value + mpmath.fsum(bnd))
        m = sf * (x**n * size + mpmath.fsum(abs(b) for b in bnd))
        return float(h), float(m)


@pytest.mark.parametrize("s", [0.002, 0.02, 0.1, 0.5, 0.9, 0.98, 0.998])
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_tables_match_mpmath(name, s):
    sol = _tabulated(solve_extension(builtin_profile(name), s))
    edges, _ = sol._state
    for n in (0, 1):
        for p in (0, edges.size // 2 - 1, edges.size - 2):  # first, middle, last panel
            xi = edges[p] + 0.3 * (edges[p + 1] - edges[p])
            h, m = _reference_h(sol, n, xi)
            assert abs(sol.smooth_factor(n, xi)[0] - h) <= 1e-13 * m, (n, p)


@pytest.mark.parametrize("make", [quadratic_bump_profile, ramp_profile])
def test_regular_part_matches_mpmath(make):
    # G_reg^(i) from b out to 4000 gaps; the ramp's last piece is continued
    # past b, its end at the point dropped
    sol = solve_extension(make(), 0.3)
    xi = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 57)])
    for i in range(4):
        with mpmath.workdps(30):
            forcing = _forcing_reference(sol, i)
            want = np.array([float(mpmath.fsum(forcing(mpmath.mpf(z)))) for z in xi])
        error = np.abs(sol._forcing(i, xi) - want) / np.abs(want)
        # ten times the largest measured, 3.5e-15 (bump, i = 3)
        assert np.all(error <= 4e-14), (i, error)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.98])
def test_bump_tables_far_from_b_match_mpmath(s):
    # far from b the bump's data piece is short against its distance, where
    # the power rule's terms cancel like (distance/length)^k; the largest
    # measured error is 7.1e-15
    sol = solve_extension(quadratic_bump_profile(), s)
    for n, gaps in ((0, 64), (1, 64), (0, 256)):
        h, _ = _reference_h(sol, n, gaps * sol._branch_gap)
        assert abs(sol.smooth_factor(n, gaps * sol._branch_gap)[0] - h) <= 5e-14 * abs(h), n


@pytest.mark.parametrize("s", [0.1, 0.5, 0.98])
def test_higher_order_tables_match_mpmath(s):
    # the jets read orders 2..4 out to xi = 1 and the fit's last rung
    # (c = 50, L = 1) out to xi = 51. Measured: |error|/M_n <= 1.2e-15
    # everywhere and |error|/|H_n| <= 1.3e-14 for xi <= 1; at xi = 51 the
    # boundary sum cancels against the integral, and H_4 errs by up to
    # 8.9e-9 relative
    sol = solve_extension(quadratic_bump_profile(), s)
    for n in (2, 3, 4):
        for xi in (2.0**-6, 1.0, 51.0):
            h, m = _reference_h(sol, n, xi)
            error = abs(sol.smooth_factor(n, xi)[0] - h)
            assert error <= 1e-14 * m, (n, xi)
            if xi <= 1.0:
                assert error <= 1.3e-13 * abs(h), (n, xi)


@pytest.mark.parametrize("x", [1e4, 1e7, 1e9])
def test_bump_g_far_from_b_matches_its_closed_form(x):
    # -(16/27)(8 x^(3/2) - 9 x^(1/2) - (4x - 3)^(3/2)) at s = 1/2, whose terms
    # cancel like x^2, evaluated at 60 digits; the largest measured error
    # is 1.7e-16
    with mpmath.workdps(60):
        t = mpmath.mpf(x)
        want = float(-mpmath.mpf(16) / 27 * (8 * t**1.5 - 9 * mpmath.sqrt(t) - (4 * t - 3) ** 1.5))
    got = solve_extension(quadratic_bump_profile(), 0.5).g_value(x)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_clenshaw_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    for length in range(3, 41):
        c = rng.standard_normal(length) * 10.0 ** rng.uniform(-8.0, 8.0, length)
        x = rng.uniform(-1.0, 1.0, 257)
        assert np.array_equal(_clenshaw(x, c), np.polynomial.chebyshev.chebval(x, c)), length


def test_cheb_fit_is_the_exact_interpolation_matrix():
    # the DCT-I matrix (2/23) T_k(x_j), halved in the end rows and columns,
    # at 40 digits; numpy's least-squares chebfit errs by up to 3.85e-16
    nodes, fit = _cheb_fit()
    assert nodes.tobytes() == np.polynomial.chebyshev.chebpts2(24).tobytes()
    assert fit.shape == (24, 24) and not nodes.flags.writeable and not fit.flags.writeable
    with mpmath.workdps(40):
        for k in range(24):
            for j in range(24):
                want = mpmath.mpf(2) / 23 * mpmath.cos(mpmath.pi * k * (23 - j) / 23)
                want /= (2 if k in (0, 23) else 1) * (2 if j in (0, 23) else 1)
                assert abs(mpmath.mpf(float(fit[k, j])) - want) <= 3e-17, (k, j)
    vander = np.polynomial.chebyshev.chebvander(nodes, 23)
    assert np.max(np.abs(fit @ vander - np.eye(24))) <= 2e-15


def test_blowup_and_extend_make_no_least_squares_solve(monkeypatch, tmp_path):
    from caputo_density import blowup
    from caputo_density.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    _cheb_fit.cache_clear()  # rebuilt below, under the patch
    blowup._solved_psi.cache_clear()
    assert main(["blowup", "--j-list", "4,8", "--out", str(tmp_path / "b.csv")]) == 0
    assert main(["extend", "--profile", "ramp", "--grid", "1.01:5:20", "--out", str(tmp_path / "e.csv")]) == 0


def _per_point_chebval(sol, n, xi):
    """Each point's table value by numpy's chebval on its own panel's row."""
    edges, tables = sol._state
    out = []
    for x in xi:
        p = min(max(int(np.searchsorted(edges, x, side="right")) - 1, 0), tables[n].shape[0] - 1)
        e0, e1 = edges[p], edges[p + 1]
        out.append(np.polynomial.chebyshev.chebval((2.0 * x - e0 - e1) / (e1 - e0), tables[n][p]))
    return np.array(out)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_gathered_read_equals_chebval_on_each_panel(n):
    sol = _tabulated(solve_extension(builtin_profile("bump"), 0.3))
    edges, _ = sol._state
    rng = np.random.default_rng(n)
    inside = np.concatenate([rng.uniform(e0, e1, 5) for e0, e1 in zip(edges[:-1], edges[1:])])
    for xi in (inside, edges, inside[::-1]):
        assert np.array_equal(sol.smooth_factor(n, xi), _per_point_chebval(sol, n, xi))
    beyond = np.concatenate([inside, [2.5 * edges[-1]], 1.5 * edges[-1] + edges])
    batched = sol.smooth_factor(n, beyond)  # grows every table first
    assert sol._state[0][-1] >= beyond.max()
    assert np.array_equal(batched, _per_point_chebval(sol, n, beyond))
    assert np.array_equal(sol.smooth_factor(n, beyond[::-1])[::-1], batched)


def test_one_quadrature_call_per_table_build(monkeypatch):
    calls = []
    quad = ExtensionSolution._smooth_factor_quad

    def counted(self, n, xi):
        calls.append(n)
        return quad(self, n, xi)

    monkeypatch.setattr(ExtensionSolution, "_smooth_factor_quad", counted)
    sol = solve_extension(builtin_profile("bump"), 0.3)
    assert calls == []  # construction builds no table
    sol.value(sol.b + 0.5)  # first read of order 0, past the first panel
    assert calls == [0]
    sol.smooth_factor(2, 0.5)
    assert calls == [0, 2]
    sol.value(sol.b + np.array([0.1, 0.5]))  # inside the range: no build
    assert calls == [0, 2]
    edges, _ = sol._state
    sol.value(sol.b + 4.0 * edges[-1])  # grows every built table by several panels
    assert sorted(calls) == [0, 0, 2, 2]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_batched_node_values_equal_per_panel_calls(n):
    sol = _tabulated(solve_extension(builtin_profile("bump"), 0.3))
    edges, _ = sol._state
    ref = np.polynomial.chebyshev.chebpts2(24)
    nodes = [0.5 * (e0 + e1) + 0.5 * (e1 - e0) * ref for e0, e1 in zip(edges[:-1], edges[1:])]
    batched = sol._smooth_factor_quad(n, np.concatenate(nodes))
    single = np.concatenate([sol._smooth_factor_quad(n, xs) for xs in nodes])
    assert np.array_equal(batched, single)


def test_tables_do_not_depend_on_how_they_grew():
    one, two = (_tabulated(solve_extension(builtin_profile("bump"), 0.3)) for _ in range(2))
    one.value(60.0)
    two.value(25.0)
    two.value(60.0)
    (e1, t1), (e2, t2) = one._state, two._state
    assert np.array_equal(e1, e2)
    for n in (0, 1):
        assert np.array_equal(t1[n], t2[n])


@pytest.mark.parametrize("s", [0.002, 0.02, 0.1, 0.5, 0.9, 0.98, 0.998])
def test_table_tails_certify_the_panel_size(s):
    # ATAP ch. 8: on panels three half-widths from the cut of H_n the
    # coefficients fall like (3 + 2 sqrt 2)^-k, so the last four are at rounding
    _, tables = _tabulated(solve_extension(builtin_profile("ramp"), s))._state
    for n in (0, 1):
        c = np.abs(tables[n])
        assert np.all(c[:, -4:].max(axis=1) <= 1e-14 * c.max(axis=1)), n


def test_a_value_does_not_depend_on_earlier_reads():
    fresh, grown = (solve_extension(builtin_profile("bump"), 0.3) for _ in range(2))
    grown.value(60.0)
    x = grown.b + 1.0
    assert grown.value(x) == fresh.value(x)
    for n in (0, 1):
        assert grown.smooth_factor(n, 1.0)[0] == fresh.smooth_factor(n, 1.0)[0]


def _reference_raw_value(sol, x):
    """(u(x), M(x)) in mpmath from the data pieces, g's branch included; M
    is what raw_value sums, every data piece's part of g and phi(b) taken
    in absolute value."""
    s = sol.s
    with mpmath.workdps(30):
        sm, xi = mpmath.mpf(s), mpmath.mpf(x) - mpmath.mpf(sol.b)
        forcing = _forcing_reference(sol, 0, branch=True)
        terms = functools.lru_cache(None)(lambda v: forcing(xi * (1 - v ** (1 / sm))))
        integral = mpmath.quad(lambda v: mpmath.fsum(terms(v)), [0, 1]) / sm
        size = mpmath.quad(lambda v: mpmath.fsum(abs(t) for t in terms(v)), [0, 1]) / sm
        sf = mpmath.sin(mpmath.pi * sm) / mpmath.pi
        phi_b = mpmath.mpf(sol.value_at_b)
        return float(phi_b + sf * xi**sm * integral), float(abs(phi_b) + sf * xi**sm * size)


@pytest.mark.parametrize("s", [0.002, 0.02, 0.1, 0.5, 0.9, 0.98, 0.998])
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_raw_value_matches_mpmath(name, s):
    # the error is measured against M: at s = 0.002 the ramp's u ~ 1e-4 is
    # what is left of phi(b) = 1, so rounding of M's size is all that remains
    sol = solve_extension(builtin_profile(name), s)
    xs = sol.b + np.array([2.0**-14, 0.01, 0.5, 2.0, 8.0])  # the kappa fit's least step first
    ref, size = np.array([_reference_raw_value(sol, x) for x in xs]).T
    error = np.abs(sol.raw_value(xs) - ref)
    assert np.all(error <= 1e-14 * size), error / size
    if 0.01 < s < 0.99:
        # away from the ends no cancellation eats u: the relative bound holds too
        np.testing.assert_allclose(sol.raw_value(xs), ref, rtol=1e-12, atol=0.0)


# per s in VALUE_ORDERS: ten times the largest measured |value - u| / M
# over the points of test_value_with_a_junction_branch_matches_mpmath
VALUE_ORDERS = (0.002, 0.1, 0.5, 0.9, 0.998)
VALUE_BOUNDS = {
    "ramp": (1.9e-14, 7.6e-15, 4.3e-15, 3.0e-15, 2.3e-15),
    "cubic": (9.6e-15, 6.4e-15, 1.1e-14, 1.3e-14, 7.3e-15),
}


@pytest.mark.parametrize("s", VALUE_ORDERS)
@pytest.mark.parametrize("name", sorted(VALUE_BOUNDS))
def test_value_with_a_junction_branch_matches_mpmath(name, s):
    # P is exact, so near s = 1 the rounding of sin(pi s) in the tables'
    # factor shows: with math.sin(math.pi * s) s = 0.998 reads 1.3e-14 (ramp)
    # and 1.4e-14 (cubic)
    if name == "ramp":
        profile = builtin_profile("ramp")
    else:
        profile = PiecewisePoly.single([0.0, 1.0, 0.5, -0.4], 0.0, 1.0)
    sol = solve_extension(profile, s)
    xs = sol.b + np.array([2.0**-14, 0.01, 0.5, 2.0, 8.0])
    ref = np.array([_reference_raw_value(sol, x)[0] for x in xs])
    # the size of what value sums: phi(b), P term by term and xi^s H_0; P
    # grows like xi^3 and cancels against xi^s H_0
    xi, poly = xs - sol.b, sol.junction_polynomial
    branch = polyval(xi, poly)
    size = abs(sol.value_at_b) + polyval(xi, np.abs(poly)) + np.abs(ref - sol.value_at_b - branch)
    error = np.abs(sol.value(xs) - ref) / size
    assert np.all(error <= VALUE_BOUNDS[name][VALUE_ORDERS.index(s)]), error
    # P against the Beta route from g's branch terms alpha_k (x-b)^(k+1-s),
    # alpha_k = c_k B(k+1, 1-s) for the last piece's phi' = sum_k c_k (t-b)^k:
    # P_(k+1) = (sin pi s/pi) alpha_k B(k+2-s, s)
    tau, _, slope = list(profile.derivative_pieces())[-1]
    with mpmath.workdps(40):
        sm, h = mpmath.mpf(s), mpmath.mpf(sol.b) - mpmath.mpf(tau)
        want = [mpmath.mpf(0)] * 4
        for k in range(3):
            # the k-th coefficient of phi' about b
            c = mpmath.fsum(mpmath.mpf(slope[m]) * mpmath.binomial(m, k) * h ** (m - k)
                            for m in range(k, 3))
            alpha = c * mpmath.beta(k + 1, 1 - sm)
            want[k + 1] = mpmath.sin(mpmath.pi * sm) / mpmath.pi * alpha * mpmath.beta(k + 2 - sm, sm)
        want = [float(w) for w in want]
    got = sol.junction_polynomial
    assert any(got)
    for k in range(4):
        # ten times the largest measured relative error, 3.3e-16 (cubic, s = 0.002)
        assert abs(got[k] - want[k]) <= 4e-15 * abs(want[k]), k


def test_raw_value_rows_do_not_depend_on_the_batch():
    # the ramp's 16 points of the 490-node rule fill one block of 8192 values,
    # so the 49 points right of b take 4 blocks; the bump's points go through
    # gauss_ladder, grouped by depth
    xs = np.concatenate([[0.5, 1.0], 1.0 + np.geomspace(1e-6, 8.0, 49)])
    for name in ("ramp", "bump"):
        sol = solve_extension(builtin_profile(name), 0.3)
        batched = sol.raw_value(xs)
        for i, x in enumerate(xs):
            assert batched[i] == sol.raw_value(float(x)), name
        assert np.array_equal(sol.raw_value(xs[::-1])[::-1], batched), name


def _forcing_evaluations(sol, xs, read=ExtensionSolution.raw_value) -> int:
    """How many values of the forcing one ``read`` call over xs takes."""
    count = 0
    forcing = sol._forcing

    def counted(i, z, branch=False):
        nonlocal count
        count += np.size(z)
        return forcing(i, z, branch)

    sol._forcing = counted
    try:
        read(sol, xs)
    finally:
        del sol._forcing
    return count


@pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
def test_raw_rule_is_sized_to_the_junction_branch(s):
    # the kappa fit's points: 2^-5 .. 2^-14 right of b
    xs = 1.0 + 2.0 ** -np.arange(5, 15)
    ramp = solve_extension(builtin_profile("ramp"), s)  # g carries w^(1-s) at b
    assert any(ramp.junction_polynomial)
    assert unit_rule(1.0, s - 1.0, _RAW_DEPTH)[0].size == 490
    assert _forcing_evaluations(ramp, xs) == 490 * xs.size
    # branch-free data take gauss_ladder's depth per point
    bump = solve_extension(builtin_profile("bump"), s)
    assert not any(bump.junction_polynomial)
    gap = bump.b - bump.profile.breakpoints[-2]
    depth = np.clip(np.ceil(np.log2(2.0 * (xs - bump.b) / gap)), 1, 60).astype(int)
    expect = sum(unit_rule(1.0, s - 1.0, int(d))[0].size for d in depth)
    assert expect == 22 * xs.size  # every kappa point lies within half a gap of b
    assert _forcing_evaluations(bump, xs) == expect
    # far points take deeper rules
    far = bump.b + np.array([8.0, 1e3])
    assert _forcing_evaluations(bump, far) == (10 + 12 * 5 + 12) + (10 + 12 * 12 + 12)


def test_table_builds_evaluate_the_forcing_once_per_ladder_node():
    # a build of K panels takes 18 remainder nodes at each of its 24 K
    # table nodes, 12 at each shared panel 0 .. K - 2 (the farthest node
    # is the last edge, in panel K) and G_reg(b) once for xi = 0:
    # 432 K + 12 (K - 1) + 1
    h0 = lambda sol, xi: sol.smooth_factor(0, xi)
    psi = solve_extension(quadratic_bump_profile(), 0.5)  # the README fit's psi, 7 panels
    assert _forcing_evaluations(psi, 9.0, h0) == 3097
    bump = solve_extension(builtin_profile("bump"), 0.5)  # 33 panels
    assert _forcing_evaluations(bump, 1e9, h0) == 14641
    assert [sol._state[0].size - 1 for sol in (psi, bump)] == [7, 33]


def _order_1_reads(monkeypatch, sol, xi_max: float) -> int:
    """How many points the build of R up to b + xi_max reads the order-1
    table at, order 1 built first to cover them."""
    sol.smooth_factor(1, xi_max)
    table, count = sol._state[1][1], 0
    read = extension_solver._read_table

    def counted(edges, coefs, z):
        nonlocal count
        count += z.size if coefs is table else 0
        return read(edges, coefs, z)

    with monkeypatch.context() as patch:
        patch.setattr(extension_solver, "_read_table", counted)
        sol.caputo_value(sol.b + xi_max)
    return count


def test_residual_builds_read_the_order_1_table_once_per_ladder_node(monkeypatch):
    # R's build of K panels reads H_1 at 16 near nodes at each of its 47
    # table nodes below e_2, at 24 remainder nodes at each of the other
    # 24 K - 47, and once at 0, at panel 0's 10 nodes, at panel 1's 16 and
    # at 12 on each shared panel 2 .. K - 2: 588 K - 385, where a depth
    # rule per node took 9324 and 168 744
    psi = solve_extension(quadratic_bump_profile(), 0.5)  # the README fit's psi, 7 panels
    assert _order_1_reads(monkeypatch, psi, 9.0) == 3731
    bump = solve_extension(builtin_profile("bump"), 0.5)  # 33 panels
    assert _order_1_reads(monkeypatch, bump, 1e9) == 19019
    assert [sol._state[0].size - 1 for sol in (psi, bump)] == [7, 33]


def test_cached_table_and_raw_value_rules_are_read_only():
    sol = solve_extension(builtin_profile("ramp"), 0.3)  # a junction branch: the 490-node rule
    sol.raw_value(1.5)
    for arrays in (jacobi_end_rule(0.3 - 1.0), unit_rule(1.0, 0.3 - 1.0, _RAW_DEPTH)):
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
