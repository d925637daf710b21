"""The Chebyshev tables of H_n and the representation-formula path raw_value.

H_n(xi) = (sin pi s/pi) [xi^n int_0^1 G_reg^(n)(b + xi w) (1-w)^(s-1) dw
                         + sum_{i<n} ctilde_{s,i} G_reg^(i)(b) xi^i]

is checked against mpmath at 30 digits, with v = (1-w)^s turning the
integral into int_0^1 G_reg^(n)(b + xi (1 - v^(1/s))) dv / s, whose
endpoint singularity is gone. The error is measured against the size of
what H_n sums, M_n(xi) = the same expression with every term of G_reg
and of the boundary sum taken in absolute value: the bump's order-1
forcing cancels 3e4-fold at xi ~ 8 (differences of (xi + d)^p over
neighbouring d), so rounding in evaluating it in double already sits at
about eps * M_n there, and no quadrature can beat that. For the ramp
M_n = |H_n|.

raw_value integrates the full g, junction branch included, in the same
variable: u(x) = phi(b) + (sin pi s/pi) xi^s int_0^1 g(b + xi (1 - v^(1/s))) dv / s.
"""

import mpmath
import numpy as np
import pytest

from caputo_density.extension_solver import (
    _RAW_DEPTH,
    ExtensionSolution,
    _cheb_fit,
    _clenshaw,
    _ctilde,
    solve_extension,
)
from caputo_density.profiles import builtin_profile
from caputo_density.singular_quadrature import jacobi_end_rule, unit_rule


def _tabulated(sol):
    """sol with orders 0 and 1 read out to 10(b - a), so that its state
    holds both tables over every panel up to there."""
    for n in (0, 1):
        sol.smooth_factor(n, 10.0 * (sol.b - sol.a))
    return sol


def _reference_h(sol, n, xi):
    """(H_n(xi), M_n(xi)) in mpmath from the forcing's float coefficients."""
    s = sol.s.s
    c, j, d, p, _, _ = sol.forcing._terms(n)
    with mpmath.workdps(30):
        sm, x = mpmath.mpf(s), mpmath.mpf(xi)

        def terms(v):
            z = x * (1 - v ** (1 / sm))
            return [mpmath.mpf(ci) * z ** int(ji) * (z + mpmath.mpf(di)) ** mpmath.mpf(pi)
                    for ci, ji, di, pi in zip(c, j, d, p)]

        value = mpmath.quad(lambda v: mpmath.fsum(terms(v)), [0, 1]) / sm
        size = mpmath.quad(lambda v: mpmath.fsum(abs(t) for t in terms(v)), [0, 1]) / sm
        bnd = [_ctilde(s, n, i) * sol.forcing.regular_at_b(i) * x**i for i in range(n)]
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


def test_clenshaw_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    for length in range(3, 41):
        c = rng.standard_normal(length) * 10.0 ** rng.uniform(-8.0, 8.0, length)
        x = rng.uniform(-1.0, 1.0, 257)
        assert np.array_equal(_clenshaw(x, c), np.polynomial.chebyshev.chebval(x, c)), length


def test_cheb_fit_equals_numpy_bit_for_bit():
    nodes, fit = _cheb_fit()
    want_nodes = np.polynomial.chebyshev.chebpts2(24)
    want_fit = np.polynomial.chebyshev.chebfit(want_nodes, np.eye(24), 23)
    for got, want in ((nodes, want_nodes), (fit, want_fit)):
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


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
    """u(x) in mpmath from the forcing's float coefficients, g's branch included."""
    s = sol.s.s
    c, j, d, p, pc, pq = sol.forcing._terms(0)
    with mpmath.workdps(30):
        sm, xi = mpmath.mpf(s), mpmath.mpf(x) - mpmath.mpf(sol.b)

        def g(v):
            z = xi * (1 - v ** (1 / sm))
            regular = (mpmath.mpf(ci) * z ** int(ji) * (z + mpmath.mpf(di)) ** mpmath.mpf(pi)
                       for ci, ji, di, pi in zip(c, j, d, p))
            branch = (mpmath.mpf(ci) * z ** mpmath.mpf(qi) for ci, qi in zip(pc, pq))
            return mpmath.fsum(regular) + mpmath.fsum(branch)

        integral = mpmath.quad(g, [0, 1]) / sm
        sf = mpmath.sin(mpmath.pi * sm) / mpmath.pi
        return float(mpmath.mpf(sol.value_at_b) + sf * xi**sm * integral)


@pytest.mark.parametrize("s", [0.02, 0.1, 0.5, 0.9, 0.98])
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_raw_value_matches_mpmath(name, s):
    sol = solve_extension(builtin_profile(name), s)
    xs = sol.b + np.array([2.0**-14, 0.01, 0.5, 2.0, 8.0])  # the kappa fit's least step first
    ref = np.array([_reference_raw_value(sol, x) for x in xs])
    np.testing.assert_allclose(sol.raw_value(xs), ref, rtol=1e-12, atol=0.0)


def test_raw_value_rows_do_not_depend_on_the_batch():
    # 16 points of the 508-node rule fill one block of 8192 values, so the
    # 49 points right of b take 4 blocks
    sol = solve_extension(builtin_profile("bump"), 0.3)
    xs = np.concatenate([[0.5, 1.0], 1.0 + np.geomspace(1e-6, 8.0, 49)])
    batched = sol.raw_value(xs)
    for i, x in enumerate(xs):
        assert batched[i] == sol.raw_value(float(x))
    assert np.array_equal(sol.raw_value(xs[::-1])[::-1], batched)


def test_cached_table_and_raw_value_rules_are_read_only():
    sol = solve_extension(builtin_profile("bump"), 0.3)
    sol.raw_value(1.5)
    for arrays in (jacobi_end_rule(0.3 - 1.0), unit_rule(1.0, 0.3 - 1.0, _RAW_DEPTH)):
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
