import functools
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from caputo_density import singular_quadrature
from caputo_density.singular_quadrature import (
    abel_ladder,
    apply_rule,
    gauss_jacobi,
    gauss_ladder,
    integrate_singular,
    kernel_identity_check,
    ladder_edges,
    poly_abel_integral,
    residual_ladder,
    unit_rule,
)
from caputo_density.special_functions import beta, reflection


def algebraic_quad(f, lo, hi, exponent, singular_end):
    """Brute-force oracle: scipy's weighted quadrature for |x_s - t|^e."""
    wvar = (exponent, 0.0) if singular_end == "left" else (0.0, exponent)
    val, err = quad(f, lo, hi, weight="alg", wvar=wvar, limit=200)
    return val


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_constant_integrand(s):
    val = integrate_singular(lambda t: np.ones_like(t), 0.0, 1.0, -s, "right")
    assert val == pytest.approx(1.0 / (1.0 - s), rel=1e-13)


@pytest.mark.parametrize("s,x", [(0.5, 1.0), (0.25, 2.0), (0.75, 0.7)])
def test_linear_integrand_beta_identity(s, x):
    # int_0^x t (x-t)^(-s) dt = x^(2-s) beta(2, 1-s); cross-check vs scipy
    val = integrate_singular(lambda t: t, 0.0, x, -s, "right")
    assert val == pytest.approx(x ** (2.0 - s) * beta(2.0, 1.0 - s), rel=1e-12)
    assert val == pytest.approx(algebraic_quad(lambda t: t, 0.0, x, -s, "right"), rel=1e-9)


@pytest.mark.parametrize("exponent,end", [(-0.3, "left"), (-0.8, "right"), (-0.5, "left")])
def test_cubic_exactness_on_coarse_mesh(exponent, end):
    # every panel of the unit rule is a Gauss rule exact for cubics
    f = lambda t: ((2.0 * t + 0.7) * t - 1.2) * t + 0.3
    ref = algebraic_quad(f, 0.0, 2.0, exponent, end)
    val = integrate_singular(f, 0.0, 2.0, exponent, end)
    assert val == pytest.approx(ref, rel=1e-12)


def test_strong_grading_from_zero_is_finite():
    # an exponent near -1 from lo = 0 (a mesh graded by 100 once overflowed
    # to NaN here) stays finite and exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = integrate_singular(lambda t: 1.0 + 0.0 * t, 0.0, 0.5, -0.98, "left")
    assert val == pytest.approx(0.5**0.02 / 0.02, rel=1e-12)


@pytest.mark.parametrize("exponent,end,lo,hi", [
    (-0.5, "right", 0.0, 1.0), (-0.02, "left", 0.0, 1.0), (-0.98, "right", 0.0, 1.0),
    (-0.3, "left", -1.0, 2.0), (-0.7, "right", 0.5, 4.0),
])
def test_integrate_singular_cos_against_scipy(exponent, end, lo, hi):
    ref = algebraic_quad(np.cos, lo, hi, exponent, end)
    assert integrate_singular(np.cos, lo, hi, exponent, end) == pytest.approx(ref, rel=1e-14)


def test_domain_errors():
    f = lambda t: t
    with pytest.raises(ValueError):
        integrate_singular(f, 1.0, 0.0, -0.5, "right")
    with pytest.raises(ValueError):
        integrate_singular(f, 0.0, 1.0, -1.2, "right")
    with pytest.raises(ValueError):
        integrate_singular(f, 0.0, 1.0, 0.0, "right")
    with pytest.raises(ValueError):
        integrate_singular(f, 0.0, 1.0, -0.5, "middle")


def test_determinism():
    f = lambda t: np.exp(t)
    a = integrate_singular(f, 0.0, 3.0, -0.4, "right")
    b = integrate_singular(f, 0.0, 3.0, -0.4, "right")
    assert a == b


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.02, 0.98])
@pytest.mark.parametrize("tau,x", [(0.0, 1.0), (2.0, 7.0), (-1.0, 0.0)])
def test_kernel_identity(s, tau, x):
    target = reflection(s)
    assert abs(kernel_identity_check(s, tau, x) - target) <= 1e-13 * target


def test_kernel_identity_rejects_bad_interval():
    with pytest.raises(ValueError):
        kernel_identity_check(0.5, 2.0, 2.0)


@given(
    st.floats(min_value=0.3, max_value=0.7),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_kernel_identity_translation_scale_invariance(s, shift, scale):
    target = reflection(s)
    v1 = kernel_identity_check(s, shift, shift + scale)
    v2 = kernel_identity_check(s, scale * 0.5, scale * 1.5)
    assert abs(v1 - target) <= 1e-8 * target
    assert abs(v2 - target) <= 1e-8 * target


def test_poly_abel_against_scipy():
    # continuity is irrelevant here: the helper integrates pieces independently
    pieces = [(0.0, 0.6, np.array([0.5, -1.0, 2.0])), (0.6, 1.0, np.array([0.22, 0.8]))]
    for x, e in ((0.9, -0.5), (1.0, -0.25), (3.0, -0.75)):
        ref = 0.0
        for lo, hi, c in pieces:
            if x <= lo:
                continue
            p = lambda t, c=c, lo=lo: np.polynomial.polynomial.polyval(t - lo, c)
            if x <= hi:
                ref += quad(p, lo, x, weight="alg", wvar=(0.0, e), limit=200)[0]
            else:
                ref += quad(lambda t: p(t) * (x - t) ** e, lo, hi, limit=200)[0]
        assert poly_abel_integral(pieces, x, e) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("e", [-0.3, -1.7])
def test_poly_abel_array_call_equals_the_scalar_loop_bit_for_bit(e):
    # points on the pieces, near them and far from them, where a piece at
    # most 1/8 as long as its distance takes the binomial series
    pieces = [(0.0, 0.6, np.array([0.5, -1.0, 2.0])), (0.6, 1.0, np.array([0.22, 0.8]))]
    x = np.concatenate([np.geomspace(0.01, 1e6, 40), [np.nan, 0.6, 1.0]])
    got = poly_abel_integral(pieces, x, e)
    want = np.array([poly_abel_integral(pieces, float(v), e) for v in x])
    assert np.array_equal(got, want, equal_nan=True) and np.isnan(got[40])


def test_poly_abel_partial_upper_limit():
    # phi'(t) = 1 on [0, 1]: int_0^x (x-t)^(-s) dt = x^(1-s)/(1-s) for x <= 1
    s = 0.5
    val = poly_abel_integral([(0.0, 1.0, np.array([1.0]))], 0.49, -s)
    assert val == pytest.approx(0.49**0.5 / 0.5, rel=1e-14)


@pytest.mark.parametrize("count", [9, 400])
def test_gauss_ladder_calls_its_integrand_once_per_block(count):
    # points in depth classes 1 to 7; each class alone would take one call
    gap, p, b = 1.0, 0.7, -0.4
    xi = np.geomspace(1e-3, 40.0, count)
    depth = np.clip(np.ceil(np.log2(2.0 * xi / gap)), 1, 60).astype(int)
    assert len(set(depth)) >= 4
    sizes = []

    def f(z):
        sizes.append(z.size)
        return np.sqrt(z + gap)

    got = gauss_ladder(f, xi, p, b, gap)
    block, largest = singular_quadrature._BLOCK_NODES, unit_rule(p, b, int(depth.max()))[0].size
    assert sum(sizes) == sum(unit_rule(p, b, int(d))[0].size for d in depth)
    assert max(sizes) <= block
    # a block closes only when the next point's rule no longer fits in it
    assert all(size > block - largest for size in sizes[:-1])
    if count == 9:  # 342 values, one block
        assert len(sizes) == 1
    want = np.empty_like(xi)
    for d in set(depth):
        at = depth == d
        nodes, weights = unit_rule(p, b, int(d))
        rows = np.sqrt((xi[at, None] * nodes).ravel() + gap).reshape(-1, nodes.size)
        want[at] = np.sum(rows * weights, axis=1)
    assert np.array_equal(got, want)


def test_apply_rule_takes_a_rule_longer_than_a_block():
    # 9000 nodes exceed one block: each point takes a block of its own
    nodes = np.linspace(0.0, 1.0, 9000)
    weights = np.full(9000, 1.0 / 9000)
    sizes = []

    def f(z):
        sizes.append(z.size)
        return z

    got = apply_rule(f, np.array([1.0, 2.0, 4.0]), nodes, weights)
    assert sizes == [9000, 9000, 9000]
    assert np.array_equal(got, [np.sum(x * nodes * weights) for x in (1.0, 2.0, 4.0)])


def test_gauss_ladder_near_edge_branch():
    # f(w) = sqrt(w + 1e-3) has its cut at -1e-3, just left of the interval
    f = lambda t: np.sqrt(t + 1e-3)
    ref = quad(f, 0.0, 1.0, limit=200)[0]
    got = gauss_ladder(f, np.array([1.0]), 1.0, 0.0, 1e-3)
    assert got[0] == pytest.approx(ref, rel=1e-13)


@functools.cache
def _jacobi_moment(k: int, a: float, b: float) -> float:
    """int_-1^1 x^k (1-x)^a (1+x)^b dx as an exact Beta sum, at 50 digits."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        terms = (
            mpmath.binomial(k, j) * 2**j * (-1) ** (k - j) * mpmath.beta(j + b + 1, a + 1)
            for j in range(k + 1)
        )
        return float(2 ** (a + b + 1) * mpmath.fsum(terms))


@pytest.mark.parametrize("n", [12, 20, 32])
@pytest.mark.parametrize("exponent", [-0.01, -0.5, -0.98, -0.99])
@pytest.mark.parametrize("side", ["a", "b"])
def test_gauss_jacobi_moments(n, exponent, side):
    a, b = (exponent, 0.0) if side == "a" else (0.0, exponent)
    x, g = gauss_jacobi(n, a, b)
    assert np.all(np.diff(x) > 0.0) and x[0] > -1.0 and x[-1] < 1.0 and np.all(g > 0.0)
    for k in range(2 * n):
        terms = g * x**k
        # odd moments of a near-even weight are small by cancellation, so the
        # error is measured against the size of the terms summed
        assert abs(np.sum(terms) - _jacobi_moment(k, a, b)) <= 1e-13 * np.sum(np.abs(terms))


def test_gauss_jacobi_closed_forms():
    # a = b = 0 is Gauss-Legendre; a = b = -1/2 (a + b = -1) is Gauss-Chebyshev.
    # Weights from squared eigenvector components are accurate to a few ulps
    # of their sum, not of each weight.
    x, g = gauss_jacobi(20, 0.0, 0.0)
    xl, gl = np.polynomial.legendre.leggauss(20)
    np.testing.assert_allclose(x, xl, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(g, gl, rtol=0.0, atol=4e-15)
    x, g = gauss_jacobi(20, -0.5, -0.5)
    np.testing.assert_allclose(x, np.sort(np.cos((2 * np.arange(1, 21) - 1) * np.pi / 40)),
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(g, np.pi / 20, rtol=0.0, atol=4e-15)
    with pytest.raises(ValueError):
        gauss_jacobi(8, -1.0, 0.0)


def test_gauss_legendre_bands_equal_leggauss_bit_for_bit():
    x, w = singular_quadrature._gauss_legendre()
    want_x, want_w = np.polynomial.legendre.leggauss(12)
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    assert not (x.flags.writeable or w.flags.writeable)


ABEL_ORDERS = (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99)


@pytest.mark.parametrize("s", ABEL_ORDERS)
def test_abel_unit_rule_sums_to_reflection(s):
    # f = 1: int_0^1 w^(s-1) (1-w)^(-s) dw = B(s, 1-s) = pi/sin(pi s)
    for depth in range(1, 13):
        nodes, weights = unit_rule(s, -s, depth)
        assert nodes.size == 10 + 12 * (depth - 1) + 12 and np.all(np.diff(nodes) > 0.0)
        assert nodes[0] > 0.0 and nodes[-1] < 1.0
        assert abs(np.sum(weights) / reflection(s) - 1.0) <= 1e-14


def _unit_reference(p: float, b: float, s: float, d: float) -> float:
    """int_0^1 w^(p-1) (1-w)^b (w+d)^(-s) dw by 40-digit mpmath, with both
    endpoint singularities removed by substitution (w = u^(1/p),
    1-w = v^(1/(b+1)))."""
    with mpmath.workdps(40):
        p, b, s, d = (mpmath.mpf(v) for v in (p, b, s, d))
        f = lambda w: (w + d) ** -s
        half = mpmath.mpf(1) / 2
        cuts = sorted({mpmath.mpf(0), half**p, *(c**p for c in (d / 10, d, 10 * d) if c < half)})
        left = mpmath.quad(lambda u: f(u ** (1 / p)) * (1 - u ** (1 / p)) ** b, cuts) / p
        w = lambda v: 1 - v ** (1 / (b + 1))
        right = mpmath.quad(lambda v: f(w(v)) * w(v) ** (p - 1), [0, half ** (b + 1)]) / (b + 1)
        return float(left + right)


@pytest.mark.parametrize("s", [0.002, 0.02, 0.5, 0.98, 0.998])
@pytest.mark.parametrize("family", ["table", "residual"])
def test_unit_rule_panels_meet_their_margin(family, s):
    # gauss_ladder gives a point the least depth whose start panel
    # [0, 2^-depth] is at most half as wide as the distance to the branch
    # point; f's branch point sits exactly there, at w = -2^(1-depth), so
    # each panel sees the least margin the ladder allows. A panel cut
    # below its node count for that margin fails the bound
    p, b = (1.0, s - 1.0) if family == "table" else (s, -s)
    for depth in (1, 3, 8):
        d = 2.0 ** (1 - depth)
        nodes, weights = unit_rule(p, b, depth)
        got = float(np.sum(weights * (nodes + d) ** -s))
        ref = _unit_reference(p, b, s, d)
        assert abs(got - ref) <= 1e-14 * abs(ref), (depth, got, ref)


@pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("d", [0.25, 5e-3, 5e-5])
def test_abel_unit_rule_near_branch_point(s, d):
    # H_1((x-b) w) has a branch point at w = -gap/(x-b); d = 5e-5 is x - b
    # at 2e4 gaps. gauss_ladder picks its depth for it
    got = gauss_ladder(lambda z: (z + d) ** -s, np.array([1.0]), s, -s, d)[0]
    ref = _unit_reference(s, -s, s, d)
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_batched_gauss_ladder_rows_are_scalar_ladders():
    # xi = 0, 400 points of depth 1 (more than one block, 372 points, of
    # its 22-node rule) and a sweep up to depth 17: each point's value is
    # what a call for that point alone gives, bit for bit
    gap = 1e-3
    xi = np.concatenate([[0.0], np.linspace(1e-6, 0.5 * gap, 400), np.geomspace(gap, 60.0, 97)])
    f = lambda z: np.sqrt(z + gap)
    batched = gauss_ladder(f, xi, 0.5, -0.5, gap)
    assert batched.shape == xi.shape
    for x, value in zip(xi, batched):
        assert value == gauss_ladder(f, np.array([x]), 0.5, -0.5, gap)[0]
    assert np.array_equal(gauss_ladder(f, xi[::-1], 0.5, -0.5, gap)[::-1], batched)


def test_unit_rule_builds_its_start_panel_once_per_p(monkeypatch):
    # the start panel gauss_jacobi(10, 0, p - 1) is shared by every b and
    # depth of one p, and the rules are what a fresh build gives
    p = 0.4375
    fresh = {(b, d): unit_rule.__wrapped__(p, b, d) for b in (-0.25, 0.5) for d in (1, 3, 7)}
    singular_quadrature._jacobi_start_rule.cache_clear()
    unit_rule.cache_clear()
    calls = []
    build = singular_quadrature.gauss_jacobi

    def counted(n, a, b):
        calls.append((n, a, b))
        return build(n, a, b)

    monkeypatch.setattr(singular_quadrature, "gauss_jacobi", counted)
    for (b, d), (nodes, weights) in fresh.items():
        cached = unit_rule(p, b, d)
        assert np.array_equal(cached[0], nodes) and np.array_equal(cached[1], weights)
    assert calls.count((10, 0.0, p - 1.0)) == 1
    for a in singular_quadrature._jacobi_start_rule(p):
        assert not a.flags.writeable


LADDER_RULES = {
    "gauss_ladder": lambda f, xi: gauss_ladder(f, xi, 1.0, -0.5, 1.0),
    "abel_ladder": lambda f, xi: abel_ladder(f, xi, 0.5, 1.0),
    "residual_ladder": lambda f, xi: residual_ladder(f, xi, 0.5, 1.0),
}


@pytest.mark.parametrize("name", sorted(LADDER_RULES))
def test_ladder_rules_read_nan_as_nan_and_refuse_points_below_0(name):
    rule = LADDER_RULES[name]
    f = lambda z: np.ones_like(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rule(f, np.array([0.5, np.nan]))
        assert got[0] == rule(f, np.array([0.5]))[0] and np.isnan(got[1])
        assert np.isnan(rule(f, np.array([np.nan]))).all()
    with pytest.raises(ValueError, match="xi >= 0"):
        rule(f, np.array([0.5, -1e-300]))


def test_ladder_edges_grow_bit_for_bit():
    # e_j = (2^j - 1) gap/2, summed in one order whatever the reach
    gap = 0.1
    full = ladder_edges(gap, 1e6)
    assert full[-2] < 1e6 <= full[-1] and ladder_edges(gap, 0.0).size == 2
    for reach in (0.0, 0.05, 0.3, 77.0):
        part = ladder_edges(gap, reach)
        assert np.array_equal(part, full[: part.size]) and part[-1] >= reach
    np.testing.assert_allclose(full, (2.0 ** np.arange(full.size) - 1) * gap / 2, rtol=1e-15)


@pytest.mark.parametrize("s", [0.002, 0.02, 0.5, 0.98, 0.998])
def test_abel_ladder_meets_its_margin(s):
    # f(z) = (z + gap)^(-1/2), cut at -gap: int_0^1 (1-w)^(s-1) f(xi w) dw
    # = gap^(-1/2) 2F1(1/2, 1; 1 + s; -xi/gap)/s (Euler's integral). The
    # points lie in ladder panels 0, 1, 2, 8 and 32, mid-panel and at the
    # right end, where the remainder [e_(k-1), xi] is longest against its
    # distance to the cut. A remainder rule cut below its node count for
    # that margin fails the bound
    gap = 0.375
    edges = ladder_edges(gap, 2.0**34 * gap)
    xi = np.array([edges[k] + q * (edges[k + 1] - edges[k])
                   for k in (0, 1, 2, 8, 32) for q in (0.5, 1.0 - 2.0**-10)])
    got = abel_ladder(lambda z: (z + gap) ** -0.5, xi, s, gap)
    with mpmath.workdps(40):
        sm, g = mpmath.mpf(s), mpmath.mpf(gap)
        ref = np.array([float(mpmath.hyp2f1(0.5, 1, 1 + sm, -mpmath.mpf(x) / g) / (sm * mpmath.sqrt(g)))
                        for x in xi])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), np.abs(got / ref - 1.0)


@pytest.mark.parametrize("s", [0.002, 0.02, 0.5, 0.98, 0.998])
def test_residual_ladder_meets_its_margin(s):
    # f(t) = (t + gap)^(-1/2), cut at -gap: int_0^xi t^(s-1) (xi-t)^(-s) f(t) dt
    # = gap^(-1/2) B(s, 1-s) 2F1(1/2, s; 1; -xi/gap) (Euler's integral). The
    # points lie in ladder panels 0, 1, 2, 8 and 32, mid-panel and at the
    # right end, where the remainder [e_(k-1), xi] is longest against its
    # distance to t = 0, the kernel's branch point that panels 0 and 1 lie
    # nearest to
    gap = 0.375
    edges = ladder_edges(gap, 2.0**34 * gap)
    xi = np.array([edges[k] + q * (edges[k + 1] - edges[k])
                   for k in (0, 1, 2, 8, 32) for q in (0.5, 1.0 - 2.0**-10)])
    got = residual_ladder(lambda z: (z + gap) ** -0.5, xi, s, gap)
    with mpmath.workdps(40):
        sm, g = mpmath.mpf(s), mpmath.mpf(gap)
        ref = np.array([float(mpmath.beta(sm, 1 - sm) / mpmath.sqrt(g)
                              * mpmath.hyp2f1(0.5, sm, 1, -mpmath.mpf(x) / g)) for x in xi])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), np.abs(got / ref - 1.0)


def test_residual_ladder_rows_depend_on_their_point_alone():
    # panels 0 to 20 in one call: each point's value is what a call for that
    # point alone gives, bit for bit; f is called once, at 0, at the shared
    # nodes (10 on panel 0, 16 on panel 1, 12 on each panel 2 .. top - 2),
    # and at 16 near nodes per point below e_2 and 24 remainder nodes per
    # point beyond; at xi = 0 the value is f(0) pi/sin(pi s)
    gap, s = 1e-3, 0.3
    xi = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 120)])
    sizes = []

    def f(z):
        sizes.append(z.size)
        return np.sqrt(z + gap)

    batched = residual_ladder(f, xi, s, gap)
    edges = ladder_edges(gap, xi.max())
    top = edges.size - 2  # the panel of xi.max()
    near = int((xi < edges[2]).sum())
    assert sizes == [1 + 10 + 16 + 12 * (top - 3) + 16 * near + 24 * (xi.size - near)]
    assert batched[0] == np.sqrt(gap) * reflection(s)
    for x, value in zip(xi, batched):
        assert value == residual_ladder(f, np.array([x]), s, gap)[0]
    assert np.array_equal(residual_ladder(f, xi[::-1], s, gap)[::-1], batched)


def test_abel_ladder_rows_depend_on_their_point_alone():
    # panels 0 to 20 in one call: each point's value is what a call for that
    # point alone gives, bit for bit, and f is called once, at 18 remainder
    # nodes per point and the 12 nodes of each shared panel
    gap, s = 1e-3, 0.3
    xi = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 120)])
    sizes = []

    def f(z):
        sizes.append(z.size)
        return np.sqrt(z + gap)

    batched = abel_ladder(f, xi, s, gap)
    edges = ladder_edges(gap, xi.max())
    assert sizes == [18 * xi.size + 12 * (edges.size - 3)]
    for x, value in zip(xi, batched):
        assert value == abel_ladder(f, np.array([x]), s, gap)[0]
    assert np.array_equal(abel_ladder(f, xi[::-1], s, gap)[::-1], batched)
