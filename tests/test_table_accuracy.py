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
"""

import mpmath
import numpy as np
import pytest

from caputo_density.extension_solver import _ctilde, solve_extension
from caputo_density.profiles import builtin_profile
from caputo_density.singular_quadrature import (
    GradedMesh,
    integrate_singular,
    jacobi_end_rule,
    split_graded_rule,
)


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


@pytest.mark.parametrize("s", [0.02, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_tables_match_mpmath(name, s):
    sol = solve_extension(builtin_profile(name), s)
    edges = sol._edges
    for n in (0, 1):
        for p in (0, edges.size // 2 - 1, edges.size - 2):  # first, middle, last panel
            xi = edges[p] + 0.3 * (edges[p + 1] - edges[p])
            h, m = _reference_h(sol, n, xi)
            assert abs(sol.smooth_factor(n, xi)[0] - h) <= 1e-13 * m, (n, p)


def _raw_value_reference(sol, x, panels):
    """raw_value's rule built in t-space on an explicit mesh."""
    s, mid, half = sol.s.s, 0.5 * (sol.b + x), max(panels // 2, 8)
    left = GradedMesh(sol.b, mid, half, 4.0, "left").breakpoints()
    right = GradedMesh(mid, x, half, max(2.0, 2.0 / s), "right").breakpoints()
    integral = integrate_singular(
        lambda t: sol.forcing.value(0, t - sol.b), sol.b, x, s - 1.0, "right",
        mesh=np.concatenate([left, right[1:]]),
    )
    return sol.value_at_b + sol.s.sin_factor * integral


# s >= 0.1: at s = 0.02 the right half is graded by 2/s = 100, and the
# t-space mesh rounds its breakpoints near x to ulp(x), which moves the
# reference by up to 3e-13 (raw_value's own error there is ~1e-8)
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", ["ramp", "bump"])
def test_raw_value_unit_rule_matches_explicit_mesh(name, s):
    sol = solve_extension(builtin_profile(name), s)
    for panels in (128, 256):
        for x in (1.0 + 2.0**-14, 1.0 + 2.0**-5, 1.5, 3.0):  # the kappa fit's and beyond
            ref = _raw_value_reference(sol, x, panels)
            assert sol.raw_value(x, panels=panels) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_cached_table_and_raw_value_rules_are_read_only():
    sol = solve_extension(builtin_profile("bump"), 0.3)
    sol.raw_value(1.5)
    for arrays in (jacobi_end_rule(0.3 - 1.0), split_graded_rule(0.3 - 1.0, 128, 2.0 / 0.3)):
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
