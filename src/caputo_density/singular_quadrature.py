"""Gauss-Jacobi product integration for weakly singular integrals.

See Diethelm, The Analysis of Fractional Differential Equations (2010),
ch. 7, for product integration of Abel kernels. Two kinds of rule serve
the package's singular integrals. The unit rules, ``unit_rule``,

    sum W f(w) ~ int_0^1 w^(p-1) (1-w)^b f(w) dw,

are a 10-node Gauss-Jacobi panel (``gauss_jacobi``, Golub-Welsch) for
w^(p-1) at 0, 12-node Gauss-Legendre bands doubling from 2^-depth to 1/2
and the 12-node Gauss-Jacobi end panel ``jacobi_end_rule(b)`` on [1/2, 1]:
10 + 12 depth nodes, each panel's count sized to its distance from the
nearest singularity. Their users differ only in (p, b, depth):

- ``gauss_ladder``, for int_0^1 w^(p-1) (1-w)^b f(xi w) dw at many xi
  with f cut at (-inf, -gap]: each point takes the depth its own branch
  point w = -gap/xi needs. It serves the representation formula behind
  ``raw_value`` for data whose g has no junction branch (p = 1,
  b = s - 1);
- ``raw_value`` for data with a junction branch, whose integrand
  carries w^(1-s) at w = 0: one rule of depth 40 (490 nodes) at every
  point;
- ``integrate_singular``, for int_lo^hi f(t) |x_s - t|^e dt with the
  singular point x_s at one endpoint.

The ladder rules take product integration on the solver's own panel ladder
(``ladder_edges``), with nodes that every point shares, so f is
evaluated once at them and at a few remainder nodes per point:
``abel_ladder`` takes int_0^1 (1-w)^(s-1) f(xi w) dw, the node values of
the solver's tables of the analytic factors H_n (12-node Gauss-Legendre
panels and an 18-node Gauss-Jacobi remainder), and ``residual_ladder``
int_0^xi t^(s-1) (xi-t)^(-s) f(t) dt, those of the Caputo residual's
table R over the order-1 table (panel 0's t^(s-1) mass in closed form,
Gauss-Legendre panels and a 24-node Gauss-Jacobi remainder).

``gauss_ladder`` and ``apply_rule`` apply their rules to many points,
one call of the integrand per block of 8192 values; ``abel_ladder`` and
``residual_ladder`` call it once. Polynomial data take
``poly_abel_integral``, exact. The unit rules depend only on (p, b,
depth), the end panels only on their exponent and the ladders' Gauss-Jacobi
rules only on s. They are built on first use,
kept in bounded module-level caches and handed out as read-only arrays,
so one rule serves every integrand and every thread.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .piecewise import MAX_DEGREE
from .special_functions import fractional_order, reflection

__all__ = [
    "integrate_singular",
    "kernel_identity_check",
    "poly_abel_integral",
    "gauss_ladder",
    "abel_ladder",
    "residual_ladder",
    "ladder_edges",
    "apply_rule",
    "unit_rule",
    "gauss_jacobi",
    "jacobi_end_rule",
]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights G with sum G f(x) ~ int_-1^1 (1-x)^a (1+x)^b f(x) dx.

    Golub-Welsch (1969): the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the three-term recurrence, the weights mu_0 times the
    squared first components of its eigenvectors. Exact for polynomials of
    degree <= 2n-1; a, b > -1. The k = 0 diagonal and k = 1 off-diagonal
    entries are written in their cancelled forms, which stay finite at
    a + b = 0 and a + b = -1; the general forms are taken only beyond
    them, where every denominator is positive since a + b > -2.
    """
    if n < 1 or not (a > -1.0 and b > -1.0):
        raise ValueError(f"gauss_jacobi needs n >= 1 and a, b > -1, got {n}, {a}, {b}")
    ab = a + b
    k = np.arange(n, dtype=float)
    two_k = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (b - a) / (ab + 2.0)
    diag[1:] = (b * b - a * a) / (two_k[1:] * (two_k[1:] + 2.0))
    off = np.empty(n - 1)
    if n > 1:
        off[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((ab + 2.0) ** 2 * (ab + 3.0))
    k, two_k = k[2:], two_k[2:]
    off[1:] = 4.0 * k * (k + a) * (k + b) * (k + ab) / (two_k**2 * (two_k + 1.0) * (two_k - 1.0))
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[1 :: n + 1] = jacobi.flat[n :: n + 1] = np.sqrt(off)
    x, vectors = np.linalg.eigh(jacobi)
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(ab + 2.0)
    return x, mu0 * vectors[0] ** 2


# Node counts of the unit rules' Gauss-Jacobi panels, each sized to its
# Bernstein-ellipse margin rho: an n-node panel errs by about rho^-2n
# (Trefethen, Approximation Theory and Approximation Practice, ch. 19). The
# start panel [0, 2^-depth] is at most half as wide as the distance to the
# nearest singularity left of w = 0 (gauss_ladder's depth rule), so
# rho >= 5 + sqrt 24 ~ 9.9 and 10 nodes leave ~1e-20; at depth 1 the folded
# (1-w)^b, cut at w = 1, caps it at 3 + sqrt 8 ~ 5.83, ~5e-16. The end
# panel [1/2, 1] lies one width from a branch point at w <= 0, as the
# 12-node Gauss-Legendre bands (``_gauss_legendre``) do, so rho >= 5.83 and
# 12 nodes leave ~5e-19. integrate_singular's first band is [0, 2^-12].
_START_NODES = 10
_END_NODES = 12
# abel_ladder's Gauss-Jacobi remainder on [e_(k-1), xi], xi in ladder panel
# k: at most W_(k-1) + W_k = 3 W_(k-1) long, while f's cut lies e_(k-1) +
# gap = W_(k-1) + gap/2 left of it. In u = (xi - t)/l the cut sits at
# u >= 4/3, 2u - 1 >= 5/3, so rho >= 3 and 18 nodes leave 3^-36 ~ 7e-18.
# Its shared panels j <= k - 2 take the 12-node bands: f's cut lies at
# least W_j left of panel j (rho >= 3 + sqrt 8) and the kernel's branch
# point t = xi >= e_k at least 2 W_j right of it (rho >= 5 + sqrt 24), so
# 12 nodes leave ~5e-19
_REMAINDER_NODES = 18
# residual_ladder's rules for int_0^xi t^(s-1) (xi-t)^(-s) f(t) dt, xi in
# ladder panel k, where t = 0 is a branch point of the kernel too. Panel 0
# = [0, gap/2], shared for k >= 2, takes its t^(s-1) mass in closed form and
# the rest by a Gauss-Jacobi rule for t^s: f's cut and the kernel's branch
# point t = xi >= e_2 lie two widths from it (rho >= 5 + sqrt 24), so
# _START_NODES leave ~1e-20. Panel 1 = [gap/2, 3 gap/2], shared for k >= 3,
# lies one half-width right of t = 0: rho = 2 + sqrt 3, and 16 nodes leave
# 3.73^-32 ~ 5e-19. Panel j >= 2 lies e_j = W_j - gap/2 >= 3 W_j/4 right of
# it (rho >= 4.79 at j = 2, rising to 3 + sqrt 8) and takes the 12-node
# bands, ~5e-17 at j = 2. The remainder [e_(k-1), xi] is at most 3 W_(k-1)
# long with t = 0 at u >= 7/6 in u = (xi - t)/l (k = 2; 4/3 as k grows), so
# rho >= 2.2 and 24 nodes leave ~3e-17. Up to xi = e_2 one rule for
# t^s (xi-t)^(-s) on [0, xi] has f's cut at least 4/3 of its half-width
# left of it, rho >= 4.4, and 16 nodes leave ~2e-21. No rule has more than
# 25 nodes, beyond which LAPACK's eigensolver switches to divide and
# conquer and a Golub-Welsch build takes more memory
_PANEL_ONE_NODES = 16
_RESIDUAL_REMAINDER_NODES = 24
_RESIDUAL_NEAR_NODES = 16
_SINGULAR_DEPTH = 12
# values of f per block of an apply_rule call; bounds its memory
_BLOCK_NODES = 8192
# deepest gauss_ladder rule (730 nodes): it resolves points up to 2^59
# gaps right of b, and ExtensionSolution refuses reads beyond, so that
# raw_value can check a table value wherever a table reaches
_MAX_DEPTH = 60
# poly_abel_integral takes a piece by its binomial series at distances v of
# at least this many piece lengths; _far_piece truncates the series at
# ratio 1/_FAR_RATIO, so the two must agree
_FAR_RATIO = 8.0


@functools.lru_cache(maxsize=32)
def jacobi_end_rule(exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W with sum W f(w) ~ int_1/2^1 (1-w)^exponent f(w) dw.

    A 12-node Gauss-Jacobi rule (``gauss_jacobi``), exact for f of degree
    <= 23 and at rounding for f analytic on a neighbourhood of [1/2, 1]
    that reaches w <= 0: the Bernstein ellipse through w = 0 has
    rho = 3 + sqrt 8, and rho^-24 ~ 5e-19. Built on first use per
    exponent; both arrays are read-only.
    """
    x, g = gauss_jacobi(_END_NODES, exponent, 0.0)  # w = (3 + x)/4
    return _read_only(0.75 + 0.25 * x, 4.0 ** (-exponent - 1.0) * g)


@functools.lru_cache(maxsize=32)
def _jacobi_start_rule(p: float) -> tuple[np.ndarray, np.ndarray]:
    """``gauss_jacobi(10, 0, p - 1)`` on [-1, 1]: the start panel of every
    ``unit_rule(p, ., .)`` before its scaling to [0, 2^-depth]. Built on
    first use per p; both arrays are read-only."""
    return _read_only(*gauss_jacobi(_START_NODES, 0.0, p - 1.0))


@functools.lru_cache(maxsize=32)
def unit_rule(p: float, b: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W with sum W f(w) ~ int_0^1 w^(p-1) (1-w)^b f(w) dw.

    Three parts, each with the kernel factor it does not absorb folded
    into its weights: a 10-node Gauss-Jacobi panel for w^(p-1) on
    [0, 2^-depth], depth - 1 Gauss-Legendre bands of 12 nodes doubling
    from 2^-depth to 1/2, and the 12-node ``jacobi_end_rule(b)`` on
    [1/2, 1]. Each panel's node count is sized to its margin (see
    ``_START_NODES``): the start panel is used where the nearest
    singularity of f lies at least twice its width from w = 0. The
    bands keep (band width)/(distance to w = 0) at 1, so f may have a
    branch point at w = 0 or just left of it and is still integrated to
    rounding; f must be analytic on a neighbourhood of [1/2, 1] that
    reaches w <= 0. The left exponent is given as p = a + 1 > 0, the
    power of the first panel's scale (2^-depth/2)^p, so that it enters
    exactly: in floating point (s - 1) + 1 need not be s. b > -1.
    10 + 12 (depth - 1) + 12 nodes, increasing, depending on (p, b,
    depth) only; both arrays are read-only and built on first use. The
    cache holds 32 rules: a run at one s needs, for branch-free data, one
    per depth class of its ``raw_value`` points, and for data with a
    junction branch ``raw_value``'s depth-40 rule, plus
    ``integrate_singular``'s (3 in the README's five runs together, all
    at s = 1/2: depths 1 to 3 of ``raw_value``'s). The tables, H_n and
    R, take no unit rule (``abel_ladder``, ``residual_ladder``). The
    start panel is cached per p and the end panel per b: the ``raw_value``
    rules of every s share p = 1 and take b = s - 1.
    """
    edge = 0.5**depth
    x, g = _jacobi_start_rule(p)  # w = edge (1 + x)/2
    w_left = 0.5 * edge * (1.0 + x)
    W_left = (0.5 * edge) ** p * g * (1.0 - w_left) ** b
    gx, gw = _gauss_legendre()
    half = 0.5 * edge * 2.0 ** np.arange(depth - 1)  # band [2 half, 4 half]
    w_band = 3.0 * half[:, None] + half[:, None] * gx
    W_band = half[:, None] * gw * w_band ** (p - 1.0) * (1.0 - w_band) ** b
    w_right, g_right = jacobi_end_rule(b)
    W_right = g_right * w_right ** (p - 1.0)
    nodes = np.concatenate([w_left, w_band.ravel(), w_right])
    weights = np.concatenate([W_left, W_band.ravel(), W_right])
    return _read_only(nodes, weights)


# the positive half of numpy's leggauss(12) nodes and weights, to the last
# bit; numpy symmetrizes them, so the other half is their mirror image
_LEGENDRE_NODES = (
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
)
_LEGENDRE_WEIGHTS = (
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 12-node Gauss-Legendre rule on [-1, 1], increasing nodes; numpy's
    ``leggauss(12)`` bit for bit without importing numpy.polynomial (the
    Golub-Welsch ``gauss_jacobi(12, 0, 0)`` differs from it in the last
    bits). Both arrays are read-only."""
    half = np.array(_LEGENDRE_NODES)
    weights = np.array(_LEGENDRE_WEIGHTS)
    return _read_only(np.concatenate([-half[::-1], half]), np.concatenate([weights[::-1], weights]))


def _known_points(xi, name: str) -> tuple[np.ndarray, np.ndarray]:
    """xi, a 1-d array of points, as floats and the indices of its points
    other than NaN; refuses a point below 0, outside the ladder rules'
    domain."""
    xi = np.asarray(xi, dtype=float)
    if (xi < 0.0).any():
        raise ValueError(f"{name} integrates from 0 to xi >= 0, got xi = {np.nanmin(xi)!r}")
    return xi, (~np.isnan(xi)).nonzero()[0]


def gauss_ladder(f, xi: np.ndarray, p: float, b: float, gap: float) -> np.ndarray:
    """int_0^1 w^(p-1) (1-w)^b f(xi w) dw for each xi >= 0 of an array.

    f's only singularity is a cut (-inf, -gap], so f(xi w) has its branch
    point at w = -gap/xi. Each point takes ``unit_rule(p, b, depth)``
    with the least depth whose first panel [0, 2^-depth] is no wider
    than half that distance, ceil(log2(2 xi/gap)), at least 1 and at most
    60: 22 nodes up to xi = gap/2, 12 more per doubling of xi beyond, so
    points out to K ladder panels take O(K^2) values of f, where the
    ladder rules take O(K). It serves ``raw_value``'s branch-free data,
    whose points are few, and stays independent of the tables.
    f is called once per block of ``_apply_rules``, whatever the depths.
    Each point's depth depends on its own xi only, so a value does not
    depend on the other points of the call. A NaN point reads NaN; a
    point below 0 is refused with a ``ValueError``.
    """
    xi, known = _known_points(xi, "gauss_ladder")
    with np.errstate(divide="ignore"):  # xi = 0 takes depth 1
        depth = np.ceil(np.log2(2.0 * xi[known] / gap)).clip(1, _MAX_DEPTH).astype(int)
    classes = []
    for d in range(depth.min(initial=_MAX_DEPTH), depth.max(initial=0) + 1):
        at = known[depth == d]
        if at.size:
            classes.append((at, *unit_rule(p, b, d)))
    out = _apply_rules(f, xi, classes)
    out[np.isnan(xi)] = math.nan
    return out


def ladder_edges(gap: float, reach: float) -> np.ndarray:
    """The edges of the panel ladder from 0, up to the first at or beyond
    ``reach`` and at least two: e_0 = 0 and e_(j+1) = e_j + 2^j gap/2, so
    panel j = [e_j, e_(j+1)] is W_j = 2^j gap/2 wide and e_j = (2^j - 1)
    gap/2. The sums are taken in this order for every reach, so a ladder
    grown in steps has the same edges, bit for bit, as one built at once.
    """
    edges, width = [0.0], 0.5 * gap
    while len(edges) < 2 or edges[-1] < reach:
        edges.append(edges[-1] + width)
        width *= 2.0
    return np.array(edges)


@functools.lru_cache(maxsize=32)
def _abel_remainder_rule(s: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights g with sum g f(u) ~ int_0^1 u^(s-1) f(u) du:
    ``gauss_jacobi(18, 0, s - 1)`` mapped to [0, 1]. Built on first use
    per s; both arrays are read-only."""
    x, g = gauss_jacobi(_REMAINDER_NODES, 0.0, s - 1.0)  # u = (1 + x)/2
    return _read_only(0.5 * (1.0 + x), 0.5**s * g)


def abel_ladder(f, xi: np.ndarray, s: float, gap: float) -> np.ndarray:
    """int_0^1 (1-w)^(s-1) f(xi w) dw for each xi >= 0 of an array, by
    product integration on the panel ladder (``ladder_edges``).

    f's only singularity is a cut (-inf, -gap]. With t = xi w the integral
    is xi^-s int_0^xi f(t) (xi-t)^(s-1) dt. For xi in panel k let
    e = e_(max(k-1, 0)) and l = xi - e; then it is

        xi^-s sum_(j<=k-2) sum_m W_jm (xi - t_jm)^(s-1) f(t_jm)
          + (l/xi)^s sum_i g_i f(xi - l u_i),

    with (t_jm, W_jm) the 12-node Gauss-Legendre rule on ladder panel j
    and (u_i, g_i) the 18-node Gauss-Jacobi rule for u^(s-1) on [0, 1]
    (``_abel_remainder_rule``); up to xi = e_2 the first sum is empty and
    (l/xi)^s = 1. The shared nodes t_jm are the same for every point, so f
    is evaluated once at each of them and at 18 remainder nodes per
    point, in one call: a build of the nodes of K panels takes O(K) values
    of f, where a depth rule per point takes O(K^2). See
    ``_REMAINDER_NODES`` for the node counts. Each point's sums run over
    its own panel's nodes only, so a value depends on its xi and the
    fixed ladder alone, not on the other points of the call. At xi = 0 it
    is f(0) times the rule's weight sum, 1/s to rounding. A NaN point
    reads NaN; a point below 0 is refused with a ``ValueError``.
    """
    xi, known = _known_points(xi, "abel_ladder")
    out = np.full(xi.shape, math.nan)
    if not known.size:
        return out
    x = xi[known]
    edges = ladder_edges(gap, x.max())
    panel = edges.searchsorted(x, side="right") - 1  # x in [e_k, e_(k+1))
    start = edges[np.maximum(panel - 1, 0)]
    ell = x - start
    # the shared panels 0 .. k - 2 of the farthest point, 12 nodes each
    shared = max(int(panel.max()) - 1, 0)
    gx, gw = _gauss_legendre()
    lo, hi = edges[:shared, None], edges[1 : shared + 1, None]
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi) + half * gx).ravel()
    u, g = _abel_remainder_rule(s)
    tail = (x[:, None] - ell[:, None] * u).ravel()
    fv = np.asarray(f(np.concatenate([t, tail])), dtype=float)
    weighted = fv[: t.size] * (half * gw).ravel()
    total = (fv[t.size :].reshape(x.size, u.size) * g).sum(axis=1)
    far = panel >= 2  # where l < xi
    total[far] *= (ell[far] / x[far]) ** s
    for k in range(2, int(panel.max()) + 1):
        at = (panel == k).nonzero()[0]
        m = gx.size * (k - 1)
        kernel = (x[at, None] - t[:m]) ** (s - 1.0)
        total[at] += x[at] ** -s * (kernel * weighted[:m]).sum(axis=1)
    out[known] = total
    return out


@functools.cache
def _panel_one_rule() -> tuple[np.ndarray, np.ndarray]:
    """``gauss_jacobi(16, 0, 0)``, the Gauss-Legendre rule of
    ``residual_ladder``'s panel 1 on [-1, 1]. Built on first use; both
    arrays are read-only."""
    return _read_only(*gauss_jacobi(_PANEL_ONE_NODES, 0.0, 0.0))


@functools.lru_cache(maxsize=32)
def _residual_rules(s: float) -> tuple[np.ndarray, ...]:
    """The three Gauss-Jacobi rules of ``residual_ladder`` at order s, each
    as nodes v on [0, 1] and weights:

    - panel 0's, for t^s: sum c f(v) ~ int_0^1 v^(s-1) (f(v) - f(0)) dv,
      the weights G/(1 + x) 2^-s folding in 1/v;
    - the remainder's, for u^(-s): sum g f(u) ~ int_0^1 u^(-s) f(u) du;
    - the near rule's, for v^s (1-v)^(-s): sum c f(v) ~ int_0^1
      v^(s-1) (1-v)^(-s) (f(v) - f(0)) dv, its weights G/(1 + x) free of xi.

    Built on first use per s; every array is read-only.
    """
    x0, g0 = gauss_jacobi(_START_NODES, 0.0, s)  # v = (1 + x)/2
    xr, gr = gauss_jacobi(_RESIDUAL_REMAINDER_NODES, 0.0, -s)
    xn, gn = gauss_jacobi(_RESIDUAL_NEAR_NODES, -s, s)
    return _read_only(0.5 * (1.0 + x0), 0.5**s * g0 / (1.0 + x0),
                      0.5 * (1.0 + xr), 0.5 ** (1.0 - s) * gr,
                      0.5 * (1.0 + xn), gn / (1.0 + xn))


def residual_ladder(f, xi: np.ndarray, s: float, gap: float) -> np.ndarray:
    """int_0^xi t^(s-1) (xi-t)^(-s) f(t) dt for each xi >= 0 of an array, by
    product integration on the panel ladder (``ladder_edges``).

    f's only singularity is a cut (-inf, -gap]; the kernel has branch
    points at t = 0 and t = xi. For xi in panel k >= 2, with
    F(t) = (xi-t)^(-s) f(t) and l = xi - e_(k-1), it is

        e_1^s [F(0)/s + sum_i c_i (F(e_1 v_i) - F(0))]
          + sum_(1<=j<=k-2) sum_m W_jm t_jm^(s-1) (xi - t_jm)^(-s) f(t_jm)
          + l^(1-s) sum_i g_i (xi - l u_i)^(s-1) f(xi - l u_i):

    panel 0's t^(s-1) mass F(0) e_1^s/s in closed form and the rest,
    int_0^e_1 t^s (F(t) - F(0))/t dt, by a Gauss-Jacobi rule for t^s;
    Gauss-Legendre rules (t_jm, W_jm) of 16 nodes on panel 1 and 12 on
    each panel beyond; a Gauss-Jacobi rule for (xi-t)^(-s) on the
    remainder [e_(k-1), xi]. Up to xi = e_2 it is

        f(0) pi/sin(pi s) + sum_i c_i (f(xi v_i) - f(0)),

    one Gauss-Jacobi rule for t^s (xi-t)^(-s) on [0, xi], which at xi = 0
    is f(0) pi/sin(pi s) exactly. (``_residual_rules``; see
    ``_RESIDUAL_REMAINDER_NODES`` for the node counts.) The nodes of f(0),
    panel 0 and the shared panels are the same for every point, so f is
    evaluated once at each of them, at 24 remainder nodes per point beyond
    e_2 and 16 near nodes per point before it, in one call: a build of the
    nodes of K panels takes O(K) values of f, where a depth rule per point
    takes O(K^2). Each point's sums run over its own panel's nodes only,
    so a value depends on its xi and the fixed ladder alone, not on the
    other points of the call. A NaN point reads NaN; a point below 0 is
    refused with a ``ValueError``.
    """
    xi, known = _known_points(xi, "residual_ladder")
    out = np.full(xi.shape, math.nan)
    if not known.size:
        return out
    x = xi[known]
    edges = ladder_edges(gap, x.max())
    panel = edges.searchsorted(x, side="right") - 1  # x in [e_k, e_(k+1))
    top = int(panel.max())
    v0, c0, u, g, v, c = _residual_rules(s)
    near, far = (panel < 2).nonzero()[0], (panel >= 2).nonzero()[0]
    xf, kf = x[far], panel[far]
    # the nodes every point beyond e_2 shares: panel 0's, then those of
    # panels 1 .. top - 2 of the farthest point, 16 on panel 1 and 12 on
    # each beyond
    t0 = edges[1] * v0 if far.size else v0[:0]
    lo, hi = edges[1 : max(top - 1, 1), None], edges[2 : max(top, 2), None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    (x1, w1), (gx, gw) = _panel_one_rule(), _gauss_legendre()
    t = np.concatenate([(mid[:1] + half[:1] * x1).ravel(), (mid[1:] + half[1:] * gx).ravel()])
    w = np.concatenate([(half[:1] * w1).ravel(), (half[1:] * gw).ravel()])
    ell = xf - edges[kf - 1]
    tail = xf[:, None] - ell[:, None] * u
    nodes = [np.zeros(1), t0, t, (x[near, None] * v).ravel(), tail.ravel()]
    fv = np.asarray(f(np.concatenate(nodes)), dtype=float)
    stops = itertools.accumulate(a.size for a in nodes)
    (f_0,), f_t0, f_t, f_near, f_tail = (fv[stop - a.size : stop] for a, stop in zip(nodes, stops))
    total = np.empty(x.size)
    total[near] = f_0 * reflection(s) + ((f_near.reshape(near.size, v.size) - f_0) * c).sum(axis=1)
    if far.size:
        F0 = xf**-s * f_0
        F = (xf[:, None] - t0) ** -s * f_t0
        far_total = edges[1] ** s * (F0 / s + ((F - F0[:, None]) * c0).sum(axis=1))
        weighted = w * t ** (s - 1.0) * f_t
        for k in range(3, top + 1):
            at = (kf == k).nonzero()[0]
            m = x1.size + gx.size * (k - 3)  # panels 1 .. k - 2
            far_total[at] += ((xf[at, None] - t[:m]) ** -s * weighted[:m]).sum(axis=1)
        far_total += ell ** (1.0 - s) * (tail ** (s - 1.0) * f_tail.reshape(tail.shape) * g).sum(axis=1)
        total[far] = far_total
    out[known] = total
    return out


def apply_rule(f, xi: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k f(xi nodes_k) for each xi of a 1-d array, by
    ``_apply_rules`` with one rule for every point."""
    return _apply_rules(f, xi, [(np.arange(xi.size), nodes, weights)])


def _apply_rules(f, xi: np.ndarray, classes) -> np.ndarray:
    """sum_k W_k f(xi w_k) at each point of each class (points, w, W).

    The classes' values of f fill blocks of at most 8192 in turn, a class
    running on into the next block, and f is called once per block on a
    1-d array, which bounds the memory of a call; a rule of more than 8192
    nodes (a ``unit_rule`` has at most 730) takes one point per block.
    Each point's row is reduced on its own, so a value does not depend on
    the other points of the call or on its block.
    """
    out, blocks, filled = np.zeros_like(xi), [], _BLOCK_NODES
    for at, nodes, weights in classes:
        while at.size:
            if filled and filled + nodes.size > _BLOCK_NODES:  # no row fits: start the next block
                blocks.append([])
                filled = 0
            rows = max((_BLOCK_NODES - filled) // nodes.size, 1)  # one if the rule is longer
            blocks[-1].append((at[:rows], nodes, weights))
            filled += min(rows, at.size) * nodes.size
            at = at[rows:]
    for block in blocks:
        fv = np.asarray(f(np.concatenate([(xi[at, None] * w).ravel() for at, w, _ in block])))
        start = 0
        for at, nodes, weights in block:
            stop = start + at.size * nodes.size
            out[at] = (fv[start:stop].reshape(at.size, nodes.size) * weights).sum(axis=1)
            start = stop
    return out


def integrate_singular(f, lo: float, hi: float, exponent: float, singular_end: str) -> float:
    """int_lo^hi f(t) |x_s - t|^exponent dt with x_s the singular endpoint.

    The distance u = |x_s - t| = (hi - lo) w maps the integral onto
    (hi - lo)^(exponent+1) int_0^1 w^exponent f(t(w)) dw, taken by
    ``unit_rule(exponent + 1, 0, 12)``: its bands resolve a branch point
    of f just past the singular end, and f must be analytic on a
    neighbourhood of the far half. f must accept an ndarray of nodes and
    return values elementwise; it is evaluated at neither endpoint.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("integration requires lo < hi")
    if not (-1.0 < exponent < 0.0):
        raise ValueError(f"exponent must lie in (-1, 0), got {exponent}")
    if singular_end not in ("left", "right"):
        raise ValueError("singular_end must be 'left' or 'right'")
    p = float(exponent) + 1.0
    w, W = unit_rule(p, 0.0, _SINGULAR_DEPTH)
    span = hi - lo
    t = lo + span * w if singular_end == "left" else hi - span * w
    return float(span**p * (np.asarray(f(t), dtype=float) * W).sum())


def kernel_identity_check(s: float, tau: float, x: float) -> float:
    """Numerically evaluate int_tau^x (y-tau)^(s-1) (x-y)^(-s) dy.

    Both endpoints are singular: the integral is split at the midpoint and
    each half taken by ``integrate_singular`` with the other factor smooth.
    The value equals reflection(s) = pi/sin(pi s) independently of (tau, x).
    """
    s = fractional_order(s)
    tau, x = float(tau), float(x)
    if not tau < x:
        raise ValueError("kernel identity requires tau < x")
    mid = 0.5 * (tau + x)
    left = integrate_singular(lambda y: (x - y) ** (-s), tau, mid, s - 1.0, "left")
    right = integrate_singular(lambda y: (y - tau) ** (s - 1.0), mid, x, -s, "right")
    return left + right


def poly_abel_integral(pieces, x, e: float):
    """int p(t) (x - t)^e dt summed over polynomial pieces, each up to min(tau_hi, x).

    pieces: iterable of (tau_lo, tau_hi, coeffs about tau_lo); x may be an
    array. Pieces with tau_lo >= x contribute nothing; a NaN x reads NaN.
    With u = t - tau_lo and v = x - tau_lo a piece is int p(u) (v - u)^e du,
    taken exactly: by the binomial series of (1 - u/v)^e where the piece
    is at most v/8 long (``_FAR_RATIO``; ``_far_piece``), whose terms do
    not cancel, else by the power rule (``_near_piece``), whose terms
    cancel at most like 8^k at degree k. Where a piece reaches x its end there contributes
    nothing, for e <= -1 Hadamard's finite part, which the forcing's
    derivatives take over the last data piece continued past b. r + e + 1
    must not vanish for any r up to the degree.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.where(np.isnan(xa), math.nan, 0.0)
    for tau_lo, tau_hi, coeffs in pieces:
        coeffs = np.asarray(coeffs, dtype=float)
        size = min(coeffs.size, MAX_DEGREE + 1)
        while size and coeffs[size - 1] == 0.0:
            size -= 1
        live = xa > tau_lo  # a NaN point is not live and stays NaN
        if not size or not live.any():
            continue
        xs = xa[live]
        v, length = xs - tau_lo, tau_hi - tau_lo
        far = v >= _FAR_RATIO * length  # never for a piece continued to inf
        near = ~far
        part = np.empty_like(v)
        if far.any():
            part[far] = _far_piece(coeffs[:size], length, v[far], e)
        part[near] = _near_piece(coeffs[:size], xs[near], v[near], tau_lo, tau_hi, e)
        total[live] += part
    return total.reshape(x.shape) if isinstance(x, np.ndarray) else float(total[0])


def _near_piece(coeffs, xs, v, tau_lo: float, tau_hi: float, e: float) -> np.ndarray:
    """The piece at points xs by the power rule: with gap = x - min(tau_hi,
    x) and (v - w)^k expanded in w = x - t, it is

        v^(e+1) sum_k c_k v^k sum_(r<=k) C(k, r) (-1)^r D_r,
        D_r = (1 - (gap/v)^q)/q = -expm1(q mu)/q,  q = r + e + 1,

    mu = log(gap/v) = -log1p(length/gap), each D_r to rounding wherever x lies.
    """
    with np.errstate(divide="ignore"):  # +inf where x lies on the piece
        lg = np.log1p((np.minimum(xs, tau_hi) - tau_lo) / np.maximum(xs - tau_hi, 0.0))
    # gathered by r: each expm1(q mu) times sum_(k>=r) C(k, r) (-1)^(r+1) c_k v^k / q
    top = coeffs.size - 1
    acc = 0.0
    for r in range(coeffs.size):
        q = r + e + 1.0
        scale = (-1.0) ** (r + 1) / q
        poly = math.comb(top, r) * scale * coeffs[top]
        for k in range(top - 1, r - 1, -1):
            poly = poly * v + math.comb(k, r) * scale * coeffs[k]
        qmu = lg * -q
        if q < 0.0:  # (gap/v)^q is taken as 0 at gap = 0: that end drops
            qmu[lg == np.inf] = -np.inf
        acc = acc + np.expm1(qmu) * (poly * v**r if r else poly)
    return v ** (e + 1.0) * acc


def _far_piece(coeffs, length: float, v, e: float) -> np.ndarray:
    """The piece at distances v >= 8 length by the series (1 - u/v)^e =
    sum_n (-e)_n/n! (u/v)^n, each term integrated exactly,

        v^e length sum_n (-e)_n/n! y^n sum_k c_k length^k/(k + n + 1),

    y = length/v, by Horner's rule up to the first n where (-e)_n/n! 8^-n
    < 2^-54, relative to sum_k |c_k| length^k/(k + 1): the same terms for
    every point, so a value does not depend on the other points.
    """
    y = length / v
    scaled = coeffs * length ** np.arange(coeffs.size)
    terms, rising, n = [], 1.0, 0
    while not abs(rising) * _FAR_RATIO**-n < 2.0**-54:
        terms.append(rising * sum(c / (k + n + 1) for k, c in enumerate(scaled)))
        n += 1
        rising *= (n - 1 - e) / n
    acc = np.full_like(y, terms[-1])
    for t in reversed(terms[:-1]):
        acc *= y
        acc += t
    return v**e * length * acc
