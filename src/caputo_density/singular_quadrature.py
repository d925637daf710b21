"""Gauss-Jacobi product integration for weakly singular integrals.

Every singular integral of the package is taken on the unit interval by
one rule family, ``unit_rule``:

    sum W f(w) ~ int_0^1 w^(p-1) (1-w)^b f(w) dw,

a 10-node Gauss-Jacobi panel (``gauss_jacobi``, Golub-Welsch) for
w^(p-1) at 0, 12-node Gauss-Legendre bands doubling from 2^-depth to 1/2
and the 12-node Gauss-Jacobi end panel ``jacobi_end_rule(b)`` on [1/2, 1]:
10 + 12 depth nodes, each panel's count sized to its distance from the
nearest singularity. See Diethelm, The Analysis of Fractional
Differential Equations (2010), ch. 7, for product integration of Abel
kernels. Its users differ only in (p, b, depth):

- ``gauss_ladder``, for int_0^1 w^(p-1) (1-w)^b f(xi w) dw at many xi
  with f cut at (-inf, -gap]: each point takes the depth its own branch
  point w = -gap/xi needs. It serves the node values of the solver's
  tables: those of the analytic factors H_n (p = 1, b = s - 1) and
  those of the Caputo residual's R, over the order-1 table (p = s,
  b = -s). It also serves the representation formula behind
  ``raw_value`` for data whose g has no junction branch (p = 1,
  b = s - 1);
- ``raw_value`` for data with a junction branch, whose integrand
  carries w^(1-s) at w = 0: one rule of depth 40 (490 nodes) at every
  point;
- ``integrate_singular``, for int_lo^hi f(t) |x_s - t|^e dt with the
  singular point x_s at one endpoint.

``gauss_ladder`` and ``raw_value`` apply their rules to many points with
``apply_rule``, in blocks that bound memory. The unit rules depend only
on (p, b, depth) and the end panels only on their exponent. They are
built on first use, kept in bounded module-level caches and handed out
as read-only arrays, so one rule serves every integrand and every
thread.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .piecewise import MAX_DEGREE
from .special_functions import fractional_order

__all__ = [
    "integrate_singular",
    "kernel_identity_check",
    "poly_abel_integral",
    "gauss_ladder",
    "apply_rule",
    "unit_rule",
    "gauss_jacobi",
    "jacobi_end_rule",
]


def _stable_pow_diff(hi: np.ndarray, lo: np.ndarray, p) -> np.ndarray:
    """hi**p - lo**p elementwise for hi >= lo >= 0, p > 0, without cancellation."""
    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    close = lo > 0.6667 * hi  # cancellation regime; elsewhere direct is exact enough
    safe_lo = np.where(close, lo, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        main = safe_lo**p * np.expm1(p * np.log1p((hi - lo) / safe_lo))
    direct = np.where(hi > 0.0, hi**p, 0.0) - np.where(lo > 0.0, lo**p, 0.0)
    return np.where(close, main, direct)


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
    a + b = 0 and a + b = -1.
    """
    if n < 1 or not (a > -1.0 and b > -1.0):
        raise ValueError(f"gauss_jacobi needs n >= 1 and a, b > -1, got {n}, {a}, {b}")
    ab = a + b
    k = np.arange(n, dtype=float)
    two_k = 2.0 * k + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (two_k * (two_k + 2.0))
        off = (
            4.0 * k * (k + a) * (k + b) * (k + ab)
            / (two_k**2 * (two_k + 1.0) * (two_k - 1.0))
        )[1:]
    diag[0] = (b - a) / (ab + 2.0)
    if n > 1:
        off[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((ab + 2.0) ** 2 * (ab + 3.0))
    off = np.sqrt(off)
    x, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
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
_SINGULAR_DEPTH = 12
# values of f per block of an apply_rule call; bounds its memory
_BLOCK_NODES = 8192
# deepest gauss_ladder rule (730 nodes): it resolves points up to 2^59
# gaps right of b, and ExtensionSolution refuses reads beyond
_MAX_DEPTH = 60


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
    cache holds 32 rules: a run at one s needs one per depth class of
    the nodes of its H_n tables and one per depth class of the nodes of
    its residual table R, plus ``integrate_singular``'s and, for data
    with a junction branch, ``raw_value``'s depth-40 rule (14 in the
    README's five runs together, all at s = 1/2: depths 1 to 7 of each
    table's rule; branch-free ``raw_value`` reads share the table rules).
    The start panel is cached per p and the end panel per b: the table,
    residual and ``raw_value`` rules of one s take two of each (p = 1, s
    and b = s - 1, -s), and p = 1 serves every s.
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


def gauss_ladder(f, xi: np.ndarray, p: float, b: float, gap: float) -> np.ndarray:
    """int_0^1 w^(p-1) (1-w)^b f(xi w) dw for each xi >= 0 of an array.

    f's only singularity is a cut (-inf, -gap], so f(xi w) has its branch
    point at w = -gap/xi. Each point takes ``unit_rule(p, b, depth)``
    with the least depth whose first panel [0, 2^-depth] is no wider
    than half that distance, ceil(log2(2 xi/gap)), at least 1 and at most
    60: 22 nodes up to xi = gap/2, 12 more per doubling of xi beyond.
    Points of one depth share one rule, applied by ``apply_rule``. Each
    point's depth depends on its own xi only, so a value does not depend
    on the other points of the call.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    with np.errstate(divide="ignore"):  # xi = 0 takes depth 1
        depth = np.clip(np.ceil(np.log2(2.0 * xi / gap)), 1, _MAX_DEPTH).astype(int)
    for d in range(depth.min(initial=_MAX_DEPTH), depth.max(initial=0) + 1):
        at = np.flatnonzero(depth == d)
        if at.size:
            out[at] = apply_rule(f, xi[at], *unit_rule(p, b, d))
    return out


def apply_rule(f, xi: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k f(xi nodes_k) for each xi of a 1-d array.

    The points are taken in blocks of at most 8192 values of f, which
    bounds the memory of a call; f is called on a 1-d array and returns
    values elementwise. Each point's sum is reduced on its own, so a
    value does not depend on the other points of the call or on the
    block it falls in.
    """
    out = np.empty_like(xi)
    rows = max(1, _BLOCK_NODES // nodes.size)
    for start in range(0, xi.size, rows):
        z = xi[start : start + rows, None] * nodes
        fv = np.asarray(f(z.ravel()), dtype=float)
        out[start : start + rows] = np.sum(fv.reshape(z.shape) * weights, axis=1)
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
    return float(span**p * np.sum(np.asarray(f(t), dtype=float) * W))


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
    """Exact int p(t) (x - t)^e dt summed over polynomial pieces, up to min(hi, x).

    pieces: iterable of (tau_lo, tau_hi, coeffs-about-tau_lo); x may be an
    array. Pieces with tau_lo >= x contribute nothing. Requires e > -1;
    the upper limit may touch x itself (weak singularity integrated
    exactly by the power rule).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros_like(xa)
    for tau_lo, tau_hi, coeffs in pieces:
        coeffs = np.asarray(coeffs, dtype=float)
        active = xa > tau_lo
        if not np.any(active):
            continue
        xs = xa[active]
        upper = np.minimum(tau_hi, xs)
        v_hi = xs - tau_lo  # distance of the far edge from x
        v_lo = xs - upper
        base = xs - tau_lo
        acc = np.zeros_like(xs)
        for k in range(min(coeffs.size, MAX_DEGREE + 1)):
            ck = coeffs[k]
            if ck == 0.0:
                continue
            for r in range(k + 1):
                p = r + e + 1.0
                delta = _stable_pow_diff(v_hi, v_lo, p) / p
                acc += ck * math.comb(k, r) * base ** (k - r) * (-1.0) ** r * delta
        total[active] += acc
    return total if isinstance(x, np.ndarray) else float(total[0])
