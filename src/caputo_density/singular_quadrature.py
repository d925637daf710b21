"""Gauss-Jacobi product integration for weakly singular integrals.

Every singular integral of the package is taken on the unit interval by
one rule family, ``unit_rule``:

    sum W f(w) ~ int_0^1 w^(p-1) (1-w)^b f(w) dw,

a Gauss-Jacobi panel (``gauss_jacobi``, Golub-Welsch) for w^(p-1) at 0,
Gauss-Legendre bands doubling from 2^-depth to 1/2 and the Gauss-Jacobi
end panel ``jacobi_end_rule(b)`` on [1/2, 1]; see Diethelm, The Analysis
of Fractional Differential Equations (2010), ch. 7, for product
integration of Abel kernels. Its users differ only in (p, b, depth):

- the Caputo residual's int_0^1 w^(s-1) (1-w)^(-s) f(w) dw
  (``abel_unit_rule``);
- the representation formula behind ``raw_value``, whose integrand
  carries the junction branch w^(1-s) at w = 0;
- ``integrate_singular``, for int_lo^hi f(t) |x_s - t|^e dt with the
  singular point x_s at one endpoint.

The tables of the solver's analytic factors take their right halves from
the same 20-node end panel and their left halves from ``gauss_ladder``,
which integrates one ladder per point in a single call.

The unit rules depend only on (p, b, depth) and the end panels only on
their exponent. They are built on first use, kept in bounded
module-level caches and handed out as read-only arrays, so one rule
serves every integrand and every thread.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .piecewise import MAX_DEGREE
from .special_functions import FractionalOrder

__all__ = [
    "integrate_singular",
    "kernel_identity_check",
    "poly_abel_integral",
    "gauss_ladder",
    "unit_rule",
    "abel_unit_rule",
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


# 20-node Gauss-Jacobi panels at the ends of the unit rules, 12-node
# Gauss-Legendre bands between them; integrate_singular's first band is
# [0, 2^-12]
_END_NODES = 20
_BAND_NODES = 12
_SINGULAR_DEPTH = 12


@functools.lru_cache(maxsize=32)
def jacobi_end_rule(exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W with sum W f(w) ~ int_1/2^1 (1-w)^exponent f(w) dw.

    A 20-node Gauss-Jacobi rule (``gauss_jacobi``), exact for f of degree
    <= 39 and at rounding for f analytic on a neighbourhood of [1/2, 1]
    that reaches w <= 0. Built on first use per exponent; both arrays are
    read-only.
    """
    x, g = gauss_jacobi(_END_NODES, exponent, 0.0)  # w = (3 + x)/4
    return _read_only(0.75 + 0.25 * x, 4.0 ** (-exponent - 1.0) * g)


@functools.lru_cache(maxsize=32)
def unit_rule(p: float, b: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W with sum W f(w) ~ int_0^1 w^(p-1) (1-w)^b f(w) dw.

    Three parts, each with the kernel factor it does not absorb folded
    into its weights: a 20-node Gauss-Jacobi panel for w^(p-1) on
    [0, 2^-depth], depth - 1 Gauss-Legendre bands of 12 nodes doubling
    from 2^-depth to 1/2, and ``jacobi_end_rule(b)`` on [1/2, 1]. The
    bands keep (band width)/(distance to w = 0) at 1, so f may have a
    branch point at w = 0 or just left of it and is still integrated to
    rounding; f must be analytic on a neighbourhood of [1/2, 1] that
    reaches w <= 0. The left exponent is given as p = a + 1 > 0, the
    power of the first panel's scale (2^-depth/2)^p, so that it enters
    exactly: in floating point (s - 1) + 1 need not be s. b > -1.
    20 + 12 (depth - 1) + 20 nodes, increasing, depending on (p, b,
    depth) only; both arrays are read-only and built on first use. The
    cache holds 32 rules: a run at one s needs one per residual depth
    class its points fall in (3 in the README's five runs together),
    plus those of ``raw_value`` and ``integrate_singular``.
    """
    edge = 0.5**depth
    x, g = gauss_jacobi(_END_NODES, 0.0, p - 1.0)  # w = edge (1 + x)/2
    w_left = 0.5 * edge * (1.0 + x)
    W_left = (0.5 * edge) ** p * g * (1.0 - w_left) ** b
    gx, gw = _gauss_legendre(_BAND_NODES)
    half = 0.5 * edge * 2.0 ** np.arange(depth - 1)  # band [2 half, 4 half]
    w_band = 3.0 * half[:, None] + half[:, None] * gx
    W_band = half[:, None] * gw * w_band ** (p - 1.0) * (1.0 - w_band) ** b
    w_right, g_right = jacobi_end_rule(b)
    W_right = g_right * w_right ** (p - 1.0)
    nodes = np.concatenate([w_left, w_band.ravel(), w_right])
    weights = np.concatenate([W_left, W_band.ravel(), W_right])
    return _read_only(nodes, weights)


def abel_unit_rule(s: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W with sum W f(w) ~ int_0^1 w^(s-1) (1-w)^(-s) f(w) dw.

    ``unit_rule(s, -s, depth)``: 20 + 12 (depth - 1) + 20 nodes. Its first
    panel [0, 2^-depth] and the bands after it integrate f to rounding
    when f's only singularity is a branch point at w = -d with
    2^-depth <= d/2. H_1((x-b) w) has its branch point at
    w = -gap/(x-b), so the Caputo residual takes at each point the
    least such depth, ceil(log2(2 (x-b)/gap)) and at least 1.
    """
    return unit_rule(s, -s, depth)


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(*np.polynomial.legendre.leggauss(n))


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


def kernel_identity_check(s: FractionalOrder | float, tau: float, x: float) -> float:
    """Numerically evaluate int_tau^x (y-tau)^(s-1) (x-y)^(-s) dy.

    Both endpoints are singular: the integral is split at the midpoint and
    each half taken by ``integrate_singular`` with the other factor smooth.
    The value equals reflection(s) = pi/sin(pi s) independently of (tau, x).
    """
    s = FractionalOrder.of(s).s
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


def gauss_ladder(f, lo: float, hi: float, first_width, n_gl: int = 16):
    """Integrate smooth f on [lo, hi] by Gauss panels doubling away from lo.

    Used when f is analytic on (lo, hi] but has a branch point just left
    of lo: bands of geometrically growing width keep (band width)/(distance)
    bounded, so fixed-order Gauss is exact to rounding on every band.

    With an array ``first_width`` every entry gets its own ladder and f is
    called once, on nodes of shape (len(first_width), nodes), returning
    values elementwise; the result is one integral per entry. Shorter
    ladders are padded with zero-width bands at hi (so f(hi) must be
    finite), and each row's bands are summed in order, so a row's value
    does not depend on the other rows.
    """
    lo, hi = float(lo), float(hi)
    widths = np.asarray(first_width, dtype=float)
    span = hi - lo
    if span <= 0.0:
        return np.zeros(widths.shape) if widths.ndim else 0.0
    first = np.minimum(np.maximum(np.atleast_1d(widths), 1e-13 * span), span)
    edges = [np.zeros_like(first)]
    w = first
    while True:
        grow = edges[-1] + w < span
        if not np.any(grow):
            break
        edges.append(np.where(grow, edges[-1] + w, span))
        w = 2.0 * w
    edges.append(np.full_like(first, span))
    edges = lo + np.stack(edges, axis=1)
    gx, gw = _gauss_legendre(n_gl)
    a, b = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[..., None] + half[..., None] * gx
    shape = (first.size, -1) if widths.ndim else (-1,)
    fv = np.asarray(f(nodes.reshape(shape)), dtype=float).reshape(nodes.shape)
    total = np.cumsum(np.sum(fv * gw, axis=2) * half, axis=1)[:, -1]
    return total if widths.ndim else float(total[0])
