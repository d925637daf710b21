"""Product integration for weakly singular integrals.

Evaluates integrals of the form

    int_lo^hi f(t) |x_s - t|^e dt,      e in (-1, 0),

with the singular point x_s at one endpoint. The smooth factor f is
interpolated by a cubic on four equispaced nodes per mesh panel and the
weighted panel moments int u^(k+e) du are evaluated in closed form, so
polynomials of degree <= 3 are integrated exactly regardless of the
weight. Meshes are graded algebraically toward the singular end.

Far from the singularity the moments are computed through a binomial
series in (panel width)/(2 * distance) -- the direct power-difference
form loses digits there -- and near it through the plain power rule.
Both paths are exact to rounding.

The Caputo residual needs int_0^1 w^(s-1) (1-w)^(-s) f(w) dw, singular
at both ends. ``abel_unit_rule`` builds it from Gauss-Jacobi panels
(``gauss_jacobi``, Golub-Welsch) at the ends and Gauss-Legendre bands
between them; see Diethelm, The Analysis of Fractional Differential
Equations (2010), ch. 7, for product integration of Abel kernels. The
tables of the solver's analytic factors take their right halves from
the same 20-node end panel (``jacobi_end_rule``) and their left halves
from ``gauss_ladder``, which integrates one ladder per point in a
single call; the representation formula behind ``raw_value`` uses one
cubic product-integration rule on [0, 1] (``split_graded_rule``).

Rules on a default graded mesh depend only on (lo, hi, exponent,
singular_end, n, grade), the unit rules only on their exponent, panel
count and grade. They are built on first use, kept in bounded
module-level caches and handed out as read-only arrays, so one rule
serves every integrand and every thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .piecewise import MAX_DEGREE
from .special_functions import FractionalOrder

__all__ = [
    "GradedMesh",
    "integrate_singular",
    "kernel_identity_check",
    "default_grade",
    "poly_abel_integral",
    "gauss_ladder",
    "graded_rule",
    "abel_unit_rule",
    "gauss_jacobi",
    "jacobi_end_rule",
    "split_graded_rule",
]

_PANEL_REF = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])
_VANDER_INV = np.linalg.inv(_PANEL_REF[:, None] ** np.arange(4)[None, :])
_SERIES_TERMS = 48  # binomial series at ratio <= 1/3: 3^-48 ~ 1e-23


def default_grade(exponent: float) -> float:
    """Default mesh grading max(2, 2/(1+e)) toward the weight's singular end."""
    return max(2.0, 2.0 / (1.0 + exponent))


@dataclass(frozen=True)
class GradedMesh:
    """Panel breakpoints clustered algebraically toward one endpoint.

    node_i = singular end +/- |hi - lo| * (i/n)**grade measured from the
    singular end; grade = 1 reproduces a uniform mesh.
    """

    lo: float
    hi: float
    n: int
    grade: float
    singular_end: str

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("mesh requires lo < hi")
        if self.n < 1:
            raise ValueError("mesh requires at least one panel")
        if self.grade < 1.0:
            raise ValueError("grade must be >= 1")
        if self.singular_end not in ("left", "right"):
            raise ValueError("singular_end must be 'left' or 'right'")

    def breakpoints(self) -> np.ndarray:
        frac = (np.arange(self.n + 1) / self.n) ** self.grade
        span = self.hi - self.lo
        offsets = span * frac
        # strong grading pushes the first offsets from the singular end far
        # below float resolution (down to 1e-230 at grade 100); collapsing
        # them merges those panels into the next one, which is exact to
        # rounding. Below a quarter ulp of the span an offset already rounds
        # into any endpoint of magnitude >= span, so only meshes that start
        # near 0 are changed by doing it here rather than through np.unique.
        offsets[offsets < 0.25 * np.finfo(float).eps * span] = 0.0
        if self.singular_end == "left":
            bp = self.lo + offsets
        else:
            bp = self.hi - offsets[::-1]
        bp[0], bp[-1] = self.lo, self.hi
        return np.unique(bp)


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


def _panel_moments(A: np.ndarray, B: np.ndarray, e: float) -> np.ndarray:
    """Moments mu_k = int_A^B w(u)^k u^e du, w the panel-local coordinate in [-1, 1].

    Returns shape (npanels, 4).
    """
    h = B - A
    uc = 0.5 * (A + B)
    mu = np.empty((A.size, 4))

    far = A >= h
    near = ~far

    if np.any(near):
        An, Bn, hn, ucn = A[near], B[near], h[near], uc[near]
        delta = np.stack(
            [_stable_pow_diff(Bn, An, i + e + 1.0) / (i + e + 1.0) for i in range(4)],
            axis=-1,
        )
        for k in range(4):
            acc = np.zeros_like(hn)
            for i in range(k + 1):
                acc += math.comb(k, i) * (-ucn) ** (k - i) * delta[:, i]
            mu[near, k] = (2.0 / hn) ** k * acc

    if np.any(far):
        hf, ucf = h[far], uc[far]
        rho = hf / (2.0 * ucf)
        bc = 1.0
        sums = np.zeros((4, hf.size))
        rho_j = np.ones_like(rho)
        for j in range(_SERIES_TERMS + 1):
            if j > 0:
                bc *= (e - j + 1.0) / j
                rho_j = rho_j * rho
            term = bc * rho_j
            for k in range(4):
                if (j + k) % 2 == 0:
                    sums[k] += term / (j + k + 1.0)
        mu[far] = (hf * ucf**e)[:, None] * sums.T

    return mu


def _panel_rule(u_edges: np.ndarray, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (in u-distance) and product-integration weights for each panel."""
    A, B = u_edges[:-1], u_edges[1:]
    uc = 0.5 * (A + B)
    half = 0.5 * (B - A)
    nodes = uc[:, None] + half[:, None] * _PANEL_REF[None, :]
    weights = _panel_moments(A, B, e) @ _VANDER_INV
    return nodes, weights


def _mesh_rule(bp, lo, hi, exponent, singular_end) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights, each (panels, 4), of the rule on breakpoints bp."""
    if bp[0] != lo or bp[-1] != hi or np.any(np.diff(bp) <= 0.0):
        raise ValueError("mesh breakpoints must increase strictly from lo to hi")
    if singular_end == "left":
        u_edges = bp - lo
    else:
        u_edges = (hi - bp)[::-1]
    nodes_u, weights = _panel_rule(u_edges, exponent)
    t = lo + nodes_u if singular_end == "left" else hi - nodes_u
    return t, weights


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def graded_rule(
    lo: float, hi: float, exponent: float, singular_end: str, n: int, grade: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cached rule on GradedMesh(lo, hi, n, grade, singular_end): nodes t and
    weights, each (panels, 4) and read-only, for the weight |x_s - t|^exponent."""
    bp = GradedMesh(lo, hi, n, grade, singular_end).breakpoints()
    return _read_only(*_mesh_rule(bp, lo, hi, exponent, singular_end))


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


# 20-node Gauss-Jacobi panels at the singular ends of the unit rules; the
# residual rule adds _BANDS Gauss-Legendre bands doubling up to [1/4, 1/2]
_END_NODES = 20
_BAND_NODES = 12
_BANDS = 11


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


@functools.lru_cache(maxsize=16)
def abel_unit_rule(s: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W with sum W f(w) ~ int_0^1 w^(s-1) (1-w)^(-s) f(w) dw.

    Three parts, each with the kernel factor it does not absorb folded
    into its weights: ``jacobi_end_rule(-s)`` on [1/2, 1], a Gauss-Jacobi
    panel for w^(s-1) on [0, 2^-12], and 11 Gauss-Legendre bands doubling
    from 2^-12 to 1/2. The bands keep (band width)/(distance to w = 0) at
    1, so f may have a branch point just left of 0 -- H_1((x-b) w) has one
    at w = -gap/(x-b) -- and is still integrated to rounding (measured up
    to x - b = 2e4 gaps, where the branch point sits at w = -5e-5).
    20 + 11*12 + 20 = 172 nodes, increasing, depending on s only; both
    arrays are read-only and built on first use.
    """
    edge = 0.5 ** (_BANDS + 1)
    x, g = gauss_jacobi(_END_NODES, 0.0, s - 1.0)  # w = edge (1 + x)/2
    w_left = 0.5 * edge * (1.0 + x)
    W_left = (0.5 * edge) ** s * g * (1.0 - w_left) ** -s
    gx, gw = _gauss_legendre(_BAND_NODES)
    half = 0.5 * edge * 2.0 ** np.arange(_BANDS)  # band [2 half, 4 half]
    w_band = 3.0 * half[:, None] + half[:, None] * gx
    W_band = half[:, None] * gw * w_band ** (s - 1.0) * (1.0 - w_band) ** -s
    w_right, g_right = jacobi_end_rule(-s)
    W_right = g_right * w_right ** (s - 1.0)
    nodes = np.concatenate([w_left, w_band.ravel(), w_right])
    weights = np.concatenate([W_left, W_band.ravel(), W_right])
    return _read_only(nodes, weights)


@functools.lru_cache(maxsize=16)
def split_graded_rule(exponent: float, n: int, grade: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes w and weights W, each (panels, 4) and read-only, with
    sum W f(w) ~ int_0^1 f(w) (1-w)^exponent dw.

    Cubic product integration on n panels graded by 4 toward 0 on [0, 1/2]
    (where f may carry a branch at 0) and n panels graded by ``grade``
    toward the singular end 1 on [1/2, 1]. Any such integral over [b, x]
    is this rule scaled by the affine map t = b + (x - b) w.
    """
    left = GradedMesh(0.0, 0.5, n, 4.0, "left").breakpoints()
    right = GradedMesh(0.5, 1.0, n, grade, "right").breakpoints()
    bp = np.concatenate([left, right[1:]])
    return _read_only(*_mesh_rule(bp, 0.0, 1.0, exponent, "right"))


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(*np.polynomial.legendre.leggauss(n))


def integrate_singular(
    f,
    lo: float,
    hi: float,
    exponent: float,
    singular_end: str,
    mesh=None,
    n: int = 256,
    grade: float | None = None,
) -> float:
    """int_lo^hi f(t) |x_s - t|^exponent dt with x_s the singular endpoint.

    f must accept an ndarray of nodes and return values elementwise; it is
    never evaluated at the singular endpoint itself. Panel contributions
    are summed in ascending distance order for reproducibility. Without
    an explicit mesh the rule comes from ``graded_rule`` and is built
    once per (lo, hi, exponent, singular_end, n, grade).
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("integration requires lo < hi")
    if not (-1.0 < exponent < 0.0):
        raise ValueError(f"exponent must lie in (-1, 0), got {exponent}")
    if singular_end not in ("left", "right"):
        raise ValueError("singular_end must be 'left' or 'right'")

    if mesh is None:
        q = default_grade(exponent) if grade is None else float(grade)
        t, weights = graded_rule(lo, hi, float(exponent), singular_end, int(n), q)
    else:
        bp = mesh.breakpoints() if isinstance(mesh, GradedMesh) else np.asarray(mesh, dtype=float)
        t, weights = _mesh_rule(bp, lo, hi, exponent, singular_end)
    fv = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    return float(np.sum(np.sum(fv * weights, axis=1)))


def kernel_identity_check(s: FractionalOrder | float, tau: float, x: float, n: int = 256) -> float:
    """Numerically evaluate int_tau^x (y-tau)^(s-1) (x-y)^(-s) dy.

    Both endpoints are singular: the integral is split at the midpoint and
    each half handled by product integration with the other factor smooth.
    The value equals reflection(s) = pi/sin(pi s) independently of (tau, x).
    """
    s = FractionalOrder.of(s).s
    tau, x = float(tau), float(x)
    if not tau < x:
        raise ValueError("kernel identity requires tau < x")
    mid = 0.5 * (tau + x)
    left = integrate_singular(lambda y: (x - y) ** (-s), tau, mid, s - 1.0, "left", n=n)
    right = integrate_singular(lambda y: (y - tau) ** (s - 1.0), mid, x, -s, "right", n=n)
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
