"""Solve D_a^s u = 0 on (b, inf) with prescribed causal data on (-inf, b].

The problem is equivalent to the integro-differential equation

    int_b^x u'(t) (x-t)^(-s) dt = g(x) := -int_a^b phi'(t) (x-t)^(-s) dt,

whose unique solution with u(b) = phi(b) is

    u(x) = phi(b) + (sin(pi s)/pi) int_b^x g(t) (x-t)^(s-1) dt.

For piecewise-polynomial data every g^(i) is a finite sum of power-law
terms c * (x-b)^j * (x-tau)^p, computed exactly here. The terms that are
pure powers of (x-b) carry the junction branch xi^(k+1-s); integrating
them against the kernel gives an exact polynomial in (x-b), and what
remains of g is analytic at b. The solution therefore splits as

    u(b + xi) = phi(b) + P(xi) + xi^s * H_0(xi),

with P a closed-form polynomial and H_0 analytic on [0, inf). Each
derivative order n has the same structure with its own analytic factor
H_n, tabulated once as paneled Chebyshev series and evaluated there-
after at interpolation cost. Direct quadrature paths are kept for the
representation-formula contract shape and for cross-checks.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .piecewise import MAX_DEGREE
from .profiles import CausalProfile
from .singular_quadrature import gauss_ladder, poly_abel_integral, unit_rule
from .special_functions import FractionalOrder, beta, gamma

__all__ = [
    "ExtensionSolution",
    "solve_extension",
    "compute_g",
    "JunctionProximityError",
    "MAX_DERIVATIVE_ORDER",
]

MAX_DERIVATIVE_ORDER = 8
_JUNCTION_GUARD = 1e-3
# raw_value's first band [0, 2^-40] resolves g's junction branch w^(1-s)
_RAW_DEPTH = 40
# Chebyshev points per table panel. Every panel of _edge_ladder, and every
# panel _grow adds, lies at least 3 half-widths from the only
# singularity of H_n, the cut (-inf, -gap]: a panel [L, L + W] has
# L + gap >= W, and adding the next, twice as wide, keeps that. So H_n is
# analytic inside the Bernstein ellipse of parameter rho = 3 + 2 sqrt 2
# ~ 5.83 about every panel, and its coefficients decay at least like
# rho^-k (Trefethen, Approximation Theory and Approximation Practice,
# ch. 8): degree 23 leaves rho^-23 ~ 2.5e-18.
_CHEB_POINTS = 24


class JunctionProximityError(ValueError):
    """Raised when a derivative is requested too close to the junction b."""


def _falling(z: float, n: int) -> float:
    """z (z-1) ... (z-n+1); empty product for n <= 0."""
    out = 1.0
    for q in range(n):
        out *= z - q
    return out


def _ctilde(s: float, n: int, i: int) -> float:
    """Boundary-sum coefficients of the n-th interior derivative.

    (s-1)(s-2)...(s-n+i+1) for i < n-1, and 1 for i = n-1.
    """
    out = 1.0
    for q in range(1, n - i):
        out *= s - q
    return out


class _Forcing:
    """Closed-form power-law representation of g and all its derivatives."""

    def __init__(self, profile: CausalProfile, s: FractionalOrder):
        self.profile = profile
        self.s = s
        self._orders: dict[int, tuple[np.ndarray, ...]] = {}

    def _build(self, i: int) -> tuple[np.ndarray, ...]:
        s = self.s.s
        b = self.profile.b
        e = -s - i
        scalar = -_falling(-s, i)  # -(-s)(-s-1)...(-s-i+1); -1 for i = 0
        mixed: dict[tuple[int, float, float], float] = {}
        pure: dict[float, float] = {}

        def add_mixed(coef, jpow, dtau, pw):
            key = (jpow, dtau, pw)
            mixed[key] = mixed.get(key, 0.0) + coef

        def add_pure(coef, qpow):
            pure[qpow] = pure.get(qpow, 0.0) + coef

        for tau_lo, tau_hi, dcoeffs in self.profile.derivative_pieces():
            if not np.any(dcoeffs):
                continue
            # rebase the piece polynomial about b
            shift = b - tau_lo
            p_hat = np.zeros(MAX_DEGREE + 1)
            for kk in range(dcoeffs.size):
                if dcoeffs[kk] == 0.0:
                    continue
                for k in range(kk + 1):
                    p_hat[k] += dcoeffs[kk] * math.comb(kk, k) * shift ** (kk - k)
            for k in range(MAX_DEGREE + 1):
                if p_hat[k] == 0.0:
                    continue
                for r in range(k + 1):
                    pw = r + e + 1.0
                    cc = scalar * p_hat[k] * math.comb(k, r) * (-1.0) ** r / pw
                    add_mixed(cc, k - r, b - tau_lo, pw)
                    if tau_hi == b:
                        add_pure(-cc, k + e + 1.0)
                    else:
                        add_mixed(-cc, k - r, b - tau_hi, pw)

        m_items = sorted(mixed.items())
        p_items = sorted(pure.items())
        m_coef = np.array([c for _, c in m_items])
        m_jpow = np.array([key[0] for key, _ in m_items], dtype=float)
        m_dtau = np.array([key[1] for key, _ in m_items])
        m_pw = np.array([key[2] for key, _ in m_items])
        p_coef = np.array([c for _, c in p_items])
        p_pow = np.array([q for q, _ in p_items])
        return m_coef, m_jpow, m_dtau, m_pw, p_coef, p_pow

    def _terms(self, i: int):
        if i not in self._orders:
            self._orders[i] = self._build(i)
        return self._orders[i]

    def regular_part(self, i: int, xi):
        """G_reg^(i)(b + xi): the part of g^(i) analytic at the junction."""
        m_coef, m_jpow, m_dtau, m_pw, _, _ = self._terms(i)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for c, j, d, p in zip(m_coef, m_jpow, m_dtau, m_pw):
            out += c * xi**j * (xi + d) ** p
        return out

    def singular_part(self, i: int, xi):
        """The junction branch of g^(i): a sum of pure (x-b) powers."""
        _, _, _, _, p_coef, p_pow = self._terms(i)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for c, q in zip(p_coef, p_pow):
            out += c * xi**q
        return out

    def value(self, i: int, xi):
        """g^(i)(b + xi) for xi >= 0 (xi > 0 when i >= 1 and the branch is present)."""
        return self.regular_part(i, xi) + self.singular_part(i, xi)

    def regular_at_b(self, i: int) -> float:
        """G_reg^(i)(b)."""
        m_coef, m_jpow, m_dtau, m_pw, _, _ = self._terms(i)
        if m_coef.size == 0:
            return 0.0
        at0 = np.where(m_jpow == 0, m_coef * m_dtau**m_pw, 0.0)
        return float(np.sum(at0))

    def junction_alphas(self) -> dict[int, float]:
        """Coefficients alpha_k of the branch terms alpha_k (x-b)^(k+1-s) in g."""
        _, _, _, _, p_coef, p_pow = self._terms(0)
        s = self.s.s
        out: dict[int, float] = {}
        for c, q in zip(p_coef, p_pow):
            k = round(q - 1.0 + s)
            out[k] = out.get(k, 0.0) + float(c)
        return out


@functools.cache
def _cheb_fit() -> tuple[np.ndarray, np.ndarray]:
    """A panel's Chebyshev points on [-1, 1] and the interpolation matrix.

    Interpolation is linear in the values: row k of the matrix (chebfit
    of the identity) maps the node values to coefficient k. Built on
    first use, so that importing the package does not load
    numpy.polynomial; both arrays are read-only.
    """
    nodes = np.polynomial.chebyshev.chebpts2(_CHEB_POINTS)
    fit = np.polynomial.chebyshev.chebfit(nodes, np.eye(_CHEB_POINTS), _CHEB_POINTS - 1)
    for a in (nodes, fit):
        a.flags.writeable = False
    return nodes, fit


def _clenshaw(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] T_k(x) for an array x and len(c) >= 2.

    The recurrence of numpy.polynomial.chebyshev's evaluator, step for
    step and in the same order, kept in three buffers instead of new
    arrays per step, so the result equals numpy's bit for bit.
    """
    x2 = 2.0 * x
    c0 = np.full_like(x, c[-2])
    c1 = np.full_like(x, c[-1])
    tmp = np.empty_like(x)
    for i in range(3, len(c) + 1):
        # c0, c1 = c[-i] - c1, c0 + c1 x2
        np.multiply(c1, x2, out=tmp)
        np.add(c0, tmp, out=tmp)
        np.subtract(c[-i], c1, out=c0)
        c1, tmp = tmp, c1
    np.multiply(c1, x, out=tmp)
    return np.add(c0, tmp, out=tmp)


class ExtensionSolution:
    """A solved extension: data on (-inf, b], stationary solution on (b, inf).

    The Chebyshev tables for value and first derivative are built at
    construction, 24 points per panel and one ``_smooth_factor_quad``
    call per table over the nodes of every panel, and match the analytic
    factors to rounding for every s (checked against mpmath for s from
    0.02 to 0.98). A table is read by Clenshaw's recurrence in place. The
    object grows afterwards: a higher order's table on its first use, and
    every built table when a point lies beyond the covered range. The
    panel edges and the tables are one state, grown aside and swapped in
    one step under a lock, and every read works on one snapshot of it, so
    concurrent reads are safe, growth included; a panel's coefficients do
    not depend on when or with which other panels it was built. The
    tables and the Caputo residual are both ``gauss_ladder`` integrals,
    one ``unit_rule`` per s and depth class; ``raw_value`` takes one
    rule per s. The rules live in the pure, bounded, read-only caches of
    ``singular_quadrature`` and are shared by every solution. Evaluators
    accept scalars or arrays. ``raw_value`` applies one rule to all
    points of an array, ``caputo_value`` one rule per depth class, and
    ``derivative`` makes one fresh-quadrature call for all points.
    """

    def __init__(
        self,
        profile: CausalProfile,
        s: FractionalOrder | float,
        *,
        x_max: float | None = None,
    ):
        self.profile = profile
        self.s = FractionalOrder.of(s)
        self.a = profile.a
        self.b = profile.b
        self.value_at_b = profile.value_at_b
        self.forcing = _Forcing(profile, self.s)

        bp = profile.data.breakpoints
        self._branch_gap = float(self.b - bp[-2])
        sf = self.s.sin_factor
        s_ = self.s.s
        alphas = self.forcing.junction_alphas()
        poly = np.zeros(MAX_DEGREE + 2)
        for k, alpha in alphas.items():
            poly[k + 1] = sf * alpha * beta(k + 2.0 - s_, s_)
        self._poly = poly  # ascending coefficients in xi = x - b, no constant term

        if x_max is None:
            x_max = self.b + 10.0 * (self.b - self.a)
        edges = self._edge_ladder(max(float(x_max) - self.b, self._branch_gap))
        tables = {n: self._build_panels(n, edges[:-1], edges[1:]) for n in (0, 1)}
        # (panel edges, {order: coefficients}); replaced whole, never mutated
        self._state = (edges, tables)
        self._grow_lock = threading.Lock()

    # -- forcing ---------------------------------------------------------

    def g_value(self, x, order: int = 0):
        """g^(order)(x) for x >= b, in closed form."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa < self.b):
            raise ValueError("g is defined on [b, infinity)")
        out = self.forcing.value(order, xa - self.b)
        return out if isinstance(x, np.ndarray) else float(out)

    # -- table construction ------------------------------------------------

    def _edge_ladder(self, xi_max: float) -> np.ndarray:
        r0 = 0.5 * self._branch_gap
        edges = [0.0]
        w = min(r0, xi_max)
        while edges[-1] + w < xi_max:
            edges.append(edges[-1] + w)
            w *= 2.0
        edges.append(xi_max)
        return np.asarray(edges)

    def _smooth_factor_quad(self, n: int, xi: np.ndarray) -> np.ndarray:
        """H_n(xi) by direct quadrature for an array of xi >= 0.

        H_n is the analytic factor of the n-th derivative,
        u^(n)(b+xi) = P^(n)(xi) + xi^(s-n) H_n(xi), with

        H_n(xi) = (sin pi s/pi) [ xi^n int_0^1 G_reg^(n)(b + xi w)(1-w)^(s-1) dw
                                  + sum_{i<n} ctilde_{s,i} G_reg^(i)(b) xi^i ].

        One call serves every point, and a table build passes the nodes
        of all its panels at once. The integral is ``gauss_ladder`` with
        f = G_reg^(n)(b + .), whose cut (-inf, -gap] sets each point's
        depth, over ``unit_rule(1, s - 1, depth)``. Each point's sum is
        reduced on its own, so a point's value does not depend on the
        other points of the call.
        """
        xi = np.asarray(xi, dtype=float)
        s = self.s.s
        boundary = 0.0
        for i in range(n):
            boundary += _ctilde(s, n, i) * self.forcing.regular_at_b(i) * xi**i
        integral = gauss_ladder(
            lambda z: self.forcing.regular_part(n, z), xi, 1.0, s - 1.0, self._branch_gap
        )
        out = self.s.sin_factor * (xi**n * integral + boundary)
        if n == 0:
            out[xi == 0.0] = self.s.sin_factor * self.forcing.regular_at_b(0) / s
        return out

    def _build_panels(self, n: int, edges_lo: np.ndarray, edges_hi: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of H_n, one row per panel [edges_lo, edges_hi].

        One ``_smooth_factor_quad`` call takes the nodes of every panel;
        its rows are independent, so each node's value is what a call for
        that panel alone gives. The fit applies the fixed matrix of
        ``_cheb_fit`` with one reduction per panel and coefficient rather
        than a least-squares solve over the batch, whose columns' last
        bits depend on the other columns: so a panel's coefficients do not
        depend on the panels built with it.
        """
        ref, fit = _cheb_fit()
        mid = 0.5 * (edges_lo + edges_hi)[:, None]
        half = 0.5 * (edges_hi - edges_lo)[:, None]
        vals = self._smooth_factor_quad(n, (mid + half * ref).ravel())
        return np.sum(vals.reshape(-1, 1, _CHEB_POINTS) * fit, axis=2)

    def _grow(self, n: int, xi_max: float) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The state with order n tabulated and [0, xi_max] covered.

        The grown state is built aside and swapped in under the lock in
        one step; readers never lock and always see a whole state.
        """
        if n > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order {n} unsupported (cap {MAX_DERIVATIVE_ORDER})")
        with self._grow_lock:
            edges, tables = self._state
            if xi_max > edges[-1]:
                new_edges = [edges[-1]]
                w = edges[-1] - edges[-2]
                while new_edges[-1] < xi_max:
                    w *= 2.0
                    new_edges.append(new_edges[-1] + w)
                lo = np.asarray(new_edges[:-1])
                hi = np.asarray(new_edges[1:])
                tables = {m: np.vstack([c, self._build_panels(m, lo, hi)]) for m, c in tables.items()}
                edges = np.concatenate([edges, hi])
            if n not in tables:
                tables = {**tables, n: self._build_panels(n, edges[:-1], edges[1:])}
            self._state = (edges, tables)
        return edges, tables

    def _eval_table(self, n: int, xi: np.ndarray) -> np.ndarray:
        edges, tables = self._state
        xi_max = float(np.max(xi)) if xi.size else 0.0
        if n not in tables or xi_max > edges[-1]:
            edges, tables = self._grow(n, xi_max)
        coefs = tables[n]
        idx = np.clip(np.searchsorted(edges, xi, side="right") - 1, 0, coefs.shape[0] - 1)
        order = np.argsort(idx)
        panels, starts = np.unique(idx[order], return_index=True)
        stops = np.append(starts[1:], idx.size)
        out = np.empty_like(xi)
        for p, lo, hi in zip(panels, starts, stops):
            e0, e1 = edges[p], edges[p + 1]
            at = order[lo:hi]
            w = (2.0 * xi[at] - e0 - e1) / (e1 - e0)
            out[at] = _clenshaw(w, coefs[p])
        return out

    # -- evaluation ---------------------------------------------------------

    def smooth_factor(self, n: int, xi):
        """Tabulated H_n(xi) (see _smooth_factor_quad) for xi >= 0."""
        xa = np.atleast_1d(np.asarray(xi, dtype=float))
        return self._eval_table(n, xa)

    def value(self, x):
        """u(x) everywhere: prescribed data for x <= b, solved extension beyond."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xa)
        left = xa <= self.b
        if np.any(left):
            out[left] = self.profile.value(xa[left])
        if np.any(~left):
            xi = xa[~left] - self.b
            out[~left] = (
                self.value_at_b
                + np.polynomial.polynomial.polyval(xi, self._poly)
                + xi**self.s.s * self._eval_table(0, xi)
            )
        return out if isinstance(x, np.ndarray) else float(out[0])

    def derivative_fast(self, n: int, y):
        """u^(n)(y) for y > b from the cached tables (vectorized); like
        ``derivative`` it refuses n >= 1 within 1e-3 of the junction."""
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(ya <= self.b):
            raise ValueError("fast derivatives are defined on (b, infinity)")
        xi = ya - self.b
        if n >= 1 and np.min(xi) < _JUNCTION_GUARD:
            raise JunctionProximityError(
                f"derivative order {n} requested at y-b={np.min(xi):.2e} < {_JUNCTION_GUARD}"
            )
        dp = np.polynomial.polynomial.polyder(self._poly, n) if n > 0 else self._poly
        out = np.polynomial.polynomial.polyval(xi, dp)
        out = out + xi ** (self.s.s - n) * self._eval_table(n, xi)
        if n == 0:
            out = out + self.value_at_b
        return out if isinstance(y, np.ndarray) else float(out[0])

    def derivative(self, n: int, y):
        """u^(n)(y) by the interior-derivative formula with fresh quadrature.

        y may be a scalar (a float is returned) or an array; one
        ``_smooth_factor_quad`` call serves every point, and each point's
        value is what a call for that point alone gives. Order 0 is
        ``value``. Refuses y within 1e-3 of the junction for n >= 1: the
        boundary terms (y-b)^(s-n+i) are genuinely singular there.
        """
        if n < 0 or int(n) != n:
            raise ValueError("derivative order must be a nonnegative integer")
        if n > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order {n} unsupported (cap {MAX_DERIVATIVE_ORDER})")
        if n == 0:
            return self.value(y)
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all(ya > self.b):
            raise ValueError("derivatives are defined on (b, infinity)")
        xi = ya - self.b
        if np.min(xi) < _JUNCTION_GUARD:
            raise JunctionProximityError(
                f"derivative order {n} requested at y-b={np.min(xi):.2e} < {_JUNCTION_GUARD}"
            )
        dp = np.polynomial.polynomial.polyder(self._poly, n)
        out = (
            np.polynomial.polynomial.polyval(xi, dp)
            + xi ** (self.s.s - n) * self._smooth_factor_quad(n, xi)
        )
        return out if isinstance(y, np.ndarray) else float(out[0])

    def raw_value(self, x):
        """u(x) in the representation-formula shape: fresh quadrature of g.

        With w = (t - b)/(x - b), u(x) = phi(b) + (sin pi s/pi) (x-b)^s
        int_0^1 g(b + (x-b) w) (1-w)^(s-1) dw. The rule for the last
        integral, ``unit_rule(1, s - 1, 40)`` (508 nodes), is shared by
        every x: its first band [0, 2^-40] resolves the junction branch
        w^(1-s) of g, so the full g is integrated, independently of the
        tables' P + xi^s H_0 split. x may be a scalar (a float is
        returned) or an array; each point's sum is reduced on its own.
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xa)
        ext = xa > self.b
        if not np.all(ext):
            out[~ext] = self.value(xa[~ext])
        s = self.s.s
        xi = xa[ext] - self.b
        w, W = unit_rule(1.0, s - 1.0, _RAW_DEPTH)
        integral = np.sum(self.forcing.value(0, xi[:, None] * w) * W, axis=1)
        out[ext] = self.value_at_b + self.s.sin_factor * xi**s * integral
        return out if isinstance(x, np.ndarray) else float(out[0])

    # -- Caputo residual ------------------------------------------------------

    @property
    def junction_polynomial(self) -> np.ndarray:
        """Ascending coefficients in (x-b) of the closed-form junction polynomial."""
        return self._poly.copy()

    def caputo_value(self, x):
        """D_a^s u(x) of the delivered solution (0 for x <= a by causality).

        x may be a scalar (a float is returned) or an array. Beyond b the
        extension contributes the junction polynomial in closed form plus
        int_b^x (t-b)^(s-1) (x-t)^(-s) H_1(t-b) dt, which w = (t-b)/(x-b)
        turns into int_0^1 w^(s-1) (1-w)^(-s) H_1((x-b) w) dw. H_1((x-b) w)
        has its branch point at w = -gap/(x-b), so the integral is
        ``gauss_ladder`` over ``unit_rule(s, -s, depth)`` with each point's
        depth set by that distance: 40 nodes up to half a gap right of b,
        12 more per doubling of x - b beyond. A value does not depend on
        the other points of the array.
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        s = self.s.s
        out = np.zeros_like(xa)
        live = xa > self.a
        if np.any(live):
            out[live] = poly_abel_integral(self.profile.derivative_pieces(), xa[live], -s)
        ext = xa > self.b
        if np.any(ext):
            out[ext] += self._extension_caputo(xa[ext] - self.b)
        out /= gamma(1.0 - s)
        return out if isinstance(x, np.ndarray) else float(out[0])

    def _extension_caputo(self, xi: np.ndarray) -> np.ndarray:
        """int_b^x u'(t) (x-t)^(-s) dt of the extension part for x = b + xi > b."""
        s = self.s.s
        out = np.zeros_like(xi)
        dpoly = np.polynomial.polynomial.polyder(self._poly)
        for k in range(dpoly.size):
            if dpoly[k] != 0.0:
                out += dpoly[k] * xi ** (k + 1.0 - s) * beta(k + 1.0, 1.0 - s)
        return out + gauss_ladder(
            lambda z: self.smooth_factor(1, z), xi, s, -s, self._branch_gap
        )


def solve_extension(profile: CausalProfile, s: FractionalOrder | float, **kwargs) -> ExtensionSolution:
    """Solve the stationary extension problem for the given causal data."""
    return ExtensionSolution(profile, s, **kwargs)


def compute_g(profile: CausalProfile, s: FractionalOrder | float, x):
    """g(x) = -int_a^b phi'(t)(x-t)^(-s) dt for x >= b, evaluated exactly."""
    sol_free = _Forcing(profile, FractionalOrder.of(s))
    xa = np.asarray(x, dtype=float)
    if np.any(xa < profile.b):
        raise ValueError("g is defined on [b, infinity)")
    out = sol_free.value(0, xa - profile.b)
    return out if isinstance(x, np.ndarray) else float(out)
