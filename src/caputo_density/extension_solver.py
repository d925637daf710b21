"""Solve D_a^s u = 0 on (b, inf) with prescribed causal data on (-inf, b].

The problem is equivalent to the integro-differential equation

    int_b^x u'(t) (x-t)^(-s) dt = g(x) := -int_a^b phi'(t) (x-t)^(-s) dt,

whose unique solution with u(b) = phi(b) is

    u(x) = phi(b) + (sin(pi s)/pi) int_b^x g(t) (x-t)^(s-1) dt.

For piecewise-polynomial data g^(i)(x) = -(-s)_i int_a^b phi'(t)
(x-t)^(-s-i) dt is the data's Abel integral, taken exactly piece by
piece by ``poly_abel_integral``. The last piece's end at b carries the
junction branch, (x-b)^(1-s-i) times a polynomial in x - b; continuing
that piece to x and dropping its end there leaves G_reg^(i), the part of
g^(i) analytic at b. The branch's part of u is that piece continued past
b, since (sin pi s/pi) B(1-s, k+1) B(k+2-s, s) = 1/(k+1). The solution
therefore splits as

    u(b + xi) = phi(b) + P(xi) + xi^s * H_0(xi),

with P(xi) = phi_last(b + xi) - phi(b), the last piece continued, and
H_0 analytic on [0, inf). Each derivative order n has the same structure
with its own analytic factor H_n, tabulated as paneled Chebyshev series
on its first read and evaluated thereafter at interpolation cost; so is
the analytic part R of the Caputo residual, an Abel integral of H_1.
The panels are one fixed ladder, edges (2^k - 1) gap/2 with gap = b -
(last data breakpoint left of b), built only as far as the largest
point read. ``raw_value`` alone integrates the representation formula
afresh, independent of the tables, for certificates and cross-checks.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .piecewise import PiecewisePoly, polyder, polyval, taylor_shift
from .singular_quadrature import (
    _MAX_DEPTH,
    _read_only,
    abel_ladder,
    apply_rule,
    gauss_ladder,
    ladder_edges,
    poly_abel_integral,
    residual_ladder,
    unit_rule,
)
from .special_functions import fractional_order, gamma, sin_pi

__all__ = [
    "ExtensionSolution",
    "solve_extension",
    "JunctionProximityError",
    "MAX_DERIVATIVE_ORDER",
]

MAX_DERIVATIVE_ORDER = 8
_JUNCTION_GUARD = 1e-3
# raw_value's first band [0, 2^-40] resolves g's junction branch w^(1-s),
# where the data have one
_RAW_DEPTH = 40
# Chebyshev points per table panel. Every panel of the ladder, edges
# (2^k - 1) gap/2, lies at least 3 half-widths from the only
# singularity of H_n, the cut (-inf, -gap]: panel k is [L, L + W] with
# W = 2^k gap/2 and L + gap = W + gap/2 >= W. So H_n is
# analytic inside the Bernstein ellipse of parameter rho = 3 + 2 sqrt 2
# ~ 5.83 about every panel, and its coefficients decay at least like
# rho^-k (Trefethen, Approximation Theory and Approximation Practice,
# ch. 8): degree 23 leaves rho^-23 ~ 2.5e-18. The Caputo residual's
# table R (see caputo_value) has H_1's cut and no other, so the same
# panels and points serve it.
_CHEB_POINTS = 24
# key of R's table in a solution's state, next to the orders n of H_n
_CAPUTO = "caputo"


class JunctionProximityError(ValueError):
    """Raised when a derivative is requested too close to the junction b."""


def _check_order(n, cap: int = MAX_DERIVATIVE_ORDER, name: str = "derivative order") -> None:
    """The one check of every order (derivative, C^k, jet): an integer in 0..cap."""
    # written so that a NaN fails it
    if not (0 <= n <= cap and int(n) == n):
        raise ValueError(f"{name} must be an integer in 0..{cap}, got {n!r}")


def _reach(x: np.ndarray, limit: float = math.inf) -> float:
    """The largest point of a read but NaN (0 for none, NaN for only NaN);
    refuses a point at +inf, toward which no table can grow, and one beyond
    ``limit``, which a solution sets to the reach of its deepest rule."""
    top = float(np.fmax.reduce(x, axis=None)) if x.size else 0.0
    if top == math.inf:
        raise ValueError("cannot read at +inf: the tables cover finite points only")
    if top > limit:
        raise ValueError(
            f"cannot read at x - b = {top:.6g}: the quadrature "
            f"reaches 2^{_MAX_DEPTH - 1} gaps = {limit:.6g} right of b"
        )
    return top


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


@functools.cache
def _cheb_fit() -> tuple[np.ndarray, np.ndarray]:
    """A panel's Chebyshev points on [-1, 1] and the interpolation matrix.

    Interpolation is linear in the values: row k of the matrix maps the
    node values to coefficient k. The points are the 24 Chebyshev points
    of the second kind, x_j = cos(pi (23 - j)/23) from -1 to 1, equal to
    numpy's ``chebpts2(24)`` bit for bit. At these points interpolation
    is a discrete cosine transform (Trefethen, Approximation Theory and
    Approximation Practice, ch. 3): fit[k, j] = (2/23) T_k(x_j), halved
    in columns j = 0, 23 and in rows k = 0, 23, so no linear solve is
    needed. T_k(x_j) = cos(pi m/23) with m = k (23 - j) mod 46 is
    x_(|23 - m|), one of the rounded points, the index folded by exact
    integer arithmetic; cos of the rounded angle pi k (23 - j)/23 would
    add its rounding. Each entry is within 1.3e-17 of the exact matrix
    (40-digit mpmath), where numpy's least-squares ``chebfit`` errs by
    up to 3.9e-16, so the two differ in the last bits. Built on first
    use; both arrays are read-only.
    """
    nodes = np.cos(np.linspace(-np.pi, 0, _CHEB_POINTS))
    n = _CHEB_POINTS - 1
    k, j = np.ogrid[: n + 1, : n + 1]
    fit = nodes[np.abs(n - k * (n - j) % (2 * n))] * 2.0 / n
    fit[:, [0, n]] *= 0.5
    fit[[0, n]] *= 0.5
    return _read_only(nodes, fit)


def _clenshaw(x: np.ndarray, c: np.ndarray, panel: np.ndarray | None = None) -> np.ndarray:
    """sum_k c[k] T_k(x) for an array x and len(c) >= 2, or with ``panel``
    sum_k c[panel[i], k] T_k(x[i]) for a table c of one row per panel.

    The recurrence of numpy.polynomial.chebyshev's evaluator, step for
    step and in the same order, over all points at once and kept in a few
    buffers instead of new arrays per step. Each step gathers the one
    coefficient it needs per point, so every value equals numpy's on its
    own row bit for bit.
    """
    columns = np.ascontiguousarray(np.atleast_2d(c).T)  # one row per coefficient
    if panel is None:
        panel = np.zeros(x.shape, dtype=np.intp)
    c0 = columns[-2].take(panel)
    c1 = columns[-1].take(panel)
    x2 = 2.0 * x
    tmp = np.empty_like(x)
    gathered = np.empty_like(x)
    for row in columns[-3::-1]:
        # c0, c1 = c[k] - c1, c0 + c1 x2
        np.multiply(c1, x2, out=tmp)
        np.add(c0, tmp, out=tmp)
        np.subtract(row.take(panel, out=gathered, mode="clip"), c1, out=c0)
        c1, tmp = tmp, c1
    np.multiply(c1, x, out=tmp)
    return np.add(c0, tmp, out=tmp)


def _read_table(edges: np.ndarray, coefs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """A table of one row per panel of ``edges`` at every xi of a 1-d
    array within them.

    ``searchsorted`` finds each point's panel, and one ``_clenshaw``
    sweep over all points gathers each point's coefficients from its
    panel's row. So a value equals ``chebval`` on its own panel bit for
    bit and does not depend on the other points of the call, nor on
    panels right of the point's own.
    """
    panel = edges[1:-1].searchsorted(xi, side="right")
    e0, e1 = edges[panel], edges[panel + 1]
    return _clenshaw((2.0 * xi - e0 - e1) / (e1 - e0), coefs, panel)


class ExtensionSolution:
    """A solved extension: data on (-inf, b], stationary solution on (b, inf).

    Construction builds no table. Each order's Chebyshev table of H_n is
    built on its first read, 24 points per panel and one
    ``_smooth_factor_quad`` call over the nodes of every panel. Orders 0
    and 1 are checked against mpmath for s from 0.002 to 0.998 out to
    10 (b - a), and for the bump out to 256 gaps within 5e-14 |H_n|.
    Orders 2 to 4 are checked for the bump at s = 0.1, 0.5 and 0.98 out
    to xi = 51 (204 gaps) within 1e-14 of the size of their sum, and
    within 1.3e-13 |H_n| out to xi = 1, the jets' farthest point. Farther
    out they lose digits relative to H_n, where their boundary sum
    cancels against the integral: H_4 errs by up to 9e-9 |H_4| at xi = 51.
    Orders 5 and up are not checked. P is the last data piece continued
    past b, less phi(b).
    The Caputo residual has one more table on the same panels, of R (see
    ``caputo_value``), built on the first ``caputo_value`` read right of b
    from the order-1 table. The panels are one fixed ladder from b,
    widths gap/2, gap, 2 gap, ..., and every built table grows along it
    when a point lies beyond the covered range, only as far as it. Every read
    refuses, before any growth, a point at +inf or more than 2^59 gaps
    right of b, beyond the deepest ``gauss_ladder`` rule of ``raw_value``:
    the tables' own rules have no such limit, but the refusal keeps every
    table point within reach of that independent check. A table is read in one
    Clenshaw sweep over all points of a call, each gathering its own
    panel's coefficients. The panel edges and the tables are one state,
    grown aside and swapped in one step under a lock, and every read
    works on one snapshot of it, so concurrent reads are safe, growth
    included; a panel's coefficients, and so every table value, do not
    depend on when, how far or with which other panels it was built.
    The node values of the H_n tables are ``abel_ladder`` integrals,
    product integration on the tables' own ladder: a build evaluates the
    forcing once per shared ladder node and at 18 remainder nodes per
    table node. Those of R are ``residual_ladder`` integrals on the same
    ladder: a build reads the order-1 table once per shared ladder node
    and at 24 remainder nodes per table node (16 below 3 gap/2), O(K)
    reads for K panels. ``raw_value`` is a ``gauss_ladder`` integral,
    one ``unit_rule`` per s and depth class, for branch-free data, so
    the FD certificate and the kappa fit check the H_n tables with an
    independent rule; data with a junction branch take one rule per s
    there. The rules live in the pure, bounded, read-only caches of
    ``singular_quadrature`` and are shared by every solution.
    The forcing at b, g(b) = G_reg(b), is taken once per solution
    (``_g_at_b``) for the order-0 node at xi = 0, the order-1 boundary
    sum and the kappa fit. A table's coefficients are its node values
    times the closed-form matrix of ``_cheb_fit``; no least-squares
    solve runs.
    Evaluators accept scalars or arrays, and a NaN point reads NaN
    without keeping the tables from growing to the other points.
    ``value``, ``derivative`` and ``caputo_value`` read a table once per
    point; ``raw_value``, the one evaluator that reads no table, applies
    its rules in blocks.
    """

    def __init__(self, profile: PiecewisePoly, s: float):
        self.profile = profile
        self.s = s = fractional_order(s)
        self.a = profile.lo
        self.b = profile.hi
        self.value_at_b = profile.value(profile.hi)
        self._branch_gap = float(self.b - profile.breakpoints[-2])
        # the data's derivative pieces in xi = x - b: g's, and G_reg's with the
        # last one continued to every point (see _forcing)
        self._g_pieces = tuple((t0 - self.b, t1 - self.b, c)
                               for t0, t1, c in profile.derivative_pieces())
        tau, _, last = self._g_pieces[-1]
        self._reg_pieces = (*self._g_pieces[:-1], (tau, math.inf, last))
        # the reach of raw_value's deepest gauss_ladder rule; every read refuses
        # points beyond, so that raw_value can check any table point
        self._max_xi = 2.0 ** (_MAX_DEPTH - 1) * self._branch_gap
        # sin(pi s)/pi, the normalization of the representation formula
        self._sin_factor = sin_pi(s) / math.pi
        # P: the last piece about b, ascending in xi = x - b, without its constant
        poly = taylor_shift(profile.coeffs[-1], self._branch_gap)
        poly[0] = 0.0
        self._poly = poly
        # g carries a junction branch exactly when P does; raw_value sizes its rule by it
        self._branched = bool(poly.any())

        # (panel edges, {order n or _CAPUTO: coefficients}); replaced whole, never mutated
        self._state = (ladder_edges(self._branch_gap, 0.0), {})
        self._grow_lock = threading.Lock()

    # -- forcing ---------------------------------------------------------

    def g_value(self, x):
        """g(x) = -int_a^b phi'(t)(x-t)^(-s) dt for x >= b, in closed form."""
        xa = np.asarray(x, dtype=float)
        _reach(xa - self.b, self._max_xi)  # refused before any piece is summed
        if (xa < self.b).any():
            raise ValueError("g is defined on [b, infinity)")
        out = self._forcing(0, xa - self.b, branch=True)
        return out if isinstance(x, np.ndarray) else float(out)

    @functools.cached_property
    def _g_at_b(self) -> float:
        """g(b), taken once per solution. It equals G_reg(b) bit for bit: the
        junction branch of order 0, (x - b)^(1-s) times a polynomial, drops
        at b, and both sums take the last piece by the same power rule. The
        order-0 table node at xi = 0, the order-1 boundary sum and the kappa
        fit's candidates read it."""
        return self._forcing(0, 0.0)

    def _forcing(self, i: int, xi, branch: bool = False):
        """G_reg^(i)(b + xi), or g^(i)(b + xi) if ``branch``: -(-s)_i
        int phi'(t) (b + xi - t)^(-s-i) dt, one ``poly_abel_integral`` over
        the data's derivative pieces, in xi so that b + xi is not rounded.
        For G_reg the last piece runs on to b + xi and its end there, which
        carries the junction branch, contributes nothing (G_reg = g where
        that piece is constant). An order whose -s - i rounds to -r - 1,
        r at most the degree of phi', is refused: r + 1 - s - i vanishes.
        """
        s = self.s
        e = -s - i
        if e == round(e) and any(c[round(-e) - 1:].any() for *_, c in self._g_pieces):
            # -s - i rounds to -i (r = i - 1) or to -(i + 1) (r = i)
            end, rounded = (0, i) if e == -i else (1, i + 1)
            raise ValueError(
                f"fractional order {s!r} is too close to {end} for derivative "
                f"order {i}: -s - {i} rounds to -{rounded}"
            )
        pieces = self._g_pieces if branch else self._reg_pieces
        return -_falling(-s, i) * poly_abel_integral(pieces, xi, e)

    # -- table construction ------------------------------------------------

    def _smooth_factor_quad(self, n: int, xi: np.ndarray) -> np.ndarray:
        """H_n(xi) by direct quadrature for an array of xi >= 0.

        H_n is the analytic factor of the n-th derivative,
        u^(n)(b+xi) = P^(n)(xi) + xi^(s-n) H_n(xi), with

        H_n(xi) = (sin pi s/pi) [ xi^n int_0^1 G_reg^(n)(b + xi w)(1-w)^(s-1) dw
                                  + sum_{i<n} ctilde_{s,i} G_reg^(i)(b) xi^i ].

        One call serves every point, and a table build passes the nodes
        of all its panels at once. The integral is ``abel_ladder`` with
        f = G_reg^(n)(b + .), cut at (-inf, -gap]: for xi in ladder panel
        k, e = e_(max(k-1, 0)) and l = xi - e, it is

            xi^-s sum_(j<=k-2) sum_m W_jm (xi - t_jm)^(s-1) G_reg^(n)(b + t_jm)
              + (l/xi)^s sum_i g_i G_reg^(n)(b + xi - l u_i),

        12 Gauss-Legendre nodes t_jm on each ladder panel j, shared by
        every point, and an 18-node Gauss-Jacobi remainder for u^(s-1).
        The cut lies at least W_j left of a shared panel and the kernel's
        branch point xi at least 2 W_j right of it, so 12 nodes leave
        ~5e-19; the remainder is at most 3 W_(k-1) long with the cut
        W_(k-1) + gap/2 left of it, so 18 nodes leave ~7e-18 (see
        ``singular_quadrature._REMAINDER_NODES``). So a build of K panels
        takes G_reg^(n) at 432 K remainder nodes and 12 (K - 1) shared
        ones, its last edge lying in panel K. Each point's sums
        run over its own panel's nodes, so a point's value does not
        depend on the other points of the call. At xi = 0 the integral
        is G_reg^(n)(b)/s.
        """
        xi = np.asarray(xi, dtype=float)
        s = self.s
        boundary = 0.0
        for i in range(n):
            at_b = self._forcing(i, 0.0) if i else self._g_at_b
            boundary += _ctilde(s, n, i) * at_b * xi**i
        integral = abel_ladder(lambda z: self._forcing(n, z), xi, s, self._branch_gap)
        out = self._sin_factor * (xi**n * integral + boundary)
        if n == 0:
            out[xi == 0.0] = self._sin_factor * self._g_at_b / s
        return out

    def _build_panels(
        self, key: int | str, lo: np.ndarray, hi: np.ndarray, edges, tables
    ) -> np.ndarray:
        """Chebyshev coefficients of table ``key``, one row per panel [lo, hi].

        One call takes the nodes of every panel: ``_smooth_factor_quad``
        for H_n, or for R ``residual_ladder`` over the order-1 table in
        ``tables``, the state being built, whose ``edges`` cover every
        panel and which it reads once, at every node of the call. Reading that table directly, not
        through ``smooth_factor``, keeps ``_grow`` from re-entering its
        lock. Their rows are independent, so each node's value is what a
        call for that panel alone gives. The fit applies the fixed matrix
        of ``_cheb_fit`` with one reduction per panel and coefficient
        rather than a least-squares solve over the batch, whose columns'
        last bits depend on the other columns: so a panel's coefficients
        do not depend on the panels built with it.
        """
        ref, fit = _cheb_fit()
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        nodes = (mid + half * ref).ravel()
        if key == _CAPUTO:
            h1 = lambda z: _read_table(edges, tables[1], z)
            vals = residual_ladder(h1, nodes, self.s, self._branch_gap)
        else:
            vals = self._smooth_factor_quad(key, nodes)
        return (vals.reshape(-1, 1, _CHEB_POINTS) * fit).sum(axis=2)

    def _grow(self, key: int | str, xi_max: float) -> tuple[np.ndarray, dict]:
        """The state with table ``key`` built and [0, xi_max] covered.

        New panels continue the ladder (``ladder_edges``, which
        ``abel_ladder`` and ``residual_ladder`` read too), panel k being
        2^k gap/2 wide, up to the first edge at or beyond xi_max, and
        every built table gets them; then table ``key`` is built over all
        panels if it is new, after order 1 if it is R. Order 1 is always
        built, and so grown, before R, which reads it. The grown state is
        built aside and swapped in under the lock in one step; readers
        never lock and always see a whole state.
        """
        with self._grow_lock:
            edges, tables = self._state
            if xi_max > edges[-1]:
                old, edges = edges.size, ladder_edges(self._branch_gap, xi_max)
                lo, hi = edges[old - 1 : -1], edges[old:]
                grown: dict = {}
                for m, c in tables.items():  # in build order: order 1 before R
                    grown[m] = np.vstack([c, self._build_panels(m, lo, hi, edges, grown)])
                tables = grown
            for m in (1, key) if key == _CAPUTO else (key,):
                if m not in tables:
                    built = self._build_panels(m, edges[:-1], edges[1:], edges, tables)
                    tables = {**tables, m: built}
            self._state = (edges, tables)
        return edges, tables

    def _eval_table(self, key: int | str, xi: np.ndarray) -> np.ndarray:
        """Table ``key`` (an order n, or R) at every xi of a 1-d array by
        ``_read_table``, built or grown first if needed; an empty read
        builds nothing."""
        if not xi.size:
            return np.empty(0)
        edges, tables = self._state
        xi_max = _reach(xi, self._max_xi)
        if key not in tables or xi_max > edges[-1]:
            edges, tables = self._grow(key, xi_max)
        return _read_table(edges, tables[key], xi)

    # -- evaluation ---------------------------------------------------------

    def smooth_factor(self, n: int, xi):
        """Tabulated H_n(xi) (see _smooth_factor_quad) for xi >= 0; refuses
        xi < 0, where a table would extrapolate, before any table grows."""
        _check_order(n)
        xa = np.atleast_1d(np.asarray(xi, dtype=float))
        if (xa < 0.0).any():
            raise ValueError("smooth factors are defined for xi >= 0")
        return self._eval_table(n, xa)

    def value(self, x):
        """u(x) everywhere: prescribed data for x <= b, solved extension beyond."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xa)
        left = xa <= self.b
        if left.any():
            out[left] = self.profile.value(xa[left])
        if not left.all():
            xi = xa[~left] - self.b
            h0 = self._eval_table(0, xi)  # read first: it refuses +inf
            out[~left] = self.value_at_b + polyval(xi, self._poly) + xi**self.s * h0
        return out if isinstance(x, np.ndarray) else float(out[0])

    def derivative(self, n: int, y):
        """u^(n)(y): ``value`` for n = 0, else P^(n)(xi) + xi^(s-n) H_n(xi)
        with xi = y - b > 0, one read of the order-n table per point.

        y may be a scalar (a float is returned) or an array. For n >= 1 it
        refuses y <= b, and y within 1e-3 of the junction, where the factor
        xi^(s-n) is genuinely singular; a NaN point reads NaN.
        """
        _check_order(n)
        if n == 0:
            return self.value(y)
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        if (ya <= self.b).any():
            raise ValueError("derivatives are defined on (b, infinity)")
        xi = ya - self.b
        if (xi < _JUNCTION_GUARD).any():
            raise JunctionProximityError(
                f"derivative order {n} requested at y-b={np.nanmin(xi):.2e} < {_JUNCTION_GUARD}"
            )
        hn = self._eval_table(n, xi)  # read first: it refuses +inf
        out = polyval(xi, polyder(self._poly, n)) + xi ** (self.s - n) * hn
        return out if isinstance(y, np.ndarray) else float(out[0])

    # a second name for the same method, only because benchmark/sample.py traces it
    derivative_fast = derivative

    def raw_value(self, x):
        """u(x) in the representation-formula shape: fresh quadrature of g.

        With w = (t - b)/(x - b), u(x) = phi(b) + (sin pi s/pi) (x-b)^s
        int_0^1 g(b + (x-b) w) (1-w)^(s-1) dw, with the full g, junction
        branch included, at the point itself, independently of the tables'
        P + xi^s H_0 split. The rule is sized to g:

        - data with a junction branch (a last piece of nonzero slope, e.g.
          the ramp) take ``unit_rule(1, s - 1, 40)`` (490 nodes) at every
          x: its first band [0, 2^-40] resolves the branch w^(1-s) of g.
          It is applied by ``apply_rule``, one call of g per block of
          at most 8192 values;
        - branch-free data (psi_0, the bump) make one ``gauss_ladder``
          call, a depth rule per point: g(b + xi w) is then
          analytic at w = 0 and cut only at w = -gap/xi, so a point takes
          22 nodes up to xi = gap/2 and 12 more per doubling beyond.

        x may be a scalar (a float is returned) or an array. Each point's
        sum is reduced on its own.
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        _reach(xa - self.b, self._max_xi)  # refused before any quadrature
        out = np.empty_like(xa)
        ext = xa > self.b
        if not ext.all():
            out[~ext] = self.value(xa[~ext])
        s = self.s
        xi = xa[ext] - self.b
        g = lambda z: self._forcing(0, z, branch=True)
        if self._branched:
            integral = apply_rule(g, xi, *unit_rule(1.0, s - 1.0, _RAW_DEPTH))
        else:
            integral = gauss_ladder(g, xi, 1.0, s - 1.0, self._branch_gap)
        out[ext] = self.value_at_b + self._sin_factor * xi**s * integral
        return out if isinstance(x, np.ndarray) else float(out[0])

    # -- Caputo residual ------------------------------------------------------

    @property
    def junction_polynomial(self) -> np.ndarray:
        """Ascending coefficients in (x-b) of the junction polynomial P: the
        last data piece continued past b, less phi(b)."""
        return self._poly.copy()

    def caputo_value(self, x):
        """D_a^s u(x) of the delivered solution (0 for x <= a by causality,
        NaN at a NaN point).

        x may be a scalar (a float is returned) or an array. Beyond b,
        u' = P' + (t-b)^(s-1) H_1(t-b), and P' is the last data piece's
        derivative continued. So the polynomial part is the Abel integral
        of the data's derivative pieces with the last one continued to x:
        taken in x up to b, and beyond b as -G_reg(x) (see ``_forcing``),
        in x - b. w = (t-b)/(x-b) turns the rest into
        R(x-b) = int_0^1 w^(s-1) (1-w)^(-s) H_1((x-b) w) dw, one read of
        its table per point, built or grown as the H_n tables are. R is
        analytic on [0, inf) with H_1's cut (-inf, -gap] and no other, so
        its panels keep the margin of the H_n tables; its node values are
        ``residual_ladder`` sums over the order-1 table, product
        integration on the same ladder with panel 0's w^(s-1) mass in
        closed form, so a build of K panels reads H_1 O(K) times. A value
        does not depend on the other points of the array nor on earlier
        reads.
        """
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        xi = xa - self.b
        _reach(xi, self._max_xi)  # refused before any table grows
        out = np.empty_like(xa)
        ext = xa > self.b
        if not ext.all():  # in x, where x - a is exact near a = 0
            *pieces, (tau_lo, _, last) = self.profile.derivative_pieces()
            out[~ext] = poly_abel_integral((*pieces, (tau_lo, math.inf, last)), xa[~ext], -self.s)
        if ext.any():
            out[ext] = self._eval_table(_CAPUTO, xi[ext]) - self._forcing(0, xi[ext])
        out /= gamma(1.0 - self.s)
        return out if isinstance(x, np.ndarray) else float(out[0])


def solve_extension(profile: PiecewisePoly, s: float) -> ExtensionSolution:
    """Solve the stationary extension problem for the given causal data."""
    return ExtensionSolution(profile, s)
