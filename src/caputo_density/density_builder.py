"""Constructive density: stationary approximants of smooth targets on [0, 1].

Targets: every u(x) = c0 + sum_i A_i psi(x/L_i + 1 + c_i/L_i) with
c_i > 0 is stationary on [0, 1] from -(L_i + c_i): psi is stationary on
(1, inf) and constant left of 0. ``approximate_function`` fits such a
sum to f by one least-squares collocation of u^(l) = f^(l), l <= k,
over the smallest term pool of a fixed ladder that meets the tolerance.

Monomials, the paper's own construction: pick a point p and a pool of
blow-up members v_j, solve a regularized least-squares system for
coefficients c with

    v := sum_i c_i v_{j_i},   v^(l)(p) = 0 for l < m,  v^(m)(p) = 1,

then rescale u(x) = m! v(delta x + p) / delta^m so u tracks x^m on
[0, 1] with C^k error O(delta); stationarity survives by the exact
rescaling identity D_a^s u(x) = delta^(s-m) D_{-R}^s v(delta x + p),
a = (-p-R)/delta. The jet matrices are Vandermonde-like and genuinely
ill conditioned (rows of v_j^(l)(p) collapse onto the jet of kappa x^s
as j grows), so the solve uses column equilibration plus truncated SVD.
The jets read psi's tables, and every jet carries a finite-difference
certificate computed from plain values of v by fresh quadrature of the
representation formula, independent of those tables.

Every result is a ``Combination`` of affine rescalings of psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blowup import BlowupMember, Combination, Psi0Profile, build_psi
from .extension_solver import _check_order
from .piecewise import polyder, polyval
from .special_functions import fractional_order

__all__ = [
    "JetCombination",
    "CombinedApproximant",
    "ApproximationReport",
    "jet_matrix",
    "prescribe_jet",
    "approximate_monomial",
    "approximate_function",
    "monomial_ck_errors",
    "fd_derivative",
    "PolyTarget",
    "SinTarget",
    "ExpTarget",
    "SampledTarget",
    "as_target",
    "JetInfeasibleError",
    "DeltaUnderflowError",
    "residual_max",
    "DEFAULT_POOL_J",
    "DEFAULT_POOL_P",
    "JET_TOL",
]

DEFAULT_POOL_J = (2, 4, 8, 16, 32)
DEFAULT_POOL_P = (0.5, 1.0, 2.0)
MAX_JET_ORDER = 4
MAX_CK_ORDER = 4
GRID_POINTS = 1000
RESIDUAL_POINTS = 200
DELTA_FLOOR = 1e-8
# delta halving tries 1, 1/2, ..., 2^-26: every power of 1/2 down to DELTA_FLOOR
_DELTAS = tuple(0.5**h for h in range(27))
# a jet solve is feasible when its residual is at most this
JET_TOL = 1e-8
# relative singular-value cutoff of the equilibrated jet solve
_JET_RCOND = 1e-10
# delta halving screens each trial on every 9th point of the C^k grid;
# (GRID_POINTS - 1) is a multiple of it, so the screen keeps both ends
_SCREEN_STRIDE = 9
# the FD certificate's stencil has 2 * 6 + 1 nodes
_FD_HALF_WIDTH = 6
# the target fit's term pools, smallest first: psi(x/L + 1 + c/L) for each
# (L, c), branch points clustered toward x = 0; rung 0 is the constant
# alone. The least beta - 1, 0.05/16, clears psi's 1e-3 junction guard.
FIT_LADDER = (
    (),
    tuple((1.0, c) for c in (0.5, 1.0, 2.0, 4.0, 8.0)),
    tuple((L, c) for L in (1.0, 4.0) for c in (0.25, 1.0, 4.0, 16.0)),
    tuple((L, float(c)) for L in (1.0, 4.0, 16.0) for c in np.geomspace(0.05, 50.0, 8)),
)
# the fit collocates at this many first-kind Chebyshev points of [0, 1]
FIT_POINTS = 80
# relative singular-value cutoff of the column-normalized fit
_FIT_RCOND = 1e-14


class JetInfeasibleError(RuntimeError):
    """No pool combination met the jet tolerance."""


class DeltaUnderflowError(RuntimeError):
    """The rescaling parameter underflowed before reaching the error budget."""


# -- finite differences ----------------------------------------------------


def _fornberg_table(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights of the derivatives of order 0..m at z from nodes x (Fornberg
    recursion), one column per order.

    Column l does not depend on m: the recursion fills each column from
    the ones left of it. Raises ValueError unless 0 <= m < x.size and the
    nodes are finite and distinct.
    """
    n = x.size
    if not 0 <= m < n:
        raise ValueError(f"derivative order must lie in 0..{n - 1} for {n} nodes, got {m}")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(np.sort(x)) > 0.0)):
        raise ValueError("finite-difference nodes must be finite and distinct")
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            for k in range(mn, 0, -1):
                c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
            c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _fornberg_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights of the order-m derivative at z from nodes x."""
    return _fornberg_table(z, x, m)[:, m]


def _fd_nodes(p: float, h: float, half_width: int) -> np.ndarray:
    return p + h * np.arange(-half_width, half_width + 1, dtype=float)


def fd_derivative(fun, p: float, order: int, h: float, half_width: int = 4) -> float:
    """Central finite-difference derivative of order ``order`` at p, step h.

    Raises ValueError for an order outside 0..2 half_width or a step that
    gives no distinct finite nodes (h = 0, say).
    """
    nodes = _fd_nodes(p, h, half_width)
    w = _fornberg_weights(p, nodes, order)
    return float(sum(wi * fun(float(t)) for wi, t in zip(w, nodes)))


# -- jet prescription --------------------------------------------------------


def jet_matrix(members, points, m: int) -> np.ndarray:
    """Rows (member, point)-major of (v_j(x), v_j'(x), ..., v_j^(m)(x)).

    Entries come from the chain rule v_j^(l)(x) = j^(s-l) psi^(l)(x/j+1)
    with psi's ``derivative``, a read of its order-l table: one call per
    order over every (member, point) pair, so the members must share one
    psi.
    """
    members = list(members)
    points = [float(x) for x in points]
    if not members or not points:
        raise ValueError("need at least one member and one point")
    if any(x <= 0.0 for x in points):
        raise ValueError("jet points must be positive")
    psi, s = members[0].psi, members[0].s
    if any(member.psi is not psi for member in members):
        raise ValueError("jet members must share one psi")
    y = np.array([x / member.j + 1.0 for member in members for x in points])
    columns = []
    for l in range(m + 1):
        scale = np.repeat([member.j ** (s - l) for member in members], len(points))
        columns.append(scale * psi.derivative(l, y))
    return np.stack(columns, axis=1)


@dataclass(frozen=True, eq=False, kw_only=True)
class JetCombination(Combination):
    """v = sum_i c_i v_{j_i} with a prescribed jet at p.

    Caputo-stationary on (0, inf) with initial point -R, R = max j: each
    member is constant on (-inf, -j], so treating them all as causal from
    -R changes nothing. The combination vanishes on [-min j/4, 0] (the
    smallest member's vanishing interval); the single-function theorem's
    [-R/4, 0] becomes this under combination bookkeeping. Member j has
    alpha = 1/j.
    """

    p: float
    m: int
    jet_residual: float
    condition_number: float
    fd_jet_errors: tuple[float, ...]

    @property
    def R(self) -> float:
        return float(np.max(1.0 / self.alpha))

    @property
    def vanishing_radius(self) -> float:
        """v is identically zero on [-vanishing_radius, 0]."""
        return float(np.min(1.0 / self.alpha)) / 4.0


def _solve_single_point(matrix: np.ndarray, m: int):
    """Min-norm least squares for M^T c = e_{m+1} with column equilibration."""
    scale = np.max(np.abs(matrix), axis=0)
    scale[scale == 0.0] = 1.0
    scaled = matrix / scale
    target = np.zeros(m + 1)
    target[m] = 1.0
    coef, *_ = np.linalg.lstsq(scaled.T, target / scale, rcond=_JET_RCOND)
    residual = float(np.max(np.abs(matrix.T @ coef - target)))
    cond = float(np.linalg.cond(scaled))
    return coef, residual, cond


def prescribe_jet(s: float, profile: Psi0Profile, m: int) -> JetCombination:
    """Build a stationary combination with jet (0, ..., 0, 1) of order m at some p.

    Solves each candidate p of ``DEFAULT_POOL_P`` over the members j of
    ``DEFAULT_POOL_J``, all from one ``jet_matrix`` call, and keeps, among
    the solves whose residual meets ``JET_TOL``, the one of least
    coefficient mass (their residuals are rounding noise, 1e-15 to 1e-13,
    and would rank the candidates at random); when none meets it, the
    smallest residual, which is then reported as infeasible. The returned
    jet is certified by finite differences of plain v values, step
    0.06 min(p, 1): one ``value_raw`` call on a 13-node stencil that
    every order shares, and one Fornberg table whose column l gives the
    weights of order l, as ``fd_derivative`` would for that order alone.
    """
    s = fractional_order(s)
    _check_order(m, MAX_JET_ORDER, "jet order")
    psi = build_psi(s, profile)
    members = tuple(BlowupMember(j, psi) for j in DEFAULT_POOL_J)

    solves = []
    # rows are member-major, so candidate i is every len(DEFAULT_POOL_P)-th row
    matrix = jet_matrix(members, DEFAULT_POOL_P, m)
    for i, p in enumerate(DEFAULT_POOL_P):
        rows = np.ascontiguousarray(matrix[i :: len(DEFAULT_POOL_P)])
        coef, residual, cond = _solve_single_point(rows, m)
        solves.append((residual, float(np.sum(np.abs(coef))), float(p), coef, cond))
    # residuals below the tolerance are rounding noise, so they do not rank
    feasible = [solve for solve in solves if solve[0] <= JET_TOL]
    if feasible:
        residual, _, p, coef, cond = min(feasible, key=lambda solve: solve[1])
    else:
        residual, _, p, coef, cond = min(solves, key=lambda solve: solve[0])
    if not residual <= JET_TOL:
        raise JetInfeasibleError(
            f"jet order {m}: best residual {residual:.3e} above tolerance {JET_TOL:.1e} "
            f"(condition number {cond:.3e})"
        )

    terms = Combination.sum(zip(coef, members))
    # step balances stencil truncation against the nonsmooth part of the
    # quadrature noise, which the 1/h^l weights amplify
    nodes = _fd_nodes(p, 0.06 * min(p, 1.0), _FD_HALF_WIDTH)  # one stencil for every order
    weights = _fornberg_table(p, nodes, m)
    values = terms.value_raw(nodes)
    fd_errors = tuple(
        abs(float(sum(wi * vi for wi, vi in zip(weights[:, l], values)))
            - (1.0 if l == m else 0.0))
        for l in range(m + 1)
    )
    return JetCombination(
        psi, terms.A, terms.alpha, terms.beta, terms.c0,
        p=p, m=m, jet_residual=residual, condition_number=cond, fd_jet_errors=fd_errors,
    )


# -- rescaled monomials -------------------------------------------------------


def _check_request(k, eps) -> None:
    """The one check of a density run's k and eps, made before any psi solve."""
    _check_order(k, MAX_CK_ORDER, "derivative order k")
    # written so that a NaN fails it
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")


def _monomial(jet: JetCombination | None, m: int, delta: float | None) -> Combination:
    """u(x) = m! v(delta x + p)/delta^m, tracking x^m on [0, 1].

    Without a jet (m = 0) it is the exact constant 1: constants are
    stationary for any initial point.
    """
    if jet is None:
        return Combination(None, (), (), (), 1.0)
    return jet.rescaled(math.factorial(m) / delta**m, delta, jet.p)


def monomial_ck_errors(
    jet: JetCombination | None, m: int, k: int, delta: float | None
) -> np.ndarray:
    """sup |u^(l) - (x^m)^(l)| for l = 0..k at the given delta, over the
    1000-point grid of [0, 1]."""
    return _monomial_errors(jet, m, k, delta, np.linspace(0.0, 1.0, GRID_POINTS))


def _monomial_errors(jet, m: int, k: int, delta, xs: np.ndarray) -> np.ndarray:
    monomial = PolyTarget([0.0] * m + [1.0])
    return np.asarray(_ck_grid_error(monomial, _monomial(jet, m, delta), k, xs)[1])


def approximate_monomial(
    s: float,
    profile: Psi0Profile,
    m: int,
    k: int,
    eps: float,
) -> tuple[Combination, ApproximationReport]:
    """Stationary u with ||u - x^m||_{C^k([0,1])} < eps, by delta halving
    of the jet ``prescribe_jet`` gives for m.

    The trial deltas are 1, 1/2, ..., 2^-26. The jet residual is amplified
    by delta^(l-m) for l < m, so delta cannot shrink forever; when no
    trial meets eps, ``DeltaUnderflowError`` quotes the delta of the least
    screened error and its full-grid C^k error. The report's ``delta`` is
    the delta taken (None for m = 0, the exact constant 1).

    Each delta is first screened on every 9th point of the 1000-point
    grid, both ends included, and only a screen below eps is checked on
    the full grid. This cannot change the delta taken: a value does not
    depend on the other points of its batch, the table growth and the
    junction guard see the same extreme points, so each screened sup is
    at most the full one, and a float sum of smaller non-negative terms
    is no larger.
    """
    s = fractional_order(s)
    _check_order(m, MAX_JET_ORDER, "jet order")
    _check_request(k, eps)
    target = PolyTarget([0.0] * m + [1.0])
    if m == 0:
        u = _monomial(None, 0, None)
        return _certified(target, u, k, eps, monomial_ck_errors(None, 0, k, None))

    jet = prescribe_jet(s, profile, m)
    screen = np.linspace(0.0, 1.0, GRID_POINTS)[::_SCREEN_STRIDE]
    best_screened, best_delta = math.inf, 1.0
    for delta in _DELTAS:
        screened = float(np.sum(_monomial_errors(jet, m, k, delta, screen)))
        if screened < eps:
            sups = monomial_ck_errors(jet, m, k, delta)
            if float(np.sum(sups)) < eps:
                return _certified(target, _monomial(jet, m, delta), k, eps, sups, delta)
        if screened < best_screened:
            best_screened, best_delta = screened, delta
    # quote the full grid's error, which the screen may have skipped
    achieved = float(np.sum(monomial_ck_errors(jet, m, k, best_delta)))
    raise DeltaUnderflowError(
        f"monomial m={m}: delta underflowed below {DELTA_FLOOR:g}; the best "
        f"delta tried, {best_delta:g}, gives C^{k} error {achieved:.3e} (budget "
        f"{eps:.3e}); the jet residual {jet.jet_residual:.3e} is amplified by "
        f"delta^-{m}"
    )


# -- targets -------------------------------------------------------------------


class PolyTarget:
    """Polynomial target from ascending power-basis coefficients."""

    def __init__(self, coefficients):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("target coefficients must be finite")
        self.description = "poly[" + ",".join(f"{c:g}" for c in self.coefficients) + "]"

    def eval(self, x, order: int = 0):
        c = polyder(self.coefficients, order) if order else self.coefficients
        return polyval(np.asarray(x, dtype=float), np.atleast_1d(c))


class SinTarget:
    description = "sin"

    def eval(self, x, order: int = 0):
        x = np.asarray(x, dtype=float)
        return np.sin(x + order * np.pi / 2.0)


class ExpTarget:
    description = "exp"

    def eval(self, x, order: int = 0):
        return np.exp(np.asarray(x, dtype=float))


class SampledTarget:
    """Target from (x, y) samples on [0, 1]: a Chebyshev least-squares fit.

    Derivatives come from differentiating the fit; the degree is half the
    sample count, at least 3 and at most 30 and below the sample count.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size != ys.size or xs.size < 4:
            raise ValueError("need matching x/y samples, at least 4")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("target samples must be finite")
        outside = xs[(xs < 0.0) | (xs > 1.0)]
        if outside.size:
            raise ValueError(f"target samples must lie in 0 <= x <= 1, got x = {outside[0]:g}")
        degree = min(30, xs.size - 1, max(3, xs.size // 2))
        self._fit = np.polynomial.chebyshev.Chebyshev.fit(xs, ys, degree, domain=[0.0, 1.0])
        self.description = f"samples[n={xs.size},deg={degree}]"

    def eval(self, x, order: int = 0):
        f = self._fit.deriv(order) if order else self._fit
        return f(np.asarray(x, dtype=float))


def as_target(f):
    """Return f if it exposes eval(x, order); anything else, a plain callable
    included, raises TypeError."""
    if hasattr(f, "eval"):
        return f
    raise TypeError(
        "targets must expose eval(x, order); use PolyTarget, SinTarget, ExpTarget "
        "or SampledTarget"
    )


# -- full pipeline ---------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationReport:
    """Everything a density run certifies, for reporting and CI gating.

    Both routes fill it: ``approximate_function`` and
    ``approximate_monomial``. ``coefficient_mass`` is sum |A_i|, which
    rounding noise scales with; ``delta`` is the monomial's rescaling
    (None for the fit and for m = 0).
    """

    target: str
    k: int
    eps_requested: float
    epsilon_achieved: float
    errors_per_derivative: tuple[float, ...]
    residual_max: float
    initial_point: float
    terms: int
    coefficient_mass: float
    delta: float | None = None

    @property
    def ok(self) -> bool:
        return self.epsilon_achieved < self.eps_requested


# the density result: a fitted sum of psi rescalings, stationary by linearity
CombinedApproximant = Combination


def _ck_grid_error(target, approx, k: int, xs: np.ndarray) -> tuple[float, list[float]]:
    sups = []
    for l in range(k + 1):
        sups.append(float(np.max(np.abs(approx.derivative(l, xs) - target.eval(xs, l)))))
    return float(np.sum(sups)), sups


def residual_max(u: Combination) -> float:
    """max |D^s u| over 200 uniform points of [0, 1]."""
    return float(np.max(np.abs(u.caputo_value(np.linspace(0.0, 1.0, RESIDUAL_POINTS)))))


def _certified(
    target, u: Combination, k: int, eps: float, sups, delta: float | None = None
) -> tuple[Combination, ApproximationReport]:
    """u with its report, from the C^k sups of the 1000-point grid that the
    route's search measured; the residual is computed here, once."""
    return u, ApproximationReport(
        target=getattr(target, "description", type(target).__name__),
        k=k,
        eps_requested=eps,
        epsilon_achieved=float(np.sum(sups)),
        errors_per_derivative=tuple(float(e) for e in sups),
        residual_max=residual_max(u),
        initial_point=u.initial_point,
        terms=int(u.A.size),
        coefficient_mass=float(np.sum(np.abs(u.A))),
        delta=delta,
    )


def _fit(target, k: int, psi, pool) -> CombinedApproximant:
    """c0 + sum_i A_i psi(x/L_i + 1 + c_i/L_i) over the pool, by least squares
    on u^(l) = f^(l) for l = 0..k at the Chebyshev points, columns scaled
    to unit norm; one psi call per order."""
    x = 0.5 + 0.5 * np.cos((2 * np.arange(FIT_POINTS) + 1) * np.pi / (2 * FIT_POINTS))
    alpha = np.array([1.0 / L for L, _ in pool])
    beta = np.array([1.0 + c / L for L, c in pool])
    y = (alpha[:, None] * x + beta[:, None]).ravel()  # term-major
    blocks = []
    for l in range(k + 1):
        columns = np.reshape(psi.derivative(l, y), (alpha.size, x.size)).T * alpha**l
        blocks.append(np.column_stack([np.full(x.size, float(l == 0)), columns]))
    matrix = np.concatenate(blocks)
    norms = np.linalg.norm(matrix, axis=0)
    rhs = np.concatenate([target.eval(x, l) for l in range(k + 1)])
    coef = np.linalg.lstsq(matrix / norms, rhs, rcond=_FIT_RCOND)[0] / norms
    return CombinedApproximant(psi, coef[1:], alpha, beta, float(coef[0]))


def approximate_function(
    f,
    k: int,
    eps: float,
    s: float,
    profile: Psi0Profile,
) -> tuple[CombinedApproximant, ApproximationReport]:
    """Stationary u with ||u - f||_{C^k([0,1])} < eps, fitted in one step.

    u = c0 + sum_i A_i psi(x/L_i + 1 + c_i/L_i) over the first pool of
    ``FIT_LADDER`` whose fit meets eps; when none does, the last pool's
    fit, whose report then misses eps (``ok`` is False). Norms are grid
    norms on 1000 uniform points of [0, 1] (documented surrogate for the
    sup), and ``residual_max`` is the largest |D^s u| on 200.
    """
    s = fractional_order(s)
    target = as_target(f)
    _check_request(k, eps)

    psi = build_psi(s, profile)
    for pool in FIT_LADDER:
        approx = _fit(target, k, psi, pool)
        achieved, sups = _ck_grid_error(target, approx, k, np.linspace(0.0, 1.0, GRID_POINTS))
        if achieved < eps:
            break
    return _certified(target, approx, k, eps, sups)
