"""Constructive density: jets, rescaled monomials, polynomial targets.

Pipeline: pick a point p and a pool of blow-up members v_j, solve a
regularized least-squares system for coefficients c with

    v := sum_i c_i v_{j_i},   v^(l)(p) = 0 for l < m,  v^(m)(p) = 1,

then rescale u(x) = m! v(delta x + p) / delta^m so u tracks x^m on [0, 1]
with C^k error O(delta), and finally assemble any smooth target from a
Chebyshev polynomial fit, one rescaled jet per monomial. Stationarity
survives every stage by linearity and the exact rescaling identity
D_a^s u(x) = delta^(s-m) D_{-R}^s v(delta x + p), a = (-p-R)/delta.
Every stage is a ``Combination`` of affine rescalings of psi: a jet
concatenates members, a monomial rescales a jet, and the final sum
concatenates monomials.

The jet matrices are Vandermonde-like and genuinely ill conditioned
(rows of v_j^(l)(p) collapse onto the jet of kappa x^s as j grows), so
the solve uses column equilibration plus truncated SVD, and every
returned combination carries a finite-difference certificate of its jet
computed from plain values of v, independent of the derivative formula.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .blowup import BlowupMember, Combination, Psi0Profile, build_psi
from .special_functions import FractionalOrder

__all__ = [
    "JetCombination",
    "CombinedApproximant",
    "MonomialReport",
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
    "TargetDegreeError",
    "DEFAULT_POOL_J",
    "DEFAULT_POOL_P",
]

DEFAULT_POOL_J = (2, 4, 8, 16, 32)
DEFAULT_POOL_P = (0.5, 1.0, 2.0)
MAX_JET_ORDER = 4
MAX_CK_ORDER = 4
GRID_POINTS = 1000
RESIDUAL_POINTS = 200
DELTA_FLOOR = 1e-8


class JetInfeasibleError(RuntimeError):
    """No pool combination met the jet tolerance."""


class DeltaUnderflowError(RuntimeError):
    """The rescaling parameter underflowed before reaching the error budget."""


class TargetDegreeError(RuntimeError):
    """The polynomial stage would need a degree beyond the supported cap."""


# -- finite differences ----------------------------------------------------


def _fornberg_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights of the order-m derivative at z from nodes x (Fornberg recursion)."""
    n = x.size
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
    return c[:, m]


def fd_derivative(fun, p: float, order: int, h: float, half_width: int = 4) -> float:
    """Central finite-difference derivative of order ``order`` at p, step h."""
    offsets = np.arange(-half_width, half_width + 1, dtype=float)
    nodes = p + h * offsets
    w = _fornberg_weights(p, nodes, order)
    return float(sum(wi * fun(float(t)) for wi, t in zip(w, nodes)))


# -- jet prescription --------------------------------------------------------


def jet_matrix(members, points, m: int) -> np.ndarray:
    """Rows (member, point)-major of (v_j(x), v_j'(x), ..., v_j^(m)(x)).

    Entries come from the chain rule v_j^(l)(x) = j^(s-l) psi^(l)(x/j+1)
    with psi^(l) from the interior-derivative formula (fresh quadrature,
    not the tables): one ``derivative`` call per order over every
    (member, point) pair, so the members must share one psi.
    """
    members = list(members)
    points = [float(x) for x in points]
    if not members or not points:
        raise ValueError("need at least one member and one point")
    if any(x <= 0.0 for x in points):
        raise ValueError("jet points must be positive")
    psi, s = members[0].psi, members[0].s.s
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
    fd_jet_errors: tuple[float, ...] = ()

    @property
    def R(self) -> float:
        return float(np.max(1.0 / self.alpha))

    @property
    def vanishing_radius(self) -> float:
        """v is identically zero on [-vanishing_radius, 0]."""
        return float(np.min(1.0 / self.alpha)) / 4.0


def _solve_single_point(matrix: np.ndarray, m: int, rcond: float):
    """Min-norm least squares for M^T c = e_{m+1} with column equilibration."""
    scale = np.max(np.abs(matrix), axis=0)
    scale[scale == 0.0] = 1.0
    scaled = matrix / scale
    target = np.zeros(m + 1)
    target[m] = 1.0
    coef, *_ = np.linalg.lstsq(scaled.T, target / scale, rcond=rcond)
    residual = float(np.max(np.abs(matrix.T @ coef - target)))
    cond = float(np.linalg.cond(scaled))
    return coef, residual, cond


def prescribe_jet(
    s: FractionalOrder | float,
    profile: Psi0Profile,
    m: int,
    *,
    pool_j=DEFAULT_POOL_J,
    pool_p=DEFAULT_POOL_P,
    jet_tol: float = 1e-8,
    rcond: float = 1e-10,
    fd_step: float | None = None,
    verify: bool = True,
) -> JetCombination:
    """Build a stationary combination with jet (0, ..., 0, 1) of order m at some p.

    Tries each candidate p over the j pool and keeps, among the solves
    whose residual meets ``jet_tol``, the one of least coefficient mass
    (their residuals are rounding noise, 1e-15 to 1e-13, and would rank
    the candidates at random); when none meets it, the smallest residual,
    which is then reported as infeasible. The returned jet is certified
    by finite differences of plain v values.
    """
    s = FractionalOrder.of(s)
    if m < 0 or m > MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in 0..{MAX_JET_ORDER}")
    if len(pool_j) < m + 1:
        raise ValueError("pool must contain at least m+1 members")
    psi = build_psi(s, profile)
    members = tuple(BlowupMember(int(j), psi) for j in pool_j)

    solves = []
    for p in pool_p:
        matrix = jet_matrix(members, [p], m)
        coef, residual, cond = _solve_single_point(matrix, m, rcond)
        solves.append((residual, float(np.sum(np.abs(coef))), float(p), coef, cond))
    # residuals below the tolerance are rounding noise, so they do not rank
    feasible = [solve for solve in solves if solve[0] <= jet_tol]
    if feasible:
        residual, _, p, coef, cond = min(feasible, key=lambda solve: solve[1])
    else:
        residual, _, p, coef, cond = min(solves, key=lambda solve: solve[0])
    if not residual <= jet_tol:
        raise JetInfeasibleError(
            f"jet order {m}: best residual {residual:.3e} above tolerance {jet_tol:.1e} "
            f"(condition number {cond:.3e})"
        )

    combo = JetCombination.sum(
        zip(coef, members), p=p, m=m, jet_residual=residual, condition_number=cond
    )
    if verify:
        # step balances stencil truncation against the nonsmooth part of the
        # quadrature noise, which the 1/h^l weights amplify
        h = fd_step if fd_step is not None else 0.06 * min(p, 1.0)
        v_raw = functools.cache(combo.value_raw)  # the stencils share nodes
        fd_errors = tuple(
            abs(fd_derivative(v_raw, p, l, h, half_width=6) - (1.0 if l == m else 0.0))
            for l in range(m + 1)
        )
        combo = dataclasses.replace(combo, fd_jet_errors=fd_errors)
    return combo


# -- rescaled monomials -------------------------------------------------------


def _monomial(jet: JetCombination | None, m: int, delta: float | None) -> Combination:
    """u(x) = m! v(delta x + p)/delta^m, tracking x^m on [0, 1].

    Without a jet (m = 0) it is the exact constant 1: constants are
    stationary for any initial point.
    """
    if jet is None:
        return Combination(None, (), (), (), 1.0)
    return jet.rescaled(math.factorial(m) / delta**m, delta, jet.p)


@dataclass(frozen=True)
class MonomialReport:
    m: int
    k: int
    eps_budget: float
    delta: float | None
    errors_per_derivative: tuple[float, ...]
    achieved: float
    jet_residual: float
    fd_jet_errors: tuple[float, ...]
    halvings: int


def monomial_ck_errors(jet: JetCombination | None, m: int, k: int, delta: float | None,
                       n_points: int = GRID_POINTS) -> np.ndarray:
    """sup_[0,1] |u^(l) - (x^m)^(l)| for l = 0..k at the given delta."""
    monomial = PolyTarget([0.0] * m + [1.0])
    return np.asarray(_ck_grid_error(monomial, _monomial(jet, m, delta), k, n_points)[1])


def approximate_monomial(
    s: FractionalOrder | float,
    profile: Psi0Profile,
    m: int,
    k: int,
    eps: float,
    *,
    jet: JetCombination | None = None,
    **jet_options,
) -> tuple[Combination, MonomialReport]:
    """Stationary u with ||u - x^m||_{C^k([0,1])} < eps, by delta halving.

    The jet residual is amplified by delta^(l-m) for l < m, so delta
    cannot shrink forever; underflow below 1e-8 reports failure with the
    attained diagnostics instead of looping.
    """
    s = FractionalOrder.of(s)
    if not 0 <= k <= MAX_CK_ORDER:
        raise ValueError(f"derivative order k must lie in 0..{MAX_CK_ORDER}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if m == 0:
        report = MonomialReport(
            m=0, k=k, eps_budget=eps, delta=None,
            errors_per_derivative=tuple(0.0 for _ in range(k + 1)),
            achieved=0.0, jet_residual=0.0, fd_jet_errors=(), halvings=0,
        )
        return _monomial(None, 0, None), report

    if jet is None:
        jet = prescribe_jet(s, profile, m, **jet_options)
    delta = 1.0
    halvings = 0
    while True:
        errs = monomial_ck_errors(jet, m, k, delta)
        achieved = float(np.sum(errs))
        if achieved < eps:
            break
        delta *= 0.5
        halvings += 1
        if delta < DELTA_FLOOR:
            raise DeltaUnderflowError(
                f"monomial m={m}: delta underflowed below {DELTA_FLOOR:g} at "
                f"C^{k} error {achieved:.3e} (budget {eps:.3e}); the jet residual "
                f"{jet.jet_residual:.3e} is amplified by delta^-{m}"
            )
    report = MonomialReport(
        m=m, k=k, eps_budget=eps, delta=delta,
        errors_per_derivative=tuple(float(e) for e in errs),
        achieved=achieved, jet_residual=jet.jet_residual,
        fd_jet_errors=jet.fd_jet_errors, halvings=halvings,
    )
    return _monomial(jet, m, delta), report


# -- targets -------------------------------------------------------------------


class PolyTarget:
    """Polynomial target from ascending power-basis coefficients."""

    def __init__(self, coefficients):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("target coefficients must be finite")
        self.description = "poly[" + ",".join(f"{c:g}" for c in self.coefficients) + "]"

    def eval(self, x, order: int = 0):
        c = np.polynomial.polynomial.polyder(self.coefficients, order) if order else self.coefficients
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), np.atleast_1d(c))


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

    Derivatives come from differentiating the fit; degree adapts to the
    sample count (capped at 30).
    """

    def __init__(self, xs, ys, degree: int | None = None):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size != ys.size or xs.size < 4:
            raise ValueError("need matching x/y samples, at least 4")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("target samples must be finite")
        if degree is None:
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
    """Everything the density run certifies, for reporting and CI gating."""

    target: str
    k: int
    eps_requested: float
    epsilon_achieved: float
    errors_per_derivative: tuple[float, ...]
    residual_max: float
    residual_xs: tuple[float, ...]
    residual_values: tuple[float, ...]
    delta_per_monomial: dict[int, float | None]
    initial_point: float
    polynomial_degree: int
    polynomial_stage_error: float
    monomial_budgets: dict[int, float]
    monomial_reports: tuple[MonomialReport, ...]

    @property
    def ok(self) -> bool:
        return self.epsilon_achieved < self.eps_requested


# the density result: a sum of monomial approximants, stationary by linearity
CombinedApproximant = Combination


def _ck_grid_error(target, approx, k: int, n_points: int = GRID_POINTS) -> tuple[float, list[float]]:
    xs = np.linspace(0.0, 1.0, n_points)
    sups = []
    for l in range(k + 1):
        sups.append(float(np.max(np.abs(approx.derivative(l, xs) - target.eval(xs, l)))))
    return float(np.sum(sups)), sups


def approximate_function(
    f,
    k: int,
    eps: float,
    s: FractionalOrder | float,
    profile: Psi0Profile,
    *,
    residual_points: int = RESIDUAL_POINTS,
    **jet_options,
) -> tuple[CombinedApproximant, ApproximationReport]:
    """Stationary u with ||u - f||_{C^k([0,1])} < eps.

    Stage one fits a Chebyshev interpolant P of minimal degree n with
    C^k grid error below eps/2; stage two approximates each monomial of
    P within eps/(2 |c_m| (n+1)) and sums. n is at most MAX_JET_ORDER,
    the highest monomial stage two can build, so a target out of reach
    raises TargetDegreeError before any jet is solved. Norms are grid
    norms on 1000 uniform points of [0, 1] (documented surrogate for the
    sup).
    """
    s = FractionalOrder.of(s)
    target = as_target(f)
    if eps <= 0.0:
        raise ValueError("eps must be positive")

    cheb = None
    poly_error = math.inf
    degree = 0
    for n in range(MAX_JET_ORDER + 1):
        cand = np.polynomial.chebyshev.Chebyshev.interpolate(
            lambda x: np.asarray(target.eval(x, 0), dtype=float), n, domain=[0.0, 1.0]
        )
        xs = np.linspace(0.0, 1.0, GRID_POINTS)
        err = 0.0
        for l in range(k + 1):
            pl = cand.deriv(l) if l else cand
            err += float(np.max(np.abs(pl(xs) - target.eval(xs, l))))
        if err < eps / 2.0:
            cheb, poly_error, degree = cand, err, n
            break
    if cheb is None:
        raise TargetDegreeError(
            f"no polynomial of degree <= {MAX_JET_ORDER} reaches C^{k} error {eps / 2:.3e}; "
            "increase eps"
        )

    power = cheb.convert(kind=np.polynomial.Polynomial)
    coefs = np.zeros(degree + 1)
    coefs[: power.coef.size] = power.coef
    scale = max(1.0, float(np.max(np.abs(coefs))))

    pieces: list[tuple[float, Combination]] = []
    budgets: dict[int, float] = {}
    deltas: dict[int, float | None] = {}
    reports: list[MonomialReport] = []
    jet_cache: dict[int, JetCombination] = {}
    for m in range(degree + 1):
        c_m = float(coefs[m])
        if abs(c_m) <= 1e-14 * scale:
            continue
        budget = eps / (2.0 * abs(c_m) * (degree + 1))
        budgets[m] = budget
        if m > 0 and m not in jet_cache:
            jet_cache[m] = prescribe_jet(s, profile, m, **jet_options)
        approx, rep = approximate_monomial(
            s, profile, m, k, budget, jet=jet_cache.get(m)
        )
        pieces.append((c_m, approx))
        deltas[m] = rep.delta
        reports.append(rep)

    combined = CombinedApproximant.sum(pieces)
    achieved, sups = _ck_grid_error(target, combined, k)
    res_xs = np.linspace(0.0, 1.0, residual_points)
    res_vals = combined.caputo_value(res_xs)

    report = ApproximationReport(
        target=getattr(target, "description", type(target).__name__),
        k=k,
        eps_requested=eps,
        epsilon_achieved=achieved,
        errors_per_derivative=tuple(sups),
        residual_max=float(np.max(np.abs(res_vals))) if res_vals.size else 0.0,
        residual_xs=tuple(float(x) for x in res_xs),
        residual_values=tuple(float(v) for v in res_vals),
        delta_per_monomial=deltas,
        initial_point=combined.initial_point,
        polynomial_degree=degree,
        polynomial_stage_error=poly_error,
        monomial_budgets=budgets,
        monomial_reports=tuple(reports),
    )
    return combined, report
