"""The special solution psi, its blow-up family, and the limit constant.

psi solves D_0^s psi = 0 on (1, inf) with a strictly decreasing C^1 bump
psi_0 prescribed on (-inf, 1] (constant left of 0, zero on [3/4, 1]).
The rescalings v_j(x) = j^s psi(x/j + 1) are stationary on (0, inf),
vanish on [-j/4, 0], and converge uniformly on bounded subintervals of
(0, inf) to kappa x^s. The constant kappa is estimated here by fitting
psi(1+eps) eps^(-s) = kappa + C eps on a decreasing eps grid and compared
against the two analytic candidates

    kappa_a = g(1)/s = B(1, s) g(1),
    kappa_b = (sin(pi s)/pi) g(1)/s,

which differ by the normalization prefactor of the representation
formula; the fit is the arbiter and both are always reported.
Members and all approximants built from them are ``Combination``s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .extension_solver import ExtensionSolution, _check_order, _reach, solve_extension
from .piecewise import PiecewisePoly, taylor_shift
from .profiles import quadratic_bump_profile
from .singular_quadrature import integrate_singular, poly_abel_integral
from .special_functions import fractional_order, gamma, sin_pi

__all__ = [
    "Psi0Profile",
    "Combination",
    "BlowupMember",
    "KappaEstimate",
    "BlowupConvergence",
    "build_psi",
    "estimate_kappa",
    "check_blowup_convergence",
    "check_convergence_inputs",
    "DEFAULT_J_LIST",
    "DEFAULT_INTERVAL",
]

DEFAULT_J_LIST = (2, 4, 8, 16, 32, 64)
DEFAULT_INTERVAL = (0.5, 2.0)
_DENSE_SAMPLE = 1000
# solved psi per (s, profile), and the psi_0 data admitted by Psi0Profile's
# checks: the least recently used go first beyond this many, which still
# holds every order of a sweep
_PSI_CACHE_SIZE = 8
# the kappa fit's eps grid, 2^-5 down to 2^-14
_KAPPA_EPS = 2.0 ** -np.arange(5, 15)


@dataclass(frozen=True, eq=False)
class Psi0Profile:
    """Admissible prescribed data for the blow-up construction.

    Constant on (-inf, 0], identically zero on [3/4, 1], with strictly
    negative derivative on [0, 3/4); all three checked on a dense sample
    at construction. C^1 matching is verified at interior breakpoints.
    Profiles compare and hash by their data's fingerprint, so equal data
    share one cached psi, and data equal to data that passed the checks
    lately are admitted without a second sample.
    """

    data: PiecewisePoly

    def __post_init__(self) -> None:
        _check_psi0(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Psi0Profile)
                and self.data.fingerprint() == other.data.fingerprint())

    def __hash__(self) -> int:
        return hash(self.data.fingerprint())

    @classmethod
    def default_quadratic(cls) -> "Psi0Profile":
        """(16/9)(x - 3/4)^2 on [0, 3/4], zero on [3/4, 1]."""
        return cls(quadratic_bump_profile())


@functools.lru_cache(maxsize=_PSI_CACHE_SIZE)
def _check_psi0(profile: Psi0Profile) -> None:
    """Psi0Profile's checks, once per data fingerprint while it stays cached."""
    data = profile.data
    bp = data.breakpoints
    if bp[0] != 0.0 or bp[-1] != 1.0:
        raise ValueError("psi_0 data must span exactly [0, 1]")
    ts = np.linspace(0.75, 1.0, _DENSE_SAMPLE // 4)
    if np.max(np.abs(data.value(ts))) > 1e-12:
        raise ValueError("psi_0 must vanish on [3/4, 1]")
    ts = np.linspace(0.0, 0.75, _DENSE_SAMPLE, endpoint=False)
    if np.max(data.derivative_value(ts)) >= 0.0:
        raise ValueError("psi_0 must be strictly decreasing on [0, 3/4)")
    for j, tau in enumerate(bp[1:-1]):
        # the left piece's slope at tau: its coefficient of (x - tau)
        left = taylor_shift(data.coeffs[j], tau - bp[j])[1]
        right = float(data.derivative_value(float(tau)))
        if abs(left - right) > 1e-9:
            raise ValueError(f"psi_0 is not C^1 at breakpoint {tau}")


@functools.lru_cache(maxsize=_PSI_CACHE_SIZE)
def _solved_psi(s: float, profile: Psi0Profile) -> ExtensionSolution:
    return solve_extension(profile.data, s)


def build_psi(s: float, profile: Psi0Profile) -> ExtensionSolution:
    """Solve D_0^s psi = 0 on (1, inf) with psi = psi_0 on (-inf, 1], cached
    per (s, profile) in an ``lru_cache`` that threads may share."""
    return _solved_psi(fractional_order(s), profile)


@dataclass(frozen=True, eq=False)
class Combination:
    """u(x) = c0 + sum_i A_i psi(alpha_i x + beta_i), alpha_i > 0; psi is None without terms.

    Members, jets, rescaled monomials and their sums all have this form.
    Term i is causal from (a_psi - beta_i)/alpha_i, and u^(l) and D^s u
    weigh it by alpha_i^l and alpha_i^s (the exact scaling identity), so
    u is stationary from ``initial_point`` right of psi's junction. Each
    evaluator makes one psi call over all (point, term) pairs and sums
    each point's row on its own, so no value depends on the batch.
    """

    psi: ExtensionSolution | None
    A: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    c0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("A", "alpha", "beta"):
            arr = np.array(getattr(self, name), dtype=float).reshape(-1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.A.size == self.alpha.size == self.beta.size and np.all(self.alpha > 0.0)):
            raise ValueError("need one A, one alpha > 0 and one beta per term")

    @classmethod
    def sum(cls, pieces) -> "Combination":
        """sum_k w_k u_k for (w_k, u_k) pairs sharing one psi: the terms concatenated."""
        pieces = [(float(w), u) for w, u in pieces]
        psi = next((u.psi for _, u in pieces if u.psi is not None), None)
        if any(u.psi not in (None, psi) for _, u in pieces):
            raise ValueError("combined terms must share one psi")
        return cls(
            psi,
            np.concatenate([[]] + [w * u.A for w, u in pieces]),
            np.concatenate([[]] + [u.alpha for _, u in pieces]),
            np.concatenate([[]] + [u.beta for _, u in pieces]),
            sum(w * u.c0 for w, u in pieces),
        )

    def rescaled(self, scale: float, delta: float, p: float) -> "Combination":
        """x -> scale * u(delta x + p), again a combination of the same psi."""
        alpha, beta = delta * self.alpha, self.alpha * p + self.beta
        return Combination(self.psi, scale * self.A, alpha, beta, scale * self.c0)

    @property
    def s(self) -> float | None:
        return None if self.psi is None else self.psi.s

    @property
    def initial_point(self) -> float:
        """min_i (a_psi - beta_i)/alpha_i; -1 for a bare constant."""
        return float(np.min((self.psi.a - self.beta) / self.alpha)) if self.A.size else -1.0

    def _apply(self, f, power: float, c0: float, x):
        """c0 + sum_i A_i alpha_i^power f(alpha_i x + beta_i), one f call for all pairs."""
        xa = np.asarray(x, dtype=float)
        flat = xa.reshape(-1)
        out = np.full(flat.size, c0)
        if self.A.size and flat.size:
            # term-major: each term's points reach psi in the caller's order
            y = self.alpha[:, None] * flat + self.beta[:, None]
            vals = np.ascontiguousarray(np.reshape(f(y.ravel()), y.shape).T)
            out += np.sum(vals * (self.A * self.alpha**power), axis=1)
        return out.reshape(xa.shape) if isinstance(x, np.ndarray) else float(out[0])

    def value(self, x):
        """u(x) on all of R (psi's data region included)."""
        return self._apply(lambda y: self.psi.value(y), 0.0, self.c0, x)

    def derivative(self, l: int, x):
        """u^(l)(x) from psi's tables; for l >= 1 every argument must lie right of b."""
        _check_order(l)
        return self._apply(lambda y: self.psi.derivative(l, y), l, 0.0 if l else self.c0, x)

    def caputo_value(self, x):
        """D^s u(x) from ``initial_point``, by the scaling identity per term."""
        s = 0.0 if self.psi is None else self.psi.s
        return self._apply(lambda y: self.psi.caputo_value(y), s, 0.0, x)

    def value_raw(self, x):
        """u(x) by fresh representation-formula quadrature (certificate path)."""
        return self._apply(lambda y: self.psi.raw_value(y), 0.0, self.c0, x)


class BlowupMember(Combination):
    """One rescaling v_j(x) = j^s psi(x/j + 1), causal from -j."""

    j: int

    def __init__(self, j: int, psi: ExtensionSolution):
        if j < 1 or int(j) != j:
            raise ValueError("j must be a positive integer")
        super().__init__(psi, [j**psi.s], [1.0 / j], [1.0])
        object.__setattr__(self, "j", j)

    # the same evaluator, bound here too so that traces name member residuals
    caputo_value = Combination.caputo_value

    def caputo_value_direct(self, x: float) -> float:
        """D_{-j}^s v_j(x) evaluated directly on the v_j side.

        Independent of caputo_value: the rescaled data pieces, the last
        one continued past 0 (it carries psi's junction polynomial),
        integrate exactly, and the rest of the extension part is
        ``integrate_singular`` on the two halves of (0, x) in t, each with
        the other kernel factor in its integrand, not the residual's rule.
        Like the tables it refuses +inf and points beyond their reach, and
        a NaN point reads NaN.
        """
        x = float(x)
        if math.isnan(x):
            return math.nan
        j, s = float(self.j), self.s
        _reach(np.array([x / j]), self.psi._max_xi)  # refused before any integral
        if x <= -j:
            return 0.0
        pieces = []
        for tau_lo, tau_hi, dcoeffs in self.psi.profile.derivative_pieces():
            scale = j ** (s - 1.0) * j ** -np.arange(dcoeffs.size)
            pieces.append((j * (tau_lo - 1.0), j * (tau_hi - 1.0), dcoeffs * scale))
        pieces[-1] = (pieces[-1][0], math.inf, pieces[-1][2])
        total = poly_abel_integral(pieces, x, -s)
        if x > 0.0:
            mid = 0.5 * x
            h1 = lambda t: self.psi.smooth_factor(1, t / j)
            total += integrate_singular(
                lambda t: h1(t) * (x - t) ** (-s), 0.0, mid, s - 1.0, "left"
            )
            total += integrate_singular(
                lambda t: t ** (s - 1.0) * h1(t), mid, x, -s, "right"
            )
        return total / gamma(1.0 - s)


def _line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through (x, y), in
    closed form about the means of x and y."""
    x_mean, y_mean = np.mean(x), np.mean(y)
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    return slope, float(y_mean - slope * x_mean)


@dataclass(frozen=True)
class KappaEstimate:
    """Fitted limit constant with the two analytic candidates and diagnostics."""

    kappa: float
    fit_exponent: float
    kappa_a: float
    kappa_b: float
    matched: str | None

    def __post_init__(self) -> None:
        if not self.kappa > 0.0:
            raise ValueError("kappa must be strictly positive")


def estimate_kappa(s: float, profile: Psi0Profile) -> KappaEstimate:
    """Fit psi(1+eps) eps^(-s) = kappa + C eps over eps = 2^-5, ..., 2^-14.

    psi(1+eps) is evaluated by fresh representation-formula quadrature on
    [1, 1+eps], one ``raw_value`` call for the whole grid (independent of
    the solver's cached expansion, which would presuppose the answer).
    Candidates kappa_a/kappa_b from the closed form of g(1) are reported
    alongside; exactly one should match.
    """
    s = fractional_order(s)
    eps = _KAPPA_EPS
    psi = build_psi(s, profile)
    vals = psi.raw_value(1.0 + eps)
    kappa = _line(eps, vals * eps ** (-s))[1]
    fit_exponent = _line(np.log(eps), np.log(np.abs(vals)))[0]

    g1 = psi.g_value(psi.b)
    kappa_a = g1 / s
    kappa_b = sin_pi(s) / math.pi * kappa_a
    match_a = abs(kappa - kappa_a) <= 0.01 * abs(kappa_a)
    match_b = abs(kappa - kappa_b) <= 0.01 * abs(kappa_b)
    matched = "a" if (match_a and not match_b) else "b" if (match_b and not match_a) else None
    return KappaEstimate(
        kappa=float(kappa),
        fit_exponent=fit_exponent,
        kappa_a=float(kappa_a),
        kappa_b=float(kappa_b),
        matched=matched,
    )


@dataclass(frozen=True)
class BlowupConvergence:
    """Sup-errors of v_j against kappa x^s per j, with the empirical rate."""

    j_list: tuple[int, ...]
    sup_errors: tuple[float, ...]
    rate_exponent: float


def check_convergence_inputs(j_list, interval) -> tuple[tuple[int, ...], tuple[float, float]]:
    """The j list and interval of a convergence check, validated: at least
    two increasing integers j >= 1 and 0 < lo < hi < inf."""
    j_list = tuple(int(j) for j in j_list)
    if len(j_list) < 2:
        raise ValueError(f"the convergence rate needs at least two j values, got {j_list}")
    if j_list[0] < 1 or any(b <= a for a, b in zip(j_list, j_list[1:])):
        raise ValueError(f"j list must be increasing positive integers, got {j_list}")
    x_lo, x_hi = (float(v) for v in interval)
    if not (0.0 < x_lo < x_hi and math.isfinite(x_hi)):
        raise ValueError(f"interval must be a bounded subinterval of (0, inf), got {interval}")
    return j_list, (x_lo, x_hi)


def check_blowup_convergence(
    s: float,
    profile: Psi0Profile,
    j_list=DEFAULT_J_LIST,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
    *,
    n_points: int = 200,
    kappa: KappaEstimate,
) -> BlowupConvergence:
    """sup_{x in I} |v_j(x) - kappa x^s| for each j and the log-log rate in j.

    One psi read serves every j: row j is j^s psi(x/j + 1), by the
    operations of ``BlowupMember(j, psi).value``, so each sup equals the
    member's bit for bit.
    """
    s = fractional_order(s)
    j_list, (x_lo, x_hi) = check_convergence_inputs(j_list, interval)
    psi = build_psi(s, profile)
    xs = np.linspace(x_lo, x_hi, n_points)
    target = kappa.kappa * xs**s
    alpha = 1.0 / np.asarray(j_list, dtype=float)
    members = psi.value((alpha[:, None] * xs + 1.0).ravel()).reshape(alpha.size, xs.size)
    members *= np.array([j**s for j in j_list])[:, None]
    sups = np.max(np.abs(members - target), axis=1)
    return BlowupConvergence(
        j_list=j_list,
        sup_errors=tuple(float(e) for e in sups),
        rate_exponent=_line(np.log(np.asarray(j_list, dtype=float)), np.log(sups))[0],
    )
