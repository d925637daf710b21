"""Caputo-stationary functions: solve, blow up, and approximate.

A numerical toolkit around the Caputo fractional derivative of order
s in (0, 1): Gauss-Jacobi quadrature of weakly singular integrals, the exact
stationary-extension solver for piecewise-polynomial causal data, the
blow-up family converging to kappa x^s, and the constructive density
pipeline that builds a Caputo-stationary function within any C^k
tolerance of a smooth target on [0, 1].
"""

from .blowup import (
    BlowupMember,
    Combination,
    KappaEstimate,
    Psi0Profile,
    build_psi,
    check_blowup_convergence,
    estimate_kappa,
)
from .caputo_operator import ResidualReport, caputo_derivative, caputo_residual
from .density_builder import (
    ApproximationReport,
    JetCombination,
    approximate_function,
    approximate_monomial,
    jet_matrix,
    prescribe_jet,
)
from .extension_solver import (
    ExtensionSolution,
    JunctionProximityError,
    solve_extension,
)
from .piecewise import PiecewisePoly
from .profiles import builtin_profile, quadratic_bump_profile, ramp_profile
from .singular_quadrature import integrate_singular, kernel_identity_check
from .special_functions import beta, fractional_order, gamma, reflection

__all__ = [
    "fractional_order",
    "gamma",
    "beta",
    "reflection",
    "integrate_singular",
    "kernel_identity_check",
    "PiecewisePoly",
    "ramp_profile",
    "quadratic_bump_profile",
    "builtin_profile",
    "caputo_derivative",
    "caputo_residual",
    "ResidualReport",
    "ExtensionSolution",
    "solve_extension",
    "JunctionProximityError",
    "Psi0Profile",
    "Combination",
    "BlowupMember",
    "KappaEstimate",
    "build_psi",
    "estimate_kappa",
    "check_blowup_convergence",
    "JetCombination",
    "jet_matrix",
    "prescribe_jet",
    "approximate_monomial",
    "approximate_function",
    "ApproximationReport",
]
