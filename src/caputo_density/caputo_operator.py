"""Direct evaluation of the Caputo derivative and residual tables.

D_a^s u(x) = (1/Gamma(1-s)) int_a^x u'(t) (x-t)^(-s) dt, with the
causality convention u(x) = u(a) for x < a, hence D_a^s u(x) = 0 there.

The derivative is exact for piecewise-polynomial causal data (closed-form
power-law moments) and semi-analytic for solved extensions and the
blow-up objects, which expose their own ``caputo_value``. A generic path
accepts any evaluator with an analytically supplied derivative; finite
differences are never used, the kernel amplifies differentiation noise
near t = x.
"""

from __future__ import annotations

import numpy as np

from .piecewise import PiecewisePoly
from .singular_quadrature import integrate_singular, poly_abel_integral
from .special_functions import fractional_order, gamma

__all__ = ["caputo_derivative", "caputo_residual", "ResidualReport"]


class ResidualReport:
    """Per-point Caputo residual table with its max-abs summary."""

    def __init__(self, xs: np.ndarray, values: np.ndarray):
        self.xs = xs
        self.values = values

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def _own_caputo(u, a: float, s: float):
    """Use an object's semi-analytic Caputo evaluator when compatible."""
    if not hasattr(u, "caputo_value"):
        return None
    own_s = getattr(u, "s", None)
    if own_s is not None and fractional_order(own_s) != s:
        raise ValueError("order s does not match the object's own order")
    own_a = getattr(u, "initial_point", getattr(u, "a", None))
    if own_a is not None and a > own_a:
        raise ValueError(
            f"initial point {a} is inside the object's memory (starts at {own_a})"
        )
    # a <= own_a is exact: the object is constant on (-inf, own_a]
    return u.caputo_value


def caputo_derivative(
    u,
    a: float,
    s: float,
    x,
    u_prime=None,
):
    """D_a^s u(x); exactly 0 for x <= a by causality, NaN at a NaN x.

    u may be causal data as a PiecewisePoly (exact closed form), a solved
    extension or blow-up/jet object (semi-analytic residual path), or a
    plain evaluator together with its analytic derivative ``u_prime``
    (``integrate_singular``; u' must be smooth on [a, x]).

    x may be a scalar (a float is returned) or an array (an array of its
    shape). The points right of a take one call: one ``poly_abel_integral``
    for piecewise data, one ``caputo_value`` for objects that have it, and
    one ``integrate_singular`` per point for a plain evaluator. Each
    point's value is what a call for that point alone gives. Piecewise
    data refuses the whole call if any point lies beyond its end.
    """
    s = fractional_order(s)
    a = float(a)
    xs = np.asarray(x if isinstance(x, np.ndarray) else float(x), dtype=float)
    flat = xs.ravel()
    out = np.where(np.isnan(flat), np.nan, 0.0)
    live = flat > a
    if live.any():
        out[live] = _caputo_right_of(u, a, s, flat[live], u_prime)
    return out.reshape(xs.shape) if isinstance(x, np.ndarray) else float(out[0])


def _caputo_right_of(u, a: float, s: float, xs: np.ndarray, u_prime) -> np.ndarray:
    """D_a^s u at every point of a 1-d array of points > a."""
    own = _own_caputo(u, a, s)
    if own is not None:
        return own(xs)

    if isinstance(u, PiecewisePoly):
        if a > u.lo:
            raise ValueError("initial point must not be inside the data's memory")
        if (xs > u.hi).any():
            raise ValueError(
                "data ends before x; solve the extension to differentiate beyond it"
            )
        return poly_abel_integral(u.derivative_pieces(), xs, -s) / gamma(1.0 - s)

    if u_prime is None and callable(u):
        raise TypeError("plain evaluators need an analytic derivative u_prime")
    if u_prime is not None:
        integrals = [integrate_singular(u_prime, a, x, -s, "right") for x in xs.tolist()]
        return np.array(integrals) / gamma(1.0 - s)

    raise TypeError(f"cannot take the Caputo derivative of {type(u).__name__}")


def caputo_residual(u, a: float, s: float, grid, **kwargs) -> ResidualReport:
    """Residual table D_a^s u over a grid of points > a: signed values,
    whose largest magnitude is ``max_abs``.

    One ``caputo_derivative`` call takes the whole grid.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise ValueError("residual grid must be nonempty")
    if (xs <= a).any():
        raise ValueError("all residual grid points must lie right of the initial point")
    return ResidualReport(xs=xs, values=caputo_derivative(u, a, s, xs, **kwargs))
