"""Gamma and Beta functions for the kernels and normalizations.

Gamma on the positive half axis is ``math.gamma`` (relative error below
1e-15), Beta the Gamma quotient, and the reflection value pi/sin(pi s)
is used by every weakly singular kernel in the package. sin(pi s) is
``sin_pi``, the one place it is computed. The order s is a plain float,
checked by ``fractional_order`` at every entry point.
"""

from __future__ import annotations

import math

__all__ = ["fractional_order", "gamma", "beta", "sin_pi", "reflection"]


def fractional_order(s) -> float:
    """The order s of the fractional derivative as a float in (0, 1) strictly.

    s must also keep s - 1 above -1 in floating point (s above about
    5.6e-17): the quadrature rules take s - 1 as a Jacobi exponent.
    """
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional order must satisfy 0 < s < 1, got {s}")
    if s - 1.0 == -1.0:
        raise ValueError(f"fractional order {s!r} is too close to 0: s - 1 rounds to -1")
    return s


def gamma(z: float) -> float:
    """Gamma(z) for z > 0."""
    z = float(z)
    if not z > 0.0:
        raise ValueError(f"gamma requires a positive argument, got {z}")
    return math.gamma(z)


def beta(x: float, y: float) -> float:
    """Beta(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0."""
    x = float(x)
    y = float(y)
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({x}, {y})")
    return gamma(x) * gamma(y) / gamma(x + y)


def sin_pi(s: float) -> float:
    """sin(pi s) for s in (0, 1), as sin(pi min(s, 1 - s)).

    For s > 1/2, 1 - s is exact in floating point and the rounding of
    pi times it is relative, so the value keeps its relative accuracy as
    s nears 1, where math.sin(math.pi * s) loses it: a rounding of pi s
    near pi is large against the small sine (2.7e-14 relative at s =
    0.998). For s <= 1/2 it is math.sin(math.pi * s) bit for bit.
    """
    return math.sin(math.pi * min(s, 1.0 - s))


def reflection(s: float) -> float:
    """pi / sin(pi s), the value of Beta(s, 1-s) for s in (0, 1)."""
    s = fractional_order(s)
    return math.pi / sin_pi(s)
