"""The built-in causal data profiles and their reference solutions.

Every profile is a ``PiecewisePoly``, the causal data type: phi on
[lo, hi] = [a, b], constant on (-inf, a]. The ramp and the bump have a
fixed span and refuse an a or b; ``constant`` and ``linear`` take theirs
from the caller.

Two named profiles ship with closed-form solved extensions, used as
golden oracles by the tests and for the CLI's oracle-deviation report:

* ``appendix-es1`` (alias ``ramp``): phi(x) = x on [0, 1], zero tail.
* ``appendix-es2`` (alias ``bump``): the C^1 quadratic bump
  (16/9)(x - 3/4)^2 on [0, 3/4], zero on [3/4, 1], tail value 1.
"""

from __future__ import annotations

import math

import numpy as np

from .piecewise import PiecewisePoly

__all__ = [
    "FIXED_SPAN",
    "ramp_profile",
    "quadratic_bump_profile",
    "constant_profile",
    "linear_profile",
    "builtin_profile",
    "builtin_extension_oracle",
    "ramp_extension_value",
    "bump_extension_value",
    "ramp_forcing_value",
    "bump_forcing_value",
]


def ramp_profile() -> PiecewisePoly:
    """phi(x) = x on [0, 1], zero on (-inf, 0]."""
    return PiecewisePoly([0.0, 1.0], [[0.0, 1.0]])


def quadratic_bump_profile() -> PiecewisePoly:
    """(16/9)(x - 3/4)^2 on [0, 3/4], zero on [3/4, 1], constant 1 left of 0."""
    return PiecewisePoly(
        [0.0, 0.75, 1.0],
        [[1.0, -8.0 / 3.0, 16.0 / 9.0], [0.0]],
        left_tail=1.0,
    )


def constant_profile(value: float = 1.0, a: float = 0.0, b: float = 1.0) -> PiecewisePoly:
    return PiecewisePoly.single([value], a, b)


def linear_profile(a: float = 0.0, b: float = 1.0) -> PiecewisePoly:
    """phi(x) = x - a on [a, b] (slope one, causal from a)."""
    return PiecewisePoly.single([0.0, 1.0], a, b)


# the built-in profiles by name, with a fixed span or with one set by a/b
_FIXED = {
    "appendix-es1": ramp_profile,
    "ramp": ramp_profile,
    "appendix-es2": quadratic_bump_profile,
    "bump": quadratic_bump_profile,
}
_SPANNED = {
    "constant": lambda lo, hi: constant_profile(1.0, lo, hi),
    "linear": linear_profile,
}
FIXED_SPAN = frozenset(_FIXED)


def builtin_profile(name: str, a: float | None = None, b: float | None = None) -> PiecewisePoly:
    """Look up a named profile; a/b override the span [0, 1] of constant/linear
    and are refused for the fixed-span profiles."""
    if name in _FIXED:
        if a is not None or b is not None:
            raise ValueError(
                f"--a/--b do not apply to the {name} profile; they set the span of "
                "--poly and of the constant and linear profiles"
            )
        return _FIXED[name]()
    if name in _SPANNED:
        return _SPANNED[name](0.0 if a is None else float(a), 1.0 if b is None else float(b))
    raise ValueError(f"unknown profile {name!r}; choose from {sorted(_FIXED | _SPANNED)}")


# -- closed-form solved extensions of the two reference profiles (s = 1/2) --


def ramp_extension_value(x):
    """Solved extension of the ramp profile at s = 1/2 for x >= 1:
    (2/pi) (x arcsin(1/sqrt x) - sqrt(x - 1))."""
    x = np.asarray(x, dtype=float)
    return (2.0 / np.pi) * (x * np.arcsin(1.0 / np.sqrt(x)) - np.sqrt(x - 1.0))


def ramp_extension_derivative(x):
    """First derivative of the ramp extension: (2/pi)(arcsin(1/sqrt x) - 1/sqrt(x-1))."""
    x = np.asarray(x, dtype=float)
    return (2.0 / np.pi) * (np.arcsin(1.0 / np.sqrt(x)) - 1.0 / np.sqrt(x - 1.0))


def ramp_forcing_value(t):
    """Forcing of the ramp problem: g(t) = 2 sqrt(t-1) - 2 sqrt(t)."""
    t = np.asarray(t, dtype=float)
    return 2.0 * np.sqrt(t - 1.0) - 2.0 * np.sqrt(t)


# arcsin(z)/z = 1 + z^2/6 + sum_(k>=2) c_k z^(2k), c_k = C(2k, k)/(4^k (2k + 1)):
# the c_k of k = 2..15; at z^2 <= 1/9 the rest is below 1e-17 relative
_ASIN_TAIL = tuple(math.comb(2 * k, k) / (4.0**k * (2 * k + 1)) for k in range(2, 16))


def bump_extension_value(x):
    """Solved extension of the quadratic bump at s = 1/2 for x >= 1,

        u = (27 pi + sqrt(x-1) (52 - 48x) + arcsin(1/sqrt x) (96x^2 - 144x)
             - arcsin(1/sqrt(4x-3)) (96x^2 - 144x + 54))/(27 pi),

    taken without cancellation. Its terms grow like x^(3/2) while u - 1
    falls like x^(-1/2), and in this form they cancel like x^2 (8.4e-4 at
    x = 1e9). With r = sqrt(x (4x-3)), the arcsin difference is arcsin z,
    z = sqrt(x-1)/r <= 1/3, and 27 pi - 54 arcsin(1/sqrt(4x-3)) is
    54 arctan(2 sqrt(x-1)), so

        u = (sqrt(x-1) M + 54 arctan(2 sqrt(x-1)))/(27 pi),
        M = 52 - 48x + 48x (2x-3)/r * arcsin(z)/z.

    arcsin(z)/z is 1 + z^2/6 plus a series of positive terms
    (``_ASIN_TAIL``). Over r^3 the rest of M is (r A1 + A2)/r^3, with
    A1 = -4x (4x-3)(12x-13) and A2 = 8x (2x-3)(24x^2 - 17x - 1); below
    x = 3/2 its two terms do not cancel, and from x = 3/2 it is taken as
    (r^2 A1^2 - A2^2)/((r A1 - A2) r^3), whose numerator 16x^2 p(x) is
    exact algebra and p a quartic of positive coefficients in x - 3/2.
    Against 50-digit mpmath it errs by at most 2.9e-16 on [1.01, 5] and
    by 4e-16 relative out to x = 1e15.
    """
    x = np.asarray(x, dtype=float)
    q = 4.0 * x - 3.0
    r = np.sqrt(x * q)
    w = (x - 1.0) / (x * q)  # z^2
    tail = np.zeros_like(x)
    for c in reversed(_ASIN_TAIL):
        tail = tail * w + c
    cubic = 8.0 * (2.0 * x - 3.0) * (24.0 * x * x - 17.0 * x - 1.0)
    y = x - 1.5
    p = (((7536.0 * y + 23696.0) * y + 24512.0) * y + 9585.0) * y + 1012.5
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 near x = 1.34, where near serves
        far = -16.0 * p / ((4.0 * q * (12.0 * x - 13.0) * r + cubic) * r * q)
    near = cubic / (r * q) - 4.0 * (12.0 * x - 13.0)
    m = np.where(x >= 1.5, far, near) + 48.0 * (2.0 * x - 3.0) * (x - 1.0) / (r * q) * w * tail
    root = np.sqrt(x - 1.0)
    return (root * m + 54.0 * np.arctan(2.0 * root)) / (27.0 * np.pi)


def bump_forcing_value(t):
    """Forcing of the bump problem: -(16/27)(8 t^{3/2} - 9 t^{1/2} - (4t-3)^{3/2})."""
    t = np.asarray(t, dtype=float)
    return -(16.0 / 27.0) * (8.0 * t**1.5 - 9.0 * np.sqrt(t) - (4.0 * t - 3.0) ** 1.5)


def builtin_extension_oracle(name: str):
    """Closed-form solved-extension evaluator for a named profile, if one exists.

    Only valid at s = 1/2; returns None for profiles without an oracle.
    """
    if name in ("appendix-es1", "ramp"):
        return ramp_extension_value
    if name in ("appendix-es2", "bump"):
        return bump_extension_value
    if name == "constant":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    return None
