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


def bump_extension_value(x):
    """Solved extension of the quadratic bump at s = 1/2 for x >= 1; its
    terms cancel like x^2, so it errs by 1.1e-13 relative at x = 1e3,
    3.7e-11 at 1e4, 2.6e-6 at 1e7 and 8.4e-4 at 1e9."""
    x = np.asarray(x, dtype=float)
    return (
        27.0 * np.pi
        + np.sqrt(x - 1.0) * (-48.0 * x + 52.0)
        + np.arcsin(1.0 / np.sqrt(x)) * (96.0 * x**2 - 144.0 * x)
        - np.arcsin(1.0 / np.sqrt(4.0 * x - 3.0)) * (96.0 * x**2 - 144.0 * x + 54.0)
    ) / (27.0 * np.pi)


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
