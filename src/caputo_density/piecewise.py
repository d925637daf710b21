"""Piecewise cubic polynomials with a constant left tail: the causal data.

``PiecewisePoly`` is the prescribed data of the nonlocal problems, phi
on (-inf, b] constant left of the initial point a: breakpoints spanning
[a, b] = [lo, hi], per-piece coefficients of degree <= 3, and a constant
value on (-inf, lo]. Such phi is admissible (absolutely continuous, with
phi'(.)(x-.)^(-s) integrable). Construction verifies continuity across
every breakpoint; derivatives are evaluated piecewise with the right-hand
piece used at breakpoints. ``taylor_shift`` re-centres a piece.

``polyval`` and ``polyder`` serve the power-basis polynomials of the
solver. They return numpy.polynomial's ``polyval`` and ``polyder`` bit
for bit (the same Horner order, the same ``j * c[j]``) without importing
numpy.polynomial, which the derivative, extend and blowup commands would
otherwise load for these two functions alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PiecewisePoly", "polyval", "polyder", "taylor_shift"]

_CONTINUITY_TOL = 1e-12
MAX_DEGREE = 3


def polyval(x, c):
    """sum_k c[k] x**k for ascending 1-d coefficients c, by Horner's rule.

    x may be a scalar or an array of any shape; numpy's ``polyval(x, c)``
    bit for bit.
    """
    c = np.asarray(c, dtype=float)
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def polyder(c, m: int = 1) -> np.ndarray:
    """Ascending coefficients of the m-th derivative of a 1-d polynomial c.

    numpy's ``polyder(c, m)`` bit for bit: a copy of c for m = 0,
    ``c[:1] * 0`` once m reaches len(c), and otherwise m passes of
    c[j] -> j * c[j].
    """
    c = np.array(c, dtype=float, ndmin=1)
    if m == 0:
        return c
    if m >= len(c):
        return c[:1] * 0
    for _ in range(m):
        c = np.arange(1, len(c)) * c[1:]
    return c


def taylor_shift(c, h) -> np.ndarray:
    """Coefficients about t + h of the piece sum_k c[k] (x - t)**k, the
    binomial expansion of (x - t - h + h)**k summed in ascending k."""
    c = np.asarray(c, dtype=float)
    out = np.zeros(c.size)
    for k in range(c.size):
        for r in range(k + 1):
            out[r] += c[k] * math.comb(k, r) * h ** (k - r)
    return out


class PiecewisePoly:
    """Causal data: a piecewise polynomial of degree <= 3 on [lo, hi],
    constant on the left tail (-inf, lo].

    Parameters
    ----------
    breakpoints : array_like, shape (M+1,)
        Strictly increasing. Piece j lives on [breakpoints[j], breakpoints[j+1]].
    coeffs : array_like, shape (M, d) with d <= 4
        coeffs[j, k] multiplies (x - breakpoints[j])**k on piece j.
    left_tail : float, optional
        Value on (-inf, breakpoints[0]]; defaults to the value of piece 0 at
        its left endpoint. If given it must match that value to 1e-12.
    """

    def __init__(self, breakpoints, coeffs, left_tail: float | None = None):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if (np.diff(bp) <= 0.0).any():
            raise ValueError("breakpoints must be strictly increasing")
        rows = [np.atleast_1d(np.asarray(row, dtype=float)) for row in coeffs]
        if len(rows) != bp.size - 1:
            raise ValueError("one coefficient row per piece required")
        if any(row.size > MAX_DEGREE + 1 for row in rows):
            raise ValueError(f"piece degree must be <= {MAX_DEGREE}")
        full = np.zeros((len(rows), MAX_DEGREE + 1))
        for j, row in enumerate(rows):
            full[j, : row.size] = row
        if not np.isfinite(full).all():
            raise ValueError("coefficients must be finite")
        self.breakpoints = bp
        self.coeffs = full
        value0 = float(full[0, 0])
        self.left_tail = value0 if left_tail is None else float(left_tail)

        scale = max(1.0, float(np.abs(full).max()))
        if abs(self.left_tail - value0) > _CONTINUITY_TOL * scale:
            raise ValueError("left tail does not match the first piece value")
        for j in range(full.shape[0] - 1):
            w = bp[j + 1] - bp[j]
            left_val = full[j] @ w ** np.arange(4)
            right_val = full[j + 1, 0]
            if abs(left_val - right_val) > _CONTINUITY_TOL * scale:
                raise ValueError(
                    f"discontinuity {left_val - right_val:.3e} at breakpoint {bp[j + 1]}"
                )

    # -- constructors ----------------------------------------------------

    @classmethod
    def single(cls, coeffs, lo: float, hi: float) -> "PiecewisePoly":
        """One piece on [lo, hi] with coefficients about lo."""
        return cls([lo, hi], [list(coeffs)])

    # -- evaluation -------------------------------------------------------

    @property
    def lo(self) -> float:
        return float(self.breakpoints[0])

    @property
    def hi(self) -> float:
        return float(self.breakpoints[-1])

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        """The piece of each x: the first left of lo, the last right of hi."""
        return self.breakpoints[1:-1].searchsorted(x, side="right")

    def _locate(self, x):
        """x clamped to hi, its offset in its piece and that piece's
        coefficients; x beyond the last breakpoint is rejected."""
        xa = np.asarray(x, dtype=float)
        span = self.hi - self.lo
        if (xa > self.hi + 1e-12 * span).any():
            raise ValueError("evaluation beyond the last breakpoint")
        xa = np.minimum(xa, self.hi)
        idx = self._piece_index(xa)
        return xa, xa - self.breakpoints[idx], self.coeffs[idx]

    def value(self, x):
        """Evaluate at x (scalar or array); x beyond the last breakpoint is rejected."""
        xa, dx, c = self._locate(x)
        out = ((c[..., 3] * dx + c[..., 2]) * dx + c[..., 1]) * dx + c[..., 0]
        out = np.where(xa <= self.lo, self.left_tail, out)
        return out if isinstance(x, np.ndarray) else float(out)

    def derivative_value(self, x):
        """Piecewise derivative; zero on the left tail, right-piece at breakpoints,
        and like ``value`` rejected beyond the last breakpoint."""
        xa, dx, c = self._locate(x)
        out = (3.0 * c[..., 3] * dx + 2.0 * c[..., 2]) * dx + c[..., 1]
        out = np.where(xa < self.lo, 0.0, out)
        return out if isinstance(x, np.ndarray) else float(out)

    def fingerprint(self) -> tuple:
        """Hashable identity used to key solver caches."""
        return (self.left_tail, self.breakpoints.tobytes(), self.coeffs.tobytes())

    def derivative_pieces(self):
        """Yield (tau_lo, tau_hi, dcoeffs) of the derivative on each piece."""
        k = np.arange(1, MAX_DEGREE + 1)
        for j in range(self.coeffs.shape[0]):
            yield (
                float(self.breakpoints[j]),
                float(self.breakpoints[j + 1]),
                self.coeffs[j, 1:] * k,
            )
