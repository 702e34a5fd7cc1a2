"""Natural cubic spline interpolation and bracketed root finding.

These are the numerical workhorses behind continuous table inversion:
a spline turns the integer-indexed table into a curve, and the root finder
pins down where that curve crosses a target level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._validate import check_positive, check_real

__all__ = ["CubicSpline", "spline_fit", "spline_eval", "spline_derivative", "find_root_bracketed"]

_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class CubicSpline:
    """Piecewise cubic with natural ends (second derivative zero there).

    ``coefficients[i]`` holds (a, b, c, d) for interval i, evaluated as
    a + b*u + c*u^2 + d*u^3 with u = x - knots[i].
    """

    knots: np.ndarray
    coefficients: np.ndarray


def spline_fit(points) -> CubicSpline:
    """Fit a natural cubic spline through ``points``.

    Args:
        points: sequence of (x, y) pairs with strictly increasing x,
            at least 3 of them.

    Raises:
        ValueError: fewer than 3 points or x not strictly increasing.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (x, y) pairs")
    if pts.shape[0] < 3:
        raise ValueError(f"need at least 3 points, got {pts.shape[0]}")
    x, y = pts[:, 0], pts[:, 1]
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    h = np.diff(x)
    if np.any(h <= 0.0):
        raise ValueError("x values must be strictly increasing")

    # Solve the tridiagonal moment system for the interior second
    # derivatives; natural ends pin m[0] = m[-1] = 0.
    n = x.size
    m = np.zeros(n)
    k = n - 2
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    diag = 2.0 * (h[:-1] + h[1:])
    upper = h[1:].copy()
    lower = h[:-1].copy()
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    m[k] = dp[k - 1]
    for i in range(k - 2, -1, -1):
        m[i + 1] = dp[i] - cp[i] * m[i + 2]

    a = y[:-1]
    b = (y[1:] - y[:-1]) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = m[:-1] / 2.0
    d = (m[1:] - m[:-1]) / (6.0 * h)
    return CubicSpline(knots=x, coefficients=np.column_stack([a, b, c, d]))


def _locate(spline: CubicSpline, x: float) -> tuple[int, float]:
    """Interval index of ``x`` and the offset of ``x`` into that interval."""
    x = check_real("x", x)
    knots = spline.knots
    if x < knots[0] or x > knots[-1]:
        raise ValueError(
            f"{x!r} is outside the knot range [{knots[0]}, {knots[-1]}]; "
            "extrapolation is refused"
        )
    i = int(np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2))
    return i, x - knots[i]


def spline_eval(spline: CubicSpline, x: float) -> float:
    """Evaluate the spline at ``x``; points outside the knot range raise."""
    i, u = _locate(spline, x)
    a, b, c, d = spline.coefficients[i]
    return float(((d * u + c) * u + b) * u + a)


def spline_derivative(spline: CubicSpline, x: float) -> float:
    """First derivative of the spline at ``x`` (same domain rules as eval)."""
    i, u = _locate(spline, x)
    _, b, c, d = spline.coefficients[i]
    return float((3.0 * d * u + 2.0 * c) * u + b)


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Root of ``f`` inside [lo, hi], which must bracket a sign change.

    Secant steps give fast local convergence; every other iteration falls
    back to bisection, so the bracket provably halves at least each second
    step and convergence never stalls.  Stops once |f(x)| <= tol or the
    bracket is narrower than tol.

    Raises:
        TypeError: a real is not a number.
        ValueError: a non-finite real, lo >= hi, ``tol`` <= 0, f(lo) and f(hi)
            of one sign, or ``_MAX_ITERATIONS`` steps leave the root unisolated.
    """
    lo, hi = check_real("lo", lo), check_real("hi", hi)
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    tol = check_positive("tol", tol)
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change over [{lo}, {hi}]: f spans {f_lo} to {f_hi}")
    for iteration in range(_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        x = mid
        if iteration % 2 == 0:
            denom = f_hi - f_lo
            if denom != 0.0:
                secant = hi - f_hi * (hi - lo) / denom
                if lo < secant < hi:
                    x = secant
        f_x = f(x)
        if abs(f_x) <= tol:
            return x
        if (f_x > 0.0) == (f_hi > 0.0):
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x
    raise ValueError(f"root not isolated to tol={tol} within {_MAX_ITERATIONS} iterations")
