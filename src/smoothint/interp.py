"""Natural cubic spline through a table's rows, and bracketed root finding.

These are the numerical workhorses behind continuous table inversion:
a spline turns the integer-indexed table into a curve, and the root finder
pins down where that curve crosses a target level.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from ._validate import check_positive, check_real

__all__ = ["spline_fit", "spline_eval", "spline_derivative", "find_root_bracketed"]


def spline_fit(values) -> np.ndarray:
    """Natural cubic spline through (n, values[n-1]) for n = 1..len(values).

    Returns the (len(values) - 1) x 4 array whose row i holds (a, b, c, d)
    for the interval [i + 1, i + 2], evaluated as a + b*u + c*u^2 + d*u^3
    with u = x - (i + 1); the second derivative is zero at both ends.

    Raises:
        ValueError: values not 1-D, fewer than 3 of them, or not all finite.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {y.shape}")
    if y.size < 3:
        raise ValueError(f"need at least 3 points, got {y.size}")
    if not np.all(np.isfinite(y)):
        raise ValueError("values must be finite")

    # Solve the tridiagonal moment system for the interior second
    # derivatives; natural ends pin m[0] = m[-1] = 0.  With unit knot
    # spacing every row of the system is (1, 4, 1).
    m = np.zeros(y.size)
    k = y.size - 2
    rhs = 6.0 * ((y[2:] - y[1:-1]) - (y[1:-1] - y[:-2]))
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = 0.25
    dp[0] = rhs[0] / 4.0
    for i in range(1, k):
        denom = 4.0 - cp[i - 1]
        cp[i] = 1.0 / denom
        dp[i] = (rhs[i] - dp[i - 1]) / denom
    m[k] = dp[k - 1]
    for i in range(k - 2, -1, -1):
        m[i + 1] = dp[i] - cp[i] * m[i + 2]

    a = y[:-1]
    b = (y[1:] - y[:-1]) - (2.0 * m[:-1] + m[1:]) / 6.0
    c = m[:-1] / 2.0
    d = (m[1:] - m[:-1]) / 6.0
    return np.column_stack([a, b, c, d])


def _locate(coefficients: np.ndarray, x: float) -> tuple[int, float]:
    """Interval index of ``x`` and the offset of ``x`` into that interval."""
    x = check_real("x", x)
    intervals = coefficients.shape[0]
    if not 1.0 <= x <= intervals + 1:
        raise ValueError(
            f"{x!r} is outside the knot range [1, {intervals + 1}]; extrapolation is refused"
        )
    i = min(int(x), intervals) - 1
    return i, x - (i + 1)


def spline_eval(coefficients: np.ndarray, x: float) -> float:
    """Evaluate the spline at ``x``; points outside the knot range raise."""
    i, u = _locate(coefficients, x)
    a, b, c, d = coefficients[i]
    return float(((d * u + c) * u + b) * u + a)


def spline_derivative(coefficients: np.ndarray, x: float) -> float:
    """First derivative of the spline at ``x`` (same domain rules as eval)."""
    i, u = _locate(coefficients, x)
    _, b, c, d = coefficients[i]
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
    step and convergence never stalls.  Stops once |f(x)| <= tol, or at the
    bracket's midpoint once the bracket is narrower than tol or is two
    adjacent floats (a ``tol`` finer than the float spacing near the root).

    Raises:
        TypeError: a real is not a number.
        ValueError: a non-finite real, lo >= hi, ``tol`` <= 0, or f(lo) and
            f(hi) of one sign.
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
    for iteration in itertools.count():
        mid = 0.5 * (lo + hi)
        if math.isinf(mid):  # lo + hi overflowed; the halves cannot
            mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= tol or mid == lo or mid == hi:
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
