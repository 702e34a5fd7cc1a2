"""Transition functions that gate the Gaussian bumps on and off."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import check_positive

__all__ = [
    "Sigmoid",
    "Smoothstep",
    "Heaviside",
    "TransitionFunction",
]


# ---------------------------------------------------------------------------
# Transition functions: all map the real line onto [0, 1], equal 1 far to the
# left, 0 far to the right, so sigma(n - N) switches bump n on once N passes n.
# Past x = ``reach`` a weight is below 2^-56 (a sixteenth of an ulp of 1) or
# exactly 0, so a smooth series ends at the last center within reach of N.
# ---------------------------------------------------------------------------


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _scalar_or_array(x, out: np.ndarray):
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class Sigmoid:
    """Decreasing logistic step: sigma(x) = 1 / (1 + exp(sharpness * x)).

    sigma(0) = 1/2 exactly, and the step steepens as ``sharpness`` grows.
    """

    sharpness: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sharpness", check_positive("sharpness", self.sharpness))

    @property
    def reach(self) -> float:
        """56 ln 2 / sharpness: past it sigma(x) < exp(-sharpness * x) < 2^-56."""
        return 56.0 * math.log(2.0) / self.sharpness

    def __call__(self, x):
        u = self.sharpness * _as_float_array(x)
        # exp of a non-positive argument only, so large |x| cannot overflow
        e = np.exp(-np.abs(u))
        out = np.where(u <= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        return _scalar_or_array(x, out)

    def derivative(self, x):
        """d sigma / dx = -sharpness * sigma * (1 - sigma), available in closed form."""
        s = self.__call__(_as_float_array(x))
        out = -self.sharpness * s * (1.0 - s)
        return _scalar_or_array(x, out)


@dataclass(frozen=True)
class Smoothstep:
    """Cubic ramp from 1 down to 0 across [-halfwidth, +halfwidth].

    Continuously differentiable everywhere: the slope is zero at both ends
    of the ramp, and the function is constant outside it.
    """

    halfwidth: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "halfwidth", check_positive("halfwidth", self.halfwidth))

    @property
    def reach(self) -> float:
        """The halfwidth: the ramp ends there and the weight is exactly 0 past it."""
        return self.halfwidth

    def __call__(self, x):
        u = (_as_float_array(x) + self.halfwidth) / (2.0 * self.halfwidth)
        u = np.clip(u, 0.0, 1.0)
        out = 1.0 - u * u * (3.0 - 2.0 * u)
        return _scalar_or_array(x, out)


@dataclass(frozen=True)
class Heaviside:
    """Hard step: 1 for x <= 0, 0 for x > 0.

    The value at exactly 0 is 1 so that at integer N the gated sum picks up
    bumps 1..N inclusive, and the smooth bump train equals the discrete one
    bit for bit.  The smooth integral sums its terms in another order than
    the discrete one, so it may differ from it in the last bits.
    """

    reach = 0.0  # the weight is exactly 0 for every x > 0

    def __call__(self, x):
        out = np.where(_as_float_array(x) <= 0.0, 1.0, 0.0)
        return _scalar_or_array(x, out)


TransitionFunction = Sigmoid | Smoothstep | Heaviside
