"""Bump-train evaluation: a counting parameter N selects how many bumps fire.

The encoder places one Gaussian bump at each positive integer center n with
amplitude a_n and a shared width.  A configuration's transition decides how
the counting parameter N, any real >= 0, weights the bumps:

* without a transition, bumps 1..floor(N) fire fully and bump floor(N)+1
  fires scaled by the fractional part, so a whole N fires exactly bumps 1..N
  and the train interpolates linearly between consecutive whole N.
* with a transition, every bump n fires, weighted by the transition evaluated
  at (n - N), so the whole train is a smooth function of N.  The series ends
  at :func:`smooth_cutoff`, floor(N + reach): past the transition's reach a
  weight is below 2^-56 (sigmoid) or exactly 0 (smoothstep, Heaviside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import check_int, check_nonnegative, check_positive, check_real
from .bumps import TransitionFunction
from .coefficients import MAX_ROWS, CoefficientFamily, _check_family, _check_row_count

__all__ = ["EncoderConfig", "counter_eval", "counter_grid", "smooth_cutoff", "term_weights"]

# A bump further than this many widths from t is worth at most exp(-128),
# about 2.6e-56, of its amplitude there, and under 2e-57 of its area lies that
# far out; both are below every tolerance in the package, so it is skipped.
_CUTOFF_WIDTHS = 16.0


@dataclass(frozen=True)
class EncoderConfig:
    """Everything needed to evaluate the bump train.

    Args:
        family: coefficient family supplying the bump amplitudes.
        delta: shared bump width, > 0.
        transition: the smooth gate, a ``Sigmoid``, ``Smoothstep`` or
            ``Heaviside``, or ``None`` for the linearly interpolated train;
            see the module docstring.  Its ``reach`` decides where the smooth
            series ends, see :func:`smooth_cutoff`.
    """

    family: CoefficientFamily
    delta: float = 0.2
    transition: TransitionFunction | None = None

    def __post_init__(self) -> None:
        _check_family(self.family)
        check_positive("delta", self.delta)
        if self.transition is not None and not isinstance(self.transition, TransitionFunction):
            raise TypeError(f"transition must be a Sigmoid, Smoothstep or Heaviside, got {self.transition!r}")


def smooth_cutoff(config: EncoderConfig, n_value: float) -> int:
    """Last bump index of a smooth evaluation at ``n_value``: floor(N + reach).

    Past the transition's reach every weight is below 2^-56 (``Sigmoid``) or
    exactly 0 (``Smoothstep``, ``Heaviside``); this is the one place the
    smooth series is cut.

    Raises:
        ValueError: a configuration without a transition, a bad ``n_value``,
            or a cutoff past ``MAX_ROWS``.
    """
    if config.transition is None:
        raise ValueError("the smooth cutoff needs a configuration with a transition")
    reach = config.transition.reach
    end = check_nonnegative("n_value", n_value) + reach
    if end > MAX_ROWS:  # checked before floor(), which an infinite reach would overflow
        raise ValueError(f"N={n_value!r} plus reach {reach:g} exceeds the limit of {MAX_ROWS} rows")
    return math.floor(end)


def term_weights(config: EncoderConfig, n_value: float) -> tuple[np.ndarray, np.ndarray]:
    """Bump indices and their weights for an evaluation at ``n_value``.

    Returns:
        ``(ns, weights)``: integer centers 1..n_hi and a weight in [0, 1]
        for each.  Without a transition the weights are 1, except a trailing
        fractional entry when ``n_value`` is not whole; with one they come
        from the transition function.

    Raises:
        ValueError: negative or non-finite ``n_value``, or more than
            ``coefficients.MAX_ROWS`` indices.
    """
    n_value = check_nonnegative("n_value", n_value)
    if config.transition is not None:
        ns = np.arange(1, smooth_cutoff(config, n_value) + 1)
        return ns, np.asarray(config.transition(ns - n_value), dtype=float)
    k = math.floor(n_value)
    frac = n_value - k
    rows = _check_row_count("rows", k if frac == 0.0 else k + 1)
    weights = np.ones(rows)
    if frac != 0.0:
        weights[-1] = frac
    return np.arange(1, rows + 1), weights


def _accumulate(config: EncoderConfig, n_value: float, ts: np.ndarray) -> np.ndarray:
    """Sum the weighted bump train over an ascending sample grid ``ts``.

    Terms are added in ascending center order, restricted per term to the
    window where the bump is not negligible, so a one-point grid reproduces
    the full-grid values bit for bit.
    """
    ns, weights = term_weights(config, n_value)
    out = np.zeros(ts.shape)
    if ns.size == 0:
        return out
    amplitudes = weights * config.family.coefficients(ns)
    window = _CUTOFF_WIDTHS * config.delta
    two_var = 2.0 * config.delta * config.delta
    for center, amp in zip(ns, amplitudes):
        if amp == 0.0:
            continue
        lo = np.searchsorted(ts, center - window, side="left")
        hi = np.searchsorted(ts, center + window, side="right")
        if lo >= hi:
            continue
        d = ts[lo:hi] - center
        out[lo:hi] += amp * np.exp(-(d * d) / two_var)
    return out


def counter_eval(config: EncoderConfig, n_value: float, t: float) -> float:
    """Value of the bump train at position ``t`` for counting parameter ``n_value``.

    Raises:
        ValueError: non-finite ``t``, or a negative or non-finite ``n_value``.
    """
    t = check_real("t", t)
    return float(_accumulate(config, n_value, np.array([t]))[0])


def counter_grid(
    config: EncoderConfig,
    n_value: float,
    t_min: float,
    t_max: float,
    points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the bump train on a uniform grid.

    Args:
        config: encoder configuration.
        n_value: counting parameter.
        t_min, t_max: inclusive sample range, t_min < t_max.
        points: number of samples, 2..``MAX_ROWS``.

    Returns:
        ``(ts, values)`` arrays of equal length; ``values[i]`` equals
        ``counter_eval(config, n_value, ts[i])`` exactly.

    Raises:
        TypeError: ``points`` is not an integer, or a real is not a number.
        ValueError: a non-finite real, t_min >= t_max, or ``points`` outside 2..``MAX_ROWS``.
    """
    t_min, t_max = check_real("t_min", t_min), check_real("t_max", t_max)
    if t_min >= t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min!r}, {t_max!r}]")
    ts = np.linspace(t_min, t_max, _check_row_count("points", check_int("points", points, 2)))
    return ts, _accumulate(config, n_value, ts)
