"""Recovering the counting parameter from an observed integral value.

Four complementary strategies, all returning the smallest qualifying index
when several rows fit:

* threshold: first table row whose integral magnitude drops below epsilon,
  the pure "how deep is the cancellation" reading.
* table scan / table binary: first row whose value lies within epsilon of an
  observed target.  The two differ only in their method tag, which for
  binary also reports whether the table alternates.
* spline: continuous inversion of the tabulated map.
* analytic local: exact inversion of one linear segment of the fractional
  map.

When each parity class of a table's rows is monotone, not necessarily
strictly, the threshold and table searches all bisect the two classes,
O(log n); a table with a class that turns is scanned, O(n).  The bisection
runs in C, as ``bisect`` for the level target -/+ epsilon over the
memoryview of each strided class that the table wrapped once, when it was
built.  Rounding of that level can move the result by a row, so the scan's
own gap test is then applied at the boundary it found, and a bisection
keyed on that test finishes the search when the boundary fails it.  Every
path answers exactly as the scan would.

A failed search returns ``None``; it is an expected outcome, not an error.
"""

from __future__ import annotations

import bisect
import operator
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._validate import check_int, check_nonnegative, check_positive, check_real
from .coefficients import _check_row_count, coefficient, partial_sum
from .encoder import EncoderConfig
from .integral_map import IntegralTable, area_scale
from .interp import find_root_bracketed, spline_derivative, spline_eval, spline_fit

__all__ = [
    "RecoveryMethod",
    "RecoveryResult",
    "recover_threshold",
    "recover_match",
    "recover_binary",
    "recover_spline",
    "recover_analytic_fractional",
    "noise_sweep",
    "DEFAULT_STABILITY_EPSILON",
]

# Below this slope magnitude |dI/dN| a spline or fractional-segment inversion
# is too flat to trust; results are still returned but flagged.
DEFAULT_STABILITY_EPSILON = 1e-6

# Draws noise_sweep makes and decides at once: about seven arrays of this
# many elements, about 4 MiB, are alive per block.
_SWEEP_BLOCK_DRAWS = 1 << 16


class RecoveryMethod(str, Enum):
    THRESHOLD = "threshold"
    TABLE_SCAN = "table-scan"
    TABLE_BINARY = "table-binary"
    SPLINE = "spline"
    ANALYTIC_LOCAL = "analytic-local"


class RecoveryResult(NamedTuple):
    """Outcome of a successful recovery, an immutable named tuple.

    ``n`` is an exact integer for the table-driven methods and a real number
    for the spline and analytic ones.  ``residual`` is the distance left
    between the achieved integral value and the request.  ``stable`` is a
    method-specific robustness verdict: for table methods the residual fits
    inside half the tolerance (so a further perturbation below epsilon/2
    cannot invalidate the match), for the continuous methods the local slope
    is bounded away from zero.
    """

    n: float
    residual: float
    method: RecoveryMethod
    stable: bool

    @property
    def nearest_integer(self) -> int:
        """Rounded integer candidate for the continuous methods."""
        return int(round(self.n))


def _first_within(table: IntegralTable, target: float, epsilon: float) -> int | None:
    """Index of the first row with abs(value - target) < epsilon, or None.

    On a table whose parity classes are monotone (``class_rising`` is not
    ``None``), rounding is monotone too, so the float gap fl(value - target)
    never falls along a rising class, and fl(target - value), which is
    exactly its negation, never falls along a falling one.  A class's
    qualifying rows therefore form one run, flat stretches included, whose
    start is the first row with gap > -epsilon.

    Each class is searched in C: ``bisect`` over the memoryview of the
    strided view ``values[start::2]`` that the table keeps from its
    construction (no copy; its items are Python floats with the array's
    bits) for the rounded level target - epsilon, or target + epsilon on a
    falling class.  That hint j can sit a row off the scan's boundary,
    because fl(target -/+ epsilon) rounds, so the scan's own gap test
    proves it: gap(row j) > -epsilon and not gap(row j - 1) > -epsilon, with
    the gap monotone, make j the first such row.  When a test fails, a
    bisection keyed on the gap finishes the search on the side that test
    names.  The final test is the scan's ``gap < epsilon``,
    so the answer is the scan's bit for bit, in O(log n); the smaller index
    of the two classes is kept as they are searched.  Other tables are
    scanned, O(n).
    """
    classes = table._classes
    if classes is None:
        hits = np.flatnonzero(np.abs(table.values - target) < epsilon)
        return int(hits[0]) if hits.size else None
    first = None
    for start, rows, rising in classes:
        if rising:
            gap = target.__rsub__  # v - target
            j = bisect.bisect_right(rows, target - epsilon)
        else:
            gap = target.__sub__  # target - v
            j = bisect.bisect_right(rows, -(target + epsilon), key=operator.neg)
        if j < len(rows) and not gap(rows[j]) > -epsilon:
            j = bisect.bisect_right(rows, -epsilon, lo=j + 1, key=gap)
        elif j > 0 and gap(rows[j - 1]) > -epsilon:
            j = bisect.bisect_right(rows, -epsilon, hi=j - 1, key=gap)
        if j < len(rows) and gap(rows[j]) < epsilon:
            i = start + 2 * j
            if first is None or i < first:
                first = i
    return first


def _recover_row(
    table: IntegralTable, target: float, epsilon: float, method: RecoveryMethod
) -> RecoveryResult | None:
    """Validate, search and report the first row within ``epsilon`` of ``target``."""
    target = check_real("target", target)
    epsilon = check_positive("epsilon", epsilon)
    i = _first_within(table, target, epsilon)
    if i is None:
        return None
    residual = abs(table.values.item(i) - target)
    return RecoveryResult(i + 1, residual, method, residual < epsilon / 2.0)


def recover_threshold(table: IntegralTable, epsilon: float) -> RecoveryResult | None:
    """Smallest tabulated N with |I(N)| < epsilon, or None.

    Cost: the search of :func:`recover_match` aimed at zero, so O(log n) on
    a table whose parity classes are monotone and O(n) on any other.
    """
    return _recover_row(table, 0.0, epsilon, RecoveryMethod.THRESHOLD)


def recover_match(
    table: IntegralTable, target: float, epsilon: float
) -> RecoveryResult | None:
    """Smallest tabulated N with |I(N) - target| < epsilon, or None.

    Cost: O(log n) when each parity class of the rows is monotone
    (``table.class_rising`` is not ``None``): one C-level ``bisect`` per
    class over the memoryview of its strided view that the table built
    once, whose boundary the scan's own gap test then proves.  A linear
    scan, O(n), on other tables.  Either way the result is the scan's, and
    the method tag is table-scan.
    """
    return _recover_row(table, target, epsilon, RecoveryMethod.TABLE_SCAN)


def recover_binary(
    table: IntegralTable, target: float, epsilon: float
) -> RecoveryResult | None:
    """Same answer as :func:`recover_match`, by the same search.

    Cost: O(log n) when each parity class of the rows is monotone, O(n)
    otherwise.  Within a monotone class the rows matching the target form
    one contiguous run, so the earliest match per class is one C-level
    ``bisect`` away, over the memoryview of ``values[0::2]`` or
    ``values[1::2]`` that the table wrapped once, when it was built, plus
    the scan's gap test at the boundary; the overall answer is the earlier
    of the two class results.

    The method tag is table-binary only on a table that alternates in sign
    under a shrinking magnitude envelope (``supports_binary``); on any
    other table it is table-scan.
    """
    method = RecoveryMethod.TABLE_BINARY if table.supports_binary else RecoveryMethod.TABLE_SCAN
    return _recover_row(table, target, epsilon, method)


def recover_spline(
    table: IntegralTable,
    target: float,
    tol: float = 1e-9,
) -> RecoveryResult | None:
    """Continuous inversion of the tabulated map through a cubic spline.

    A knot whose tabulated value already matches the target within ``tol``
    is returned directly, with its residual read from the table (the curve
    also crosses most levels much earlier, in the steep first interval, so
    without this pass an exactly tabulated value would be shadowed by that
    crossing).  Otherwise the first sign-change interval of (spline -
    target), scanning left to right, is rooted to ``tol``.  With neither a
    knot nor a sign change, the result is ``None`` and no spline is fitted.

    Stability means the spline's slope |dI/dN| at the result exceeds
    ``DEFAULT_STABILITY_EPSILON``, so the inversion is locally well conditioned.

    Raises:
        ValueError: a table of fewer than 3 rows, which no spline fits,
            whatever the target.
    """
    target = check_real("target", target)
    tol = check_positive("tol", tol)
    if table.n_max < 3:
        raise ValueError(f"spline recovery needs at least 3 rows, got {table.n_max}")
    gap = table.values - target
    knot_hits = np.flatnonzero(np.abs(gap) <= tol)
    brackets = np.flatnonzero(gap[:-1] * gap[1:] < 0.0)
    if knot_hits.size == 0 and brackets.size == 0:
        return None
    spline = spline_fit(table.values)
    if knot_hits.size:
        n_star = float(knot_hits[0] + 1)
        residual = abs(gap[knot_hits[0]])
    else:
        i = int(brackets[0])
        n_star = find_root_bracketed(
            lambda x: spline_eval(spline, x) - target,
            float(i + 1),
            float(i + 2),
            tol,
        )
        residual = abs(spline_eval(spline, n_star) - target)
    slope = spline_derivative(spline, n_star)
    return RecoveryResult(
        n=n_star,
        residual=float(residual),
        method=RecoveryMethod.SPLINE,
        stable=bool(abs(slope) > DEFAULT_STABILITY_EPSILON),
    )


def recover_analytic_fractional(
    config: EncoderConfig,
    target: float,
    segment: int,
) -> RecoveryResult:
    """Invert one linear segment of the fractional map exactly.

    On [k, k+1] the fractional map is the line I(N) = I(k) + (N - k) *
    scale * a_(k+1), so a target inside the segment's value range maps back
    to N in closed form.  Only the family and width of ``config`` matter
    here; its transition is not consulted.  The result is stable when the
    slope |dI/dN| = |scale * a_(k+1)| exceeds ``DEFAULT_STABILITY_EPSILON``.

    Args:
        config: supplies the coefficient family and bump width.
        target: observed integral value, must lie within the segment's
            closed value range.
        segment: the integer k naming the segment [k, k+1], k >= 0.

    Raises:
        TypeError: ``segment`` is not an integer, or a real is not a number.
        ValueError: ``segment`` < 0, a target non-finite or outside the segment's
            range, or a slope coefficient of exactly zero (no inverse exists).
    """
    target = check_real("target", target)
    k = check_int("segment", segment, 0)
    scale = area_scale(config.delta)
    slope_coeff = coefficient(config.family, k + 1)
    if slope_coeff == 0.0:
        raise ValueError(f"segment [{k}, {k + 1}] has zero slope; inversion is singular")
    i_lo = scale * partial_sum(config.family, k)
    i_hi = i_lo + scale * slope_coeff
    if not (min(i_lo, i_hi) <= target <= max(i_lo, i_hi)):
        raise ValueError(
            f"target {target!r} outside segment [{k}, {k + 1}] value range "
            f"[{min(i_lo, i_hi)}, {max(i_lo, i_hi)}]"
        )
    n_star = k + (target - i_lo) / (scale * slope_coeff)
    achieved = i_lo + (n_star - k) * scale * slope_coeff
    return RecoveryResult(
        n=float(n_star),
        residual=float(abs(achieved - target)),
        method=RecoveryMethod.ANALYTIC_LOCAL,
        stable=bool(abs(scale * slope_coeff) > DEFAULT_STABILITY_EPSILON),
    )


def noise_sweep(
    table: IntegralTable,
    true_n: int,
    epsilon: float,
    amplitudes,
    trials: int = 100,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Exact-recovery rate of :func:`recover_match` under uniform noise.

    For each amplitude A, ``trials`` perturbations are drawn uniformly from
    [-A, A], added to the true row value, and pushed through the matcher;
    the reported accuracy is the fraction of draws recovering exactly
    ``true_n``.  Draws come from one seeded generator consumed in argument
    order, so a (seed, amplitudes, trials) triple always reproduces the
    same stream.

    The draws of an amplitude are made and decided in vectorized blocks of
    ``_SWEEP_BLOCK_DRAWS``, on every table, alternating or not.  Consecutive
    draws continue one stream, so the block size changes no result, and
    memory stays one block's worth at any ``trials``.  A draw recovers
    ``true_n`` when row ``true_n`` matches and no earlier row does.
    fl(value - target) is monotone in the value, so if any earlier row
    matches, one of the target's two neighbours among the sorted earlier
    rows does; checking those two takes one ``searchsorted`` per block.  Cost: one
    O(n log n) sort per call plus O(trials log n) per amplitude, the same
    on ``supports_binary`` tables and others.

    Returns:
        List of (amplitude, accuracy) pairs in input order.

    Raises:
        TypeError: ``true_n``, ``trials`` or ``seed`` is not an integer, or a real is not a number.
        ValueError: ``true_n`` off the table, ``trials`` < 1 or over ``MAX_ROWS``,
            ``seed`` < 0, or a bad real.
    """
    epsilon = check_positive("epsilon", epsilon)
    true_value = table.value_at(true_n)
    trials = _check_row_count("trials", check_int("trials", trials, 1))
    seed = check_int("seed", seed, 0)
    amplitudes = [check_nonnegative("noise amplitude", a) for a in amplitudes]
    earlier = np.sort(table.values[: true_n - 1])
    rng = np.random.default_rng(seed)
    results = []
    for amplitude in amplitudes:
        hit_count = 0
        for start in range(0, trials, _SWEEP_BLOCK_DRAWS):
            draws = min(_SWEEP_BLOCK_DRAWS, trials - start)
            targets = true_value + rng.uniform(-amplitude, amplitude, draws)
            hits = np.abs(true_value - targets) < epsilon
            if earlier.size:
                above = np.minimum(np.searchsorted(earlier, targets), earlier.size - 1)
                below = np.maximum(above - 1, 0)
                for neighbour in (earlier[below], earlier[above]):
                    hits &= ~(np.abs(neighbour - targets) < epsilon)
            hit_count += int(np.count_nonzero(hits))
        results.append((amplitude, hit_count / trials))
    return results
