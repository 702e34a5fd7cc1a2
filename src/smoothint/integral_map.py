"""The integral map: total area under the bump train as a function of N.

Each bump integrates to (amplitude * delta * sqrt(2 pi)) regardless of where
it sits and of how bumps overlap, so the area under the whole train is the
scaled running coefficient sum

    I(N) = delta * sqrt(2 pi) * S(N)

at a whole N, with the interpolated and the smoothly gated trains replacing
S(N) by their weighted variants.  Because S(N) drifts toward zero while
alternating, I(N) encodes N as the depth of a near-cancellation, and the
table type here is the lookup structure every recovery strategy consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._validate import check_int, check_nonnegative, check_positive, check_real
from .bumps import Sigmoid
from .coefficients import CoefficientFamily, _check_row_count, coefficient, partial_sum, partial_sums
from .encoder import EncoderConfig, _accumulate, smooth_cutoff

__all__ = [
    "IntegralTable",
    "integral_closed",
    "integral_quadrature",
    "build_table",
    "map_derivative_smooth",
    "area_scale",
]

# Quadrature domains must extend this many widths past the outermost bump
# centers; the mass cut off beyond 5 widths is under 3e-7 of one bump.
_DOMAIN_MARGIN_WIDTHS = 5.0

# Minimum sample density (points per unit length) for the trapezoid rule to
# be comfortably inside the closed-form agreement tolerance.
_MIN_POINTS_PER_UNIT = 100.0


def area_scale(delta: float) -> float:
    """Area of one unit-amplitude bump of width ``delta`` > 0: delta * sqrt(2 pi)."""
    return check_positive("delta", delta) * math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class IntegralTable:
    """Tabulated integral map I(N) for N = 1..n_max, no gaps.

    Row i of ``values`` holds I(i + 1); ``n_max`` is derived from it.
    ``family`` and ``delta`` may be ``None`` for tables loaded from files
    that carry no provenance (the CSV form); such tables remain fully usable
    for recovery, which only reads the rows.

    The constructor trusts its caller's values: only their finiteness is
    checked here.  :func:`build_table` computes them from the closed form,
    and :func:`~smoothint.tableio.load_table` checks what it reads before
    constructing a table.  Tables compare and hash by identity.

    The search structure is derived from the rows once, at construction, in
    one comparison pass over each parity class ``values[0::2]`` and
    ``values[1::2]``.  Each class takes its direction from its end values
    (rising when ``c[0] <= c[-1]``) and must be monotone, not necessarily
    strictly, in that direction.  When every class is, the table keeps, per
    non-empty class, its first row index, a memoryview of its strided view
    (no copy) and its direction; recovery bisects those views, O(log n),
    with nothing sliced or wrapped per call.  When a class turns, it keeps
    ``None`` and recovery scans, O(n).  ``class_rising`` reads the
    directions off that structure, or is ``None`` with it.

    ``supports_binary`` narrows this to the tables the binary method is
    named for: the signs strictly alternate and each class shrinks in
    magnitude.  It follows from the directions and each class's end values.

    A pickled or copied table holds only its three init fields; the copy
    derives its own search structure when it is rebuilt.
    """

    delta: float | None
    family: CoefficientFamily | None
    values: np.ndarray
    _classes: tuple[tuple[int, memoryview, bool], ...] | None = field(init=False, repr=False)
    supports_binary: bool = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("table values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")
        classes = [values[start::2] for start in (0, 1) if start < values.size]
        rising = tuple(bool(c[0] <= c[-1]) for c in classes)
        monotone = all(
            np.all(c[1:] >= c[:-1]) if up else np.all(c[1:] <= c[:-1])
            for c, up in zip(classes, rising)
        )
        # A monotone class keeps one sign and shrinks in magnitude exactly
        # when it runs toward zero from its first row to a last row of that
        # sign; the signs of the two classes must then differ.
        signs = [
            1 if c[0] >= c[-1] > 0.0 else -1 if c[0] <= c[-1] < 0.0 else 0 for c in classes
        ]
        alternating = signs in ([1], [-1], [1, -1], [-1, 1])
        search = tuple(zip(range(len(classes)), map(memoryview, classes), rising))
        object.__setattr__(self, "_classes", search if monotone else None)
        object.__setattr__(self, "supports_binary", monotone and alternating)

    def __reduce__(self):
        return (IntegralTable, (self.delta, self.family, self.values))

    @property
    def class_rising(self) -> tuple[bool, ...] | None:
        """The direction of each non-empty parity class, ``None`` when a class turns."""
        if self._classes is None:
            return None
        return tuple(rising for _, _, rising in self._classes)

    @property
    def n_max(self) -> int:
        return len(self.values)

    def value_at(self, n: int) -> float:
        """I(n) for a tabulated n, raising if n is outside 1..n_max."""
        if check_int("row", n, 1) > self.n_max:
            raise ValueError(f"row {n} outside table range 1..{self.n_max}")
        return float(self.values[n - 1])


def integral_closed(config: EncoderConfig, n_value: float) -> float:
    """Exact area under the bump train, by linearity of the integral.

    Without a transition: scale * S(N) at a whole N, and scale * (S(floor(N))
    + frac * a_(floor(N)+1)) otherwise.  With one: scale times the
    transition-weighted coefficient sum through
    :func:`~smoothint.encoder.smooth_cutoff`.
    """
    if config.transition is not None:
        return _smooth_integrals(config, [check_nonnegative("n_value", n_value)])[0]
    scale = area_scale(config.delta)
    # N > MAX_ROWS is where term_weights refuses its floor(N) rows, or
    # floor(N) + 1 at a fractional N
    n_value = _check_row_count("n_value", check_nonnegative("n_value", n_value))
    k = math.floor(n_value)
    frac = n_value - k
    if frac == 0.0:
        return scale * partial_sum(config.family, k)
    return scale * (partial_sum(config.family, k) + frac * coefficient(config.family, k + 1))


def _smooth_integrals(config: EncoderConfig, xs: list[float]) -> list[float]:
    """The smooth map at each float of ``xs``, under the transition of ``config``.

    The coefficients are evaluated once, through the largest
    :func:`~smoothint.encoder.smooth_cutoff`; each point dots the weights of
    its own terms 1..cutoff with their prefix.  Every point's cutoff is
    checked, in order, before any is summed.  A point's value has the bits
    of a call on that point alone, which is how :func:`integral_closed`
    evaluates it.
    """
    cutoffs = [smooth_cutoff(config, x) for x in xs]
    ns = np.arange(1, max(cutoffs, default=0) + 1)
    coeffs = config.family.coefficients(ns)
    scale = area_scale(config.delta)
    return [
        scale * float(np.dot(np.asarray(config.transition(ns[:cutoff] - x), dtype=float), coeffs[:cutoff]))
        for x, cutoff in zip(xs, cutoffs)
    ]


def build_table(config: EncoderConfig, n_max: int) -> IntegralTable:
    """Tabulate I(N) for N = 1..n_max under a configuration without a transition.

    Raises:
        TypeError: ``n_max`` is not an integer.
        ValueError: a configuration with a transition, ``n_max`` < 1, or over ``MAX_ROWS`` rows.
    """
    if config.transition is not None:
        raise ValueError("tables are built from configurations without a transition")
    values = partial_sums(config.family, n_max)
    values *= area_scale(config.delta)  # in place: a scaled copy would double the peak
    return IntegralTable(delta=config.delta, family=config.family, values=values)


def integral_quadrature(
    config: EncoderConfig,
    n_value: float,
    t_min: float,
    t_max: float,
    points: int,
) -> float:
    """Trapezoid-rule area under the bump train over [t_min, t_max].

    The closed form is exact, so this exists as an independent cross-check.
    To keep the result within 1e-6 of the closed form the sample grid must
    be dense enough and the domain must reach 5 widths past the outermost
    bumps with weight (with a transition, the last one within its reach);
    violations raise instead of silently returning an imprecise value.

    Args:
        config: encoder configuration.
        n_value: counting parameter.
        t_min, t_max: integration limits, t_min < t_max.
        points: trapezoid sample count, at least 100 per unit of length, at most ``MAX_ROWS``.

    Raises:
        TypeError: ``points`` is not an integer, or a real is not a number.
        ValueError: a non-finite real, t_min >= t_max, too few or too many ``points``, or a truncated domain.
    """
    n_value = check_nonnegative("n_value", n_value)
    t_min, t_max = check_real("t_min", t_min), check_real("t_max", t_max)
    if t_min >= t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min!r}, {t_max!r}]")
    points = _check_row_count("points", check_int("points", points, 2))
    if points < _MIN_POINTS_PER_UNIT * (t_max - t_min):
        raise ValueError(
            f"{points} points is too sparse for [{t_min}, {t_max}]; "
            f"need at least {_MIN_POINTS_PER_UNIT:g} per unit length"
        )
    last_weighted = math.ceil(n_value) if config.transition is None else smooth_cutoff(config, n_value)
    if last_weighted >= 1:
        margin = _DOMAIN_MARGIN_WIDTHS * config.delta
        need_lo, need_hi = 1 - margin, last_weighted + margin
        if t_min > need_lo or t_max < need_hi:
            raise ValueError(
                f"domain [{t_min}, {t_max}] truncates the bump train; "
                f"need at least [{need_lo:g}, {need_hi:g}]"
            )
    ts = np.linspace(t_min, t_max, points)
    return float(np.trapezoid(_accumulate(config, n_value, ts), ts))


def map_derivative_smooth(config: EncoderConfig, n_value: float) -> float:
    """d I(N) / d N for the smooth map with a logistic transition.

    Each term's weight sigma(n - N) gains sharpness * sigma * (1 - sigma)
    per unit increase of N, so the derivative is the scaled coefficient sum
    with those factors.  Only the logistic transition has this closed form;
    other transitions raise.
    """
    if not isinstance(config.transition, Sigmoid):
        raise ValueError("derivative requires a Sigmoid transition")
    n_value = check_nonnegative("n_value", n_value)
    ns = np.arange(1, smooth_cutoff(config, n_value) + 1)
    # d/dN sigma(n - N) is minus the x-derivative at x = n - N
    gain = -config.transition.derivative(ns - n_value)
    coeffs = config.family.coefficients(ns)
    return area_scale(config.delta) * float(np.dot(coeffs, gain))
