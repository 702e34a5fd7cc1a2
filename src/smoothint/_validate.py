"""The argument rule: ``TypeError`` for a wrong type, ``ValueError`` for a bad value.

Integers are ``int`` and ``np.integer``; reals are those plus ``float`` and
``np.floating``.  ``bool`` and ``str`` are neither, and a float is not an
integer even when it is whole.  Each check returns a plain ``int`` or ``float``.
"""

import math

import numpy as np


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an int, refusing non-integers and values below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    if type(value) is float:  # the common case, tested first to keep recovery calls cheap
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_real(name: str, value) -> float:
    """``value`` as a finite float."""
    value = _real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value) -> float:
    """``value`` as a finite float > 0."""
    value = _real(name, value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive real, got {value!r}")
    return value


def check_nonnegative(name: str, value) -> float:
    """``value`` as a finite float >= 0."""
    value = _real(name, value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a non-negative real, got {value!r}")
    return value
