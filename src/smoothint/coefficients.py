"""Alternating, decaying coefficient sequences and their partial sums.

Every encoder in this package is driven by a sequence ``a_n`` whose terms
alternate in sign while shrinking in magnitude, so the running sum keeps
crossing zero and settles toward it without reaching it at any finite n.
The distance of a partial sum from zero is what encodes an integer, so the
sequences here come with a certified bound on that distance.

Summation is plain left-to-right double precision accumulation.  That is a
deliberate choice: identical inputs must produce bit-identical sums across
every code path (tables, closed forms, file round trips), which compensated
or pairwise schemes would break.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from ._validate import check_int, check_real

__all__ = [
    "Canonical",
    "Generalized",
    "ExpPoly",
    "Trig",
    "CoefficientFamily",
    "FAMILIES",
    "MAX_ROWS",
    "coefficient",
    "partial_sum",
    "partial_sums",
    "tail_bound",
]


def _parity_signs(ns: np.ndarray) -> np.ndarray:
    return np.where(ns % 2 == 0, 1.0, -1.0)


# |alpha|^n below 2^-1100 is 2^25 times smaller than half the smallest
# subnormal (2^-1075), so it rounds to zero; the slack also absorbs the
# rounding of the logarithm that locates the horizon.
_UNDERFLOW_EXPONENT = 1100


def _geometric(alpha: float, ns: np.ndarray) -> np.ndarray:
    """``np.power(alpha, ns)``, bit for bit, without the calls that underflow.

    ``pow`` runs about ten times slower on a result that underflows than on
    a normal one, and past its horizon every term is such a zero.  Only the
    terms below the horizon are computed; the rest are the zeros ``pow``
    returns, signed like ``alpha^n``.
    """
    if alpha == 0.0:
        return np.power(alpha, ns)
    horizon = math.floor(_UNDERFLOW_EXPONENT / -math.log2(abs(alpha))) + 1
    if ns.max(initial=0) < horizon:
        return np.power(alpha, ns)
    live = ns < horizon
    values = np.power(alpha, ns[live])
    out = np.zeros(ns.shape, dtype=values.dtype)
    out[live] = values
    if alpha < 0.0:
        dead = ~live
        out[dead] = 0.0 * _parity_signs(ns[dead])
    return out


@dataclass(frozen=True)
class Canonical:
    """a_n = ((1/2)^n + (-1)^n) / n.

    A geometric part that dies out fast plus an alternating harmonic part
    that supplies the slow sign-flipping drift.  The full series sums to
    zero, so partial sums measure how much of the cancellation is still
    outstanding.
    """

    def coefficients(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns)
        return (_geometric(0.5, ns) + _parity_signs(ns)) / ns


@dataclass(frozen=True)
class Generalized:
    """a_n = (alpha^n + (-1)^n * beta) / n^gamma.

    Args:
        alpha: geometric base, must satisfy |alpha| < 1 so that part decays.
        beta: weight of the alternating part.
        gamma: polynomial decay exponent, must be >= 1.

    ``Generalized(0.5, 1.0, 1.0)`` reproduces :class:`Canonical` exactly,
    including at the bit level: both evaluate alpha^n through the same
    helper.  Past n = 1100 / -log2|alpha| (about 630 terms at alpha = 0.3)
    alpha^n is below 2^-1100, far under half the smallest subnormal, so
    ``np.power`` would return an exact (signed) zero there.  That zero is
    written without calling ``pow``, whose underflowing calls are about ten
    times slower than its normal ones; the values stay bit-identical.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            check_real(name, getattr(self, name))
        if abs(self.alpha) >= 1.0:
            raise ValueError(
                f"|alpha| must be < 1 for the geometric part to decay, got {self.alpha!r}"
            )
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma!r}")

    def coefficients(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns)
        numer = _geometric(self.alpha, ns) + _parity_signs(ns) * self.beta
        return numer / np.power(ns.astype(float), self.gamma)


@dataclass(frozen=True)
class ExpPoly:
    """a_n = (e^(-n) + (-1)^n) / n^p with p >= 1."""

    p: float = 1.0

    def __post_init__(self) -> None:
        if check_real("p", self.p) < 1.0:
            raise ValueError(f"p must be >= 1, got {self.p!r}")

    def coefficients(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns)
        numer = np.exp(-ns.astype(float)) + _parity_signs(ns)
        return numer / np.power(ns.astype(float), self.p)


@dataclass(frozen=True)
class Trig:
    """a_n = cos(pi * n) * e^(-n) / n.

    The cosine at integer multiples of pi is exactly +-1, so it is evaluated
    as the parity sign rather than through a floating point cosine, which
    would only be approximately +-1.
    """

    def coefficients(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns)
        return _parity_signs(ns) * np.exp(-ns.astype(float)) / ns


CoefficientFamily = Canonical | Generalized | ExpPoly | Trig

# kind name -> class; file descriptors and the CLI's --family read their
# kinds and parameters from here
FAMILIES = {cls.__name__.lower(): cls for cls in typing.get_args(CoefficientFamily)}


def _check_family(family) -> None:
    if not isinstance(family, CoefficientFamily):
        raise TypeError(f"family must be a CoefficientFamily, got {family!r}")


def coefficient(family: CoefficientFamily, n: int) -> float:
    """Return the n-th coefficient of ``family`` (n >= 1)."""
    # scalar access funnels through the array path: libm and numpy
    # transcendentals can disagree by an ulp, and two paths would leak
    # that difference into the bit-exactness contract
    n = check_int("n", n, 1)
    return float(family.coefficients(np.array([n]))[0])


# Most rows one array of terms may hold: 10**7 float64 values are 80 MB,
# the same size as ``multidim.MAX_GRID_CELLS``.
MAX_ROWS = 10**7


def _check_row_count(rows: int) -> int:
    """Refuse, before anything is allocated, more than ``MAX_ROWS`` rows."""
    if rows > MAX_ROWS:
        raise ValueError(f"{rows} rows exceeds the limit of {MAX_ROWS} rows")
    return rows


def partial_sums(family: CoefficientFamily, n_max: int) -> np.ndarray:
    """Running sums S(1), S(2), ..., S(n_max) as one array.

    Computed with a sequential accumulation, so each entry is bit-identical
    to summing the coefficients one by one in index order.

    The cost is linear in ``n_max``.  For :class:`Canonical` and
    :class:`Generalized` the geometric part alpha^n is computed only up to
    its underflow horizon (about 1100 rows for Canonical); every later term
    is the exact zero ``pow`` would return, so a 10**6-row Canonical sum
    costs about 20 ms instead of about 80 ms, with the same bits.

    Raises:
        ValueError: ``n_max`` < 1, or more than ``MAX_ROWS`` rows.
        TypeError: ``n_max`` is not an integer.
    """
    n_max = _check_row_count(check_int("n_max", n_max, 1))
    ns = np.arange(1, n_max + 1)
    return np.cumsum(family.coefficients(ns))


def partial_sum(family: CoefficientFamily, n: int) -> float:
    """Sum of the first ``n`` coefficients, left to right.

    Args:
        family: coefficient family to sum.
        n: number of leading terms, must be >= 0.  ``n = 0`` is the empty
            sum and yields exactly 0.0.

    Returns:
        The accumulated value S(n).

    Raises:
        ValueError: if ``n`` is negative, or more than ``MAX_ROWS``.
        TypeError: if ``n`` is not an integer.
    """
    n = check_int("n", n, 0)
    if n == 0:
        return 0.0
    return float(partial_sums(family, n)[-1])


def tail_bound(family: CoefficientFamily, n: int) -> float:
    """Provable upper bound on |sum of all coefficients beyond index n|.

    For :class:`Canonical`, whose series sums to zero, this also bounds |S(n)|;
    other series sum to a non-zero limit, and their |S(n)| can far exceed it.
    For :class:`Canonical`, :class:`Generalized` and :class:`ExpPoly` the
    bound splits the tail into its two parts: the alternating part is
    bounded by the first omitted term, and the geometric part by the full
    geometric tail with the polynomial decay dropped:

        |tail| <= |beta| / (n + 1)^gamma + |alpha|^(n + 1) / (1 - |alpha|)

    For :class:`Canonical` this reduces to 1/(n + 1) + 2^(-n), and for
    ``ExpPoly(p)`` to 1/(n + 1)^p + e^-(n + 1) / (1 - e^-1).  Note the
    combined sequence is *not* eventually geometric, the harmonic part
    dominates, so no geometric envelope is available.  The terms of
    :class:`Trig` alternate and shrink in magnitude, so its bound is the
    first omitted term alone, e^-(n + 1) / (n + 1).

    A bound that underflows is returned as the smallest subnormal,
    ``math.ulp(0.0)``, so it never reads 0.0 for a positive tail.  Where
    (n + 1)^gamma exceeds the float range, the alternating part is bounded
    by |beta| * 2^-1023, rounded up.

    Args:
        family: a coefficient family instance.
        n: number of leading terms already summed, must be >= 1.

    Returns:
        The bound as a float.

    Raises:
        TypeError: ``family`` is not a coefficient family, or ``n`` is not an integer.
        ValueError: if ``n`` < 1, or ``n + 1`` is beyond the float range.
    """
    n = check_int("n", n, 1)
    _check_family(family)
    try:
        m = float(n + 1)
    except OverflowError:
        raise ValueError(f"n must be below 2**1024, got a {n.bit_length()}-bit integer") from None
    if isinstance(family, Trig):
        return max(math.exp(-m) / m, math.ulp(0.0))
    if isinstance(family, Canonical):
        alpha, beta, gamma = 0.5, 1.0, 1.0
    elif isinstance(family, Generalized):
        alpha, beta, gamma = family.alpha, family.beta, family.gamma
    else:
        alpha, beta, gamma = math.exp(-1.0), 1.0, family.p
    try:
        alternating_part = abs(beta) / m**gamma
    except OverflowError:  # m**gamma > 2**1023
        alternating_part = math.nextafter(math.ldexp(abs(beta), -1023), math.inf)
    geometric_part = abs(alpha) ** m / (1.0 - abs(alpha))
    return max(alternating_part + geometric_part, math.ulp(0.0))
