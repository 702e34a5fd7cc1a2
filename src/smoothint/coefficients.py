"""Alternating, decaying coefficient sequences and their partial sums.

Every encoder in this package is driven by a sequence ``a_n`` whose terms
alternate in sign while shrinking in magnitude, so the running sum keeps
crossing zero and settles toward it without reaching it at any finite n.
The distance of a partial sum from zero is what encodes an integer, so the
sequences here come with a certified bound on that distance.

Summation is plain left-to-right double precision accumulation.  That is a
deliberate choice: identical inputs must produce bit-identical sums across
every code path (tables, closed forms, file round trips), which compensated
or pairwise schemes would break.  Each parameter is stored as a float,
so terms and sums are float64 whatever numeric type the caller passed.

The sums run in chunks of 2**14 rows.  A process keeps the first chunk,
rows 1..2**14, of the 32 families used last (4 MiB at most), keyed by the
family's class and the repr of each parameter (see ``_head``): one buffer
per family, filled in place only as far as some call has asked.  A warm
call copies the kept rows and evaluates only those past them.  A cold call,
the first for a family in a process or after 32 other families, sums what
it always did, about 4 us slower than keeping no rows below 2**14 rows
(see ``partial_sums``).  Callers always get their own arrays.
"""

from __future__ import annotations

import functools
import math
import threading
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
    """(-1)^n as floats for an integer array: 1.0 at even n, -1.0 at odd n."""
    return 1.0 - 2.0 * (ns & 1)


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
    out = np.zeros(ns.shape)
    out[live] = np.power(alpha, ns[live])
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
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if abs(self.alpha) >= 1.0:
            raise ValueError(f"|alpha| must be < 1 for the geometric part to decay, got {self.alpha!r}")
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
        object.__setattr__(self, "p", check_real("p", self.p))
        if self.p < 1.0:
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


# Most rows one array of terms, or cells one ``integral_multi`` grid, may
# hold: 10**7 float64 values are 80 MB.
MAX_ROWS = 10**7


def _check_row_count(name: str, count: int) -> int:
    """Refuse, before anything is allocated, a ``count`` over ``MAX_ROWS``.

    ``name`` is the quantity the caller counts, such as ``"trials"``.
    """
    if count > MAX_ROWS:
        raise ValueError(f"{name} = {count} exceeds the limit of {MAX_ROWS}")
    return count


# Rows one chunk of a running sum evaluates and sums at once: its terms and
# temporaries (128 KiB each) stay in cache, and no caller holds more.  The
# first chunk, rows 1.._CHUNK_ROWS, is kept for the _HEAD_FAMILIES families
# used last: at most 32 buffers of 128 KiB, 4 MiB in all.  A decode that
# reuses a family re-reads its first rows on every call.
_CHUNK_ROWS = 1 << 14
_HEAD_FAMILIES = 32


def _sum_rows(family: CoefficientFamily, low: int, stop: int, carried, out=None) -> np.ndarray:
    """S(low)..S(stop), given ``carried`` = S(low - 1), or None at row 1.

    The carried total is added into the first term, and ``np.add.accumulate``
    (the loop ``np.cumsum`` runs, without its dispatch) adds left to right,
    so every row has the bits of one ``np.cumsum`` from row 1.  Nothing is
    added to the very first term: 0.0 + -0.0 would turn it into +0.0.
    """
    terms = family.coefficients(np.arange(low, stop + 1))
    if carried is not None:
        terms[0] += carried
    return np.add.accumulate(terms, out=out)


class _Head:
    """A family's first chunk, S(1)..S(_CHUNK_ROWS), in one buffer filled in place."""

    def __init__(self) -> None:
        self.rows = np.empty(_CHUNK_ROWS)
        self.view = self.rows.view()  # what readers get
        self.view.flags.writeable = False
        self.filled = 0
        self.lock = threading.Lock()  # one fill at a time

    def sums(self, family: CoefficientFamily, start: int, stop: int) -> np.ndarray:
        """Read-only S(start)..S(stop), stop <= ``_CHUNK_ROWS``.

        Only the rows past those already filled are evaluated, and none
        past ``stop``.  A fill writes rows no reader has been given, and
        counts them as filled once they are written.
        """
        if self.filled < stop:
            with self.lock:
                filled = self.filled
                if filled < stop:
                    carried = self.rows[filled - 1] if filled else None
                    _sum_rows(family, filled + 1, stop, carried, self.rows[filled:stop])
                    self.filled = stop
        return self.view[start - 1 : stop]


@functools.lru_cache(maxsize=_HEAD_FAMILIES)
def _kept_head(key: tuple) -> _Head:
    """The head kept under ``key``, created empty on first use."""
    return _Head()


def _head(family: CoefficientFamily) -> _Head:
    """The family's kept head, keyed by its class and each parameter's repr.

    repr spells a float exactly, so ``beta = -0.0`` and ``0.0`` are two
    keys; ``Generalized(0.5, 1.0, 1.0)`` is kept apart from ``Canonical``.
    """
    return _kept_head((type(family), *map(repr, vars(family).values())))


def _running_sums(
    family: CoefficientFamily, n: int, out: np.ndarray | None = None, first: int | None = None
):
    """Yield S(1), ..., S(n) as consecutive chunks of running sums.

    The first chunk holds ``first`` rows (default ``_CHUNK_ROWS``); each
    later one doubles, up to ``_CHUNK_ROWS``, and one that starts inside
    the first ``_CHUNK_ROWS`` rows ends at row ``_CHUNK_ROWS`` at most.
    Those rows are read-only views of the family's head (:func:`_head`);
    each later chunk is summed by :func:`_sum_rows` with the running total
    carried into it, so every row has the bits of one ``np.cumsum`` over
    all n terms.  With ``out``, each chunk is copied or summed into its
    rows of ``out`` and the chunk yielded is that view.
    """
    size = _CHUNK_ROWS if first is None else min(first, _CHUNK_ROWS)
    head = _head(family)
    start = 1
    while start <= n:
        stop = min(n, start + size - 1)
        if start <= _CHUNK_ROWS:
            stop = min(stop, _CHUNK_ROWS)
            sums = head.sums(family, start, stop)
            if out is not None:
                out[start - 1 : stop] = sums
                sums = out[start - 1 : stop]
        else:
            sums = _sum_rows(family, start, stop, carried, None if out is None else out[start - 1 : stop])
        yield sums
        carried = sums[-1]
        start, size = stop + 1, min(2 * size, _CHUNK_ROWS)


def partial_sums(family: CoefficientFamily, n_max: int) -> np.ndarray:
    """Running sums S(1), S(2), ..., S(n_max) as one array.

    Computed with a sequential accumulation, so each entry is bit-identical
    to summing the coefficients one by one in index order.  The sums run in
    chunks of ``_CHUNK_ROWS`` rows with the running total carried from one
    chunk to the next, so besides the result only one chunk's temporaries
    are held.

    The cost is linear in ``n_max``.  For :class:`Canonical` and
    :class:`Generalized` the geometric part alpha^n is computed only up to
    its underflow horizon (about 1100 rows for Canonical); every later term
    is the exact zero ``pow`` would return.  A 10**6-row Canonical sum takes
    9-11 ms, against 22-25 ms for whole-length arrays, and peaks at 8.3 MiB
    traced, about one result's size, against 23.8 MiB (best of 7-15 runs on
    a 2-vCPU host, numpy 2.4.6).

    A cold call evaluates and sums every row as above, rows
    1..min(n_max, 2**14) into the family's kept first chunk (see the module
    docstring).  A warm call copies those rows from there and evaluates only
    the rows past them.  For ``Generalized(0.3, 1.0, 1.5)``, against the
    same code with no rows kept (medians of 401 interleaved calls in each of
    two processes, 2-vCPU host, numpy 2.4.6): 200 rows take 2.6 us warm and
    19 us cold against 15 us; 10**4 rows 5.1-5.4 us warm and 180-220 us
    cold against 170-250 us; 3*10**4 rows 270-340 us warm and 740-830 us
    cold against 670-760 us.  The result is always the caller's own array.

    Raises:
        ValueError: ``n_max`` < 1, or more than ``MAX_ROWS`` rows.
        TypeError: ``n_max`` is not an integer.
    """
    n_max = _check_row_count("n_max", check_int("n_max", n_max, 1))
    if n_max <= _CHUNK_ROWS:
        return _head(family).sums(family, 1, n_max).copy()
    out = np.empty(n_max)
    for _ in _running_sums(family, n_max, out):
        pass
    return out


def partial_sum(family: CoefficientFamily, n: int) -> float:
    """Sum of the first ``n`` coefficients, left to right.

    Only the running total is kept: the sums run chunk by chunk, as in
    :func:`partial_sums`, and no n-row array is held.  A cold call keeps
    rows 1..min(n, 2**14) in the family's first chunk; a warm call reads
    them from there and sums only the rows past them.

    Args:
        family: coefficient family to sum.
        n: number of leading terms, must be >= 0.  ``n = 0`` is the empty
            sum and yields exactly 0.0.

    Returns:
        The accumulated value S(n), the last row of ``partial_sums(family, n)``.

    Raises:
        ValueError: if ``n`` is negative, or more than ``MAX_ROWS``.
        TypeError: if ``n`` is not an integer.
    """
    n = _check_row_count("n", check_int("n", n, 0))
    total = 0.0
    for sums in _running_sums(family, n):
        total = sums[-1]
    return float(total)


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
