"""Expected answers, computed without importing smoothint.

Everything here restates the paper's definitions directly: the coefficient
formulas, a left-to-right ``np.cumsum`` for the partial sums, plain scans for
the table searches, a replay of the noise sweep's generator draws, a numpy
outer product for the separable map and a pairwise dominance filter for the
Pareto set.  The benchmark compares every output of the program against
these values, so a wrong answer is counted as failed, never timed as fast.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# (kind, parameters) pairs; the CLI and the JSON meta block spell the
# parameters exactly like this.
CANONICAL = ("canonical", {})
GENERALIZED = ("generalized", {"alpha": 0.3, "beta": 2.0, "gamma": 1.5})
EXPPOLY = ("exppoly", {"p": 2.0})
TRIG = ("trig", {})
FAMILIES = (CANONICAL, GENERALIZED, EXPPOLY, TRIG)
BY_KIND = {family[0]: family for family in FAMILIES}


def coefficients(family, ns) -> np.ndarray:
    """a_n for the integer array ``ns``, in the paper's closed forms."""
    kind, params = family
    ns = np.asarray(ns)
    nf = ns.astype(float)
    sign = np.where(ns % 2 == 0, 1.0, -1.0)
    if kind == "canonical":
        return (np.power(0.5, ns) + sign) / ns
    if kind == "generalized":
        numer = np.power(params["alpha"], ns) + sign * params["beta"]
        return numer / np.power(nf, params["gamma"])
    if kind == "exppoly":
        return (np.exp(-nf) + sign) / np.power(nf, params["p"])
    if kind == "trig":
        return sign * np.exp(-nf) / ns
    raise ValueError(f"unknown family {kind!r}")


def partial_sums(family, n: int) -> np.ndarray:
    """S(1..n), accumulated left to right."""
    return np.cumsum(coefficients(family, np.arange(1, n + 1)))


def area_scale(delta: float) -> float:
    return delta * math.sqrt(2.0 * math.pi)


def table_values(family, delta: float, n: int) -> np.ndarray:
    """I(1..n) = delta * sqrt(2 pi) * S(1..n)."""
    return area_scale(delta) * partial_sums(family, n)


def alternates(values: np.ndarray) -> bool:
    """Signs strictly alternate and each parity class shrinks in magnitude."""
    signs = np.sign(values)
    mags = np.abs(values)
    return bool(
        signs[0] != 0.0
        and np.all(signs[1:] == -signs[:-1])
        and np.all(mags[2:] <= mags[:-2])
    )


# ---------------------------------------------------------------------------
# 1-D searches: plain scans returning (n, residual) or None
# ---------------------------------------------------------------------------


def first_match(values: np.ndarray, target: float, epsilon: float):
    residuals = np.abs(values - target)
    hits = np.flatnonzero(residuals < epsilon)
    if hits.size == 0:
        return None
    i = int(hits[0])
    return i + 1, float(residuals[i])


def first_below(values: np.ndarray, epsilon: float):
    mags = np.abs(values)
    hits = np.flatnonzero(mags < epsilon)
    if hits.size == 0:
        return None
    i = int(hits[0])
    return i + 1, float(mags[i])


def spline_expectation(values: np.ndarray, target: float, tol: float):
    """What a spline inversion must return.

    ``("knot", n)`` when row n is the first within tol of the target,
    ``("interval", n)`` when the first sign change of values - target lies
    between rows n and n + 1, ``None`` when the target is never reached.
    """
    gap = values - target
    knots = np.flatnonzero(np.abs(gap) <= tol)
    if knots.size:
        return "knot", int(knots[0]) + 1
    brackets = np.flatnonzero(gap[:-1] * gap[1:] < 0.0)
    if brackets.size == 0:
        return None
    return "interval", int(brackets[0]) + 1


def sweep_accuracies(values, true_n, epsilon, amplitudes, trials, seed):
    """Replay the sweep's uniform draws and score each by a plain scan."""
    rng = np.random.default_rng(seed)
    true_value = float(values[true_n - 1])
    out = []
    for amplitude in amplitudes:
        draws = rng.uniform(-amplitude, amplitude, trials)
        hits = 0
        for shift in draws:
            match = first_match(values, true_value + shift, epsilon)
            if match is not None and match[0] == true_n:
                hits += 1
        out.append((float(amplitude), hits / trials))
    return out


# ---------------------------------------------------------------------------
# Separable multidim map
# ---------------------------------------------------------------------------


def multi_scale(dimension: int, delta: float) -> float:
    return (2.0 * math.pi) ** (dimension / 2.0) * delta**dimension


def outer_product(sums) -> np.ndarray:
    """S_1 (x) S_2 (x) ... multiplied left to right, starting from 1.0."""
    product = np.ones(())
    for axis in sums:
        product = np.multiply.outer(product, axis)
    return product


def multi_qualifying(sums, scale: float, epsilon: float) -> np.ndarray:
    """All index tuples (1-based, lexicographic order) with |I| < epsilon.

    The first axis is handled one slice at a time, so memory stays at one
    slice of the grid.
    """
    rest = outer_product(sums[1:])
    found = []
    for i, s_first in enumerate(sums[0]):
        hits = np.argwhere(scale * np.abs(s_first * rest) < epsilon)
        if hits.size:
            found.append(np.column_stack([np.full(len(hits), i), hits]) + 1)
    if not found:
        return np.empty((0, len(sums)), dtype=int)
    return np.concatenate(found)


def multi_first(sums, scale: float, epsilon: float):
    rest = outer_product(sums[1:])
    for i, s_first in enumerate(sums[0]):
        hits = np.flatnonzero(scale * np.abs(s_first * rest) < epsilon)
        if hits.size:
            tail = np.unravel_index(int(hits[0]), rest.shape)
            return (i + 1,) + tuple(int(t) + 1 for t in tail)
    return None


def pareto_minimal(points: np.ndarray, chunk: int = 256) -> list[tuple[int, ...]]:
    """Tuples no other tuple bounds from below in every coordinate."""
    keep = []
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        le = np.all(points[None, :, :] <= block[:, None, :], axis=2)
        ne = np.any(points[None, :, :] != block[:, None, :], axis=2)
        dominated = np.any(le & ne, axis=1)
        keep.extend(tuple(int(c) for c in p) for p in block[~dominated])
    return sorted(keep)


# ---------------------------------------------------------------------------
# Written files, parsed with the standard library
# ---------------------------------------------------------------------------


def family_meta(family) -> dict:
    kind, params = family
    return {"kind": kind, **params}


def check_table_json(path, family, delta: float, values: np.ndarray) -> bool:
    with open(path) as handle:
        document = json.load(handle)
    meta = {
        "delta": delta,
        "family": family_meta(family),
        "n_max": len(values),
        "format_version": 1,
    }
    expected = [[n, float(v)] for n, v in enumerate(values, start=1)]
    return document == {"meta": meta, "rows": expected}


def read_csv_rows(path, header: list[str]) -> list[list[str]] | None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def check_table_csv(path, values: np.ndarray) -> bool:
    rows = read_csv_rows(path, ["N", "I"])
    if rows is None or len(rows) != len(values):
        return False
    return [int(r[0]) for r in rows] == list(range(1, len(values) + 1)) and [
        float(r[1]) for r in rows
    ] == values.tolist()


def check_xy_csv(path, xs, ys, atol: float = 0.0) -> bool:
    """Two-column trace: x exactly, y exactly or within ``atol``."""
    rows = read_csv_rows(path, ["x", "y"])
    if rows is None or len(rows) != len(xs):
        return False
    got_x = np.array([float(r[0]) for r in rows])
    got_y = np.array([float(r[1]) for r in rows])
    if not np.array_equal(got_x, np.asarray(xs, dtype=float)):
        return False
    if atol == 0.0:
        return bool(np.array_equal(got_y, np.asarray(ys, dtype=float)))
    return bool(np.all(np.abs(got_y - ys) <= atol))


def check_grid_csv(path, sums, scale: float) -> bool:
    d = len(sums)
    rows = read_csv_rows(path, [f"N{i}" for i in range(1, d + 1)] + ["I"])
    grid = scale * outer_product(sums)
    if rows is None or len(rows) != grid.size:
        return False
    index = np.array([[int(c) for c in r[:d]] for r in rows])
    expected_index = np.argwhere(np.ones(grid.shape, dtype=bool)) + 1
    got = np.array([float(r[d]) for r in rows])
    return bool(np.array_equal(index, expected_index) and np.array_equal(got, grid.ravel()))


def check_sweep_csv(path, expected) -> bool:
    rows = read_csv_rows(path, ["amplitude", "accuracy"])
    if rows is None:
        return False
    return [(float(a), float(b)) for a, b in rows] == expected


# ---------------------------------------------------------------------------
# Bump-train traces for plot-data, summed densely (no windowing)
# ---------------------------------------------------------------------------


def counter_trace(family, delta: float, n_value: float, ts: np.ndarray) -> np.ndarray:
    """Fractional-mode bump train: bumps 1..floor(N) full, the next scaled."""
    k = math.floor(n_value)
    ns = np.arange(1, k + 2)
    weights = np.ones(k + 1)
    weights[-1] = n_value - k
    amps = weights * coefficients(family, ns)
    out = np.zeros(ts.shape)
    for center, amp in zip(ns, amps):
        d = ts - center
        out += amp * np.exp(-(d * d) / (2.0 * delta * delta))
    return out


def smooth_map(family, delta: float, sharpness: float, n_value: float, cutoff: int) -> float:
    """Logistic-gated area: scale * sum_n a_n / (1 + exp(s (n - N)))."""
    ns = np.arange(1, cutoff + 1)
    u = sharpness * (ns - n_value)
    gate = np.exp(-np.logaddexp(0.0, u))
    return area_scale(delta) * math.fsum(gate * coefficients(family, ns))
