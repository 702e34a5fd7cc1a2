"""Separable multi-dimensional extension of the integral map.

A tuple of counts selects one bump train per axis; separability means the
d-dimensional integral factors into the product of the per-axis coefficient
sums, scaled by the Gaussian normalization per dimension:

    I(N_1, ..., N_d) = (2 pi)^(d/2) * delta^d * S_1(N_1) * ... * S_d(N_d)

Any axis at zero kills the whole product, exactly as the empty sum does in
one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import check_int, check_positive, check_real
from .coefficients import (
    CoefficientFamily,
    _check_family,
    _check_row_count,
    _running_sums,
    partial_sums,
)
from .integral_map import area_scale

__all__ = [
    "MultiIndex",
    "MultiEncoderConfig",
    "integral_multi",
    "recover_multi",
    "coordinatewise_recover",
]

# Index tuples order lexicographically under the native tuple comparison,
# which is exactly the ordering the searches below promise.
MultiIndex = tuple[int, ...]

# Rows in the first chunk of a coordinatewise axis scan; each later chunk
# doubles, up to ``coefficients._CHUNK_ROWS``, so a hit at row n costs O(n).
_FIRST_CHUNK_ROWS = 256


@dataclass(frozen=True)
class MultiEncoderConfig:
    """One coefficient family per axis and a shared bump width."""

    families: tuple[CoefficientFamily, ...]
    delta: float = 0.2

    def __post_init__(self) -> None:
        families = tuple(self.families)
        object.__setattr__(self, "families", families)
        if len(families) < 1:
            raise ValueError("need at least one axis")
        for family in families:
            _check_family(family)
        object.__setattr__(self, "delta", check_positive("delta", self.delta))

    @property
    def dimension(self) -> int:
        return len(self.families)

    @classmethod
    def isotropic(cls, family: CoefficientFamily, dimension: int, delta: float = 0.2):
        """Same family on every axis."""
        return cls(families=(family,) * check_int("dimension", dimension, 1), delta=delta)


def _scale(config: MultiEncoderConfig) -> float:
    d = config.dimension
    return (2.0 * math.pi) ** (d / 2.0) * config.delta**d


def _check_indices(config: MultiEncoderConfig, indices) -> tuple[np.ndarray, ...]:
    indices = tuple(indices)
    if len(indices) != config.dimension:
        raise ValueError(
            f"expected {config.dimension} components, got {len(indices)}"
        )
    components = tuple(np.asarray(component) for component in indices)
    for given, component in zip(indices, components):
        if component.dtype.kind not in "iu":
            raise TypeError(f"components must be integers, got {given!r}")
        if (component < 0).any():
            raise ValueError(f"components must be >= 0, got {given}")
    return components


def integral_multi(config: MultiEncoderConfig, indices):
    """Closed-form d-dimensional integral at an index tuple, or over a grid of them.

    Each component is a count >= 0 or an integer array of counts.  With
    counts only, the result is a float.  Otherwise it is the array over every
    combination, shaped like the components joined in axis order (as
    ``np.multiply.outer`` joins them): components ``np.arange(1, m_k + 1)``
    give the grid whose entry ``[i_1 - 1, ..., i_d - 1]`` is the integral at
    ``(i_1, ..., i_d)``.  Each axis's partial sums are computed once, the
    axes are multiplied from 1.0 left to right and the scale comes last, so
    a grid entry equals the one-point value bit for bit.

    Raises:
        ValueError: a negative count, or a result of more than
            ``MAX_ROWS`` values; nothing is allocated in that case.
        TypeError: a component that is not an integer or an integer array.
    """
    components = _check_indices(config, indices)
    _check_row_count("cells", math.prod(component.size for component in components))
    product = np.ones(())
    for family, counts in zip(config.families, components):
        # entry n is S(n), with the empty sum S(0) = 0 in front
        sums = np.concatenate(([0.0], partial_sums(family, max(1, int(counts.max(initial=0))))))
        product = np.multiply.outer(product, sums[counts])
    product *= _scale(config)
    return float(product) if product.ndim == 0 else product


def _axis_limits(config: MultiEncoderConfig, n_max) -> list[int]:
    limits = [n_max] * config.dimension if np.ndim(n_max) == 0 else list(n_max)
    if len(limits) != config.dimension:
        raise ValueError(f"expected {config.dimension} axis limits, got {len(limits)}")
    return [_check_row_count("n_max", check_int("n_max", limit, 1)) for limit in limits]


def recover_multi(
    config: MultiEncoderConfig,
    n_max,
    epsilon: float,
    *,
    pareto: bool = False,
) -> MultiIndex | list[MultiIndex] | None:
    """Index tuples (components >= 1) whose integral magnitude is below epsilon.

    By default returns the lexicographically smallest qualifying tuple, or
    ``None``.  With ``pareto=True`` returns instead the set of qualifying
    tuples that are minimal under componentwise comparison (no other
    qualifying tuple is <= in every coordinate), sorted lexicographically;
    the set is empty when nothing qualifies.  "Qualifying" means exactly
    ``abs(integral_multi(config, tuple)) < epsilon``.

    One search serves both modes.  It enumerates tuples in lexicographic
    order and streams each prefix's first qualifying tuple, which dominates
    every later tuple with the same prefix.  A subtree is skipped when its
    best achievable magnitude, taking the smallest |S| still available on
    each remaining axis, cannot reach epsilon; that prune is sound, so no
    qualifying tuple is lost.  First mode takes the head of the stream.
    Pareto mode filters it in one pass: as candidates arrive in
    lexicographic order, every dominator of a candidate comes before it, so
    a candidate is minimal exactly when no tuple kept so far is <= it.  The
    cost beyond the pruned enumeration is O(|candidates| * |minimal set| * d).
    """
    epsilon = check_positive("epsilon", epsilon)
    limits = _axis_limits(config, n_max)
    sums = [partial_sums(family, limit).tolist() for family, limit in zip(config.families, limits)]
    scale = _scale(config)
    d = config.dimension

    # smallest attainable |product| over axes i.. (used to prune subtrees)
    best_tail = [1.0] * (d + 1)
    for i in range(d - 1, -1, -1):
        best_tail[i] = min(map(abs, sums[i])) * best_tail[i + 1]
    # On the last axis best_tail is 1.0, so the prune is the integral's own
    # test, bit for bit.  On an inner axis the bound, multiplied right to
    # left, and the product it bounds, multiplied left to right, differ by
    # at most 2d roundings of relative size 2**-53; while no product is
    # subnormal, a cut wider by twice that prunes no qualifying tuple.
    cut = [epsilon * (1.0 + 4 * d * 2.0**-53)] * (d - 1) + [epsilon]

    def candidates(axis: int, prefix: MultiIndex, product: float):
        tail, bound, last = best_tail[axis + 1], cut[axis], axis == d - 1
        for component, s in enumerate(sums[axis], 1):
            partial = product * s
            if scale * abs(partial) * tail >= bound:
                continue
            if last:
                yield prefix + (component,)
                return
            yield from candidates(axis + 1, prefix + (component,), partial)

    stream = candidates(0, (), 1.0)
    if not pareto:
        return next(stream, None)
    minimal: list[MultiIndex] = []
    for candidate in stream:
        if not any(all(k <= c for k, c in zip(kept, candidate)) for kept in minimal):
            minimal.append(candidate)
    return minimal


def coordinatewise_recover(
    config: MultiEncoderConfig,
    targets,
    epsilon: float,
    n_max,
) -> MultiIndex | None:
    """Recover each axis independently from its own observed integral.

    Each axis returns the smallest N <= its limit with |I(N) - target| <
    epsilon on that axis's one-dimensional map (same bump width), the row
    ``recover_match`` finds in that axis's ``build_table``.  The result is
    the tuple of per-axis matches; if any axis has no match the whole
    recovery reports ``None``.

    Cost: no table is built.  Each axis scans its running sums in chunks
    that double in size, up to 16384 rows, and stops at its first match, so
    a hit at row n costs O(n) and a miss the whole axis; one chunk is held
    at a time.  A cold axis evaluates the coefficients of every row it
    scans; a warm one reads rows 1..2**14 from its family's kept first
    chunk (see :mod:`smoothint.coefficients`) and evaluates only the rows
    past them.

    Raises:
        ValueError: number of targets differs from the number of axes, a
            bad epsilon, or a non-finite value in a scanned chunk.
    """
    targets = tuple(check_real("target", t) for t in targets)
    if len(targets) != config.dimension:
        raise ValueError(
            f"need one target per axis: got {len(targets)} for {config.dimension} axes"
        )
    epsilon = check_positive("epsilon", epsilon)
    limits = _axis_limits(config, n_max)
    scale = area_scale(config.delta)
    recovered = []
    for family, target, limit in zip(config.families, targets, limits):
        n = _first_match(family, scale, target, epsilon, limit)
        if n is None:
            return None
        recovered.append(n)
    return tuple(recovered)


def _first_match(
    family: CoefficientFamily, scale: float, target: float, epsilon: float, limit: int
) -> int | None:
    """Smallest n <= limit with abs(scale * S(n) - target) < epsilon, or None.

    The running sums come in chunks from the kernel of
    :func:`~smoothint.coefficients.partial_sums`, the first of
    ``_FIRST_CHUNK_ROWS`` rows and each later one twice as long, up to that
    kernel's cap, so every value is the one ``scale * partial_sums(family,
    limit)`` holds, bit for bit.  Rows 1..2**14 are read-only views of the
    family's kept first chunk, filled only as far as this scan or an
    earlier call reached, and the chunk that reaches row 2**14 ends there.
    """
    start = 1
    for sums in _running_sums(family, limit, first=_FIRST_CHUNK_ROWS):
        values = scale * sums
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")
        hits = np.flatnonzero(np.abs(values - target) < epsilon)
        if hits.size:
            return start + int(hits[0])
        start += sums.size
    return None
