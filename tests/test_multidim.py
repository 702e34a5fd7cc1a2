import itertools
import math

import numpy as np
import pytest

from smoothint import (
    Canonical,
    MultiEncoderConfig,
    Trig,
    coordinatewise_recover,
    integral_multi,
    partial_sums,
    recover_multi,
)

CANONICAL_2D = MultiEncoderConfig.isotropic(Canonical(), 2, delta=0.2)


def test_integral_multi_known_values():
    assert integral_multi(CANONICAL_2D, (1, 1)) == 0.06283185307179587
    assert integral_multi(CANONICAL_2D, (2, 3)) == pytest.approx(
        -0.00523598775598299, abs=1e-17
    )


def test_zero_component_kills_the_product():
    assert integral_multi(CANONICAL_2D, (0, 5)) == 0.0
    assert integral_multi(CANONICAL_2D, (3, 0)) == 0.0


@pytest.mark.parametrize("dimension", [2, 3])
def test_separability_against_brute_force(dimension):
    config = MultiEncoderConfig.isotropic(Canonical(), dimension, delta=0.2)
    sums = partial_sums(Canonical(), 6)
    scale = (2.0 * math.pi) ** (dimension / 2.0) * 0.2**dimension
    for combo in itertools.product(range(1, 7), repeat=dimension):
        expected = scale
        for component in combo:
            expected *= sums[component - 1]
        assert integral_multi(config, combo) == pytest.approx(expected, abs=1e-10)


def test_mixed_families():
    config = MultiEncoderConfig(families=(Canonical(), Trig()), delta=0.2)
    expected = (
        (2.0 * math.pi)
        * 0.04
        * partial_sums(Canonical(), 2)[-1]
        * partial_sums(Trig(), 3)[-1]
    )
    assert integral_multi(config, (2, 3)) == pytest.approx(expected, rel=1e-12)


def test_index_validation():
    with pytest.raises(ValueError, match="components"):
        integral_multi(CANONICAL_2D, (1, 2, 3))
    with pytest.raises(ValueError):
        integral_multi(CANONICAL_2D, (1, -2))
    with pytest.raises(TypeError):
        integral_multi(CANONICAL_2D, (1.0, 2))


def test_config_validation():
    with pytest.raises(ValueError):
        MultiEncoderConfig(families=())
    with pytest.raises(ValueError):
        MultiEncoderConfig(families=(Canonical(),), delta=-0.2)
    with pytest.raises(ValueError):
        MultiEncoderConfig.isotropic(Canonical(), 0)


def _brute_force_hits(config, limit, epsilon):
    hits = []
    for combo in itertools.product(range(1, limit + 1), repeat=config.dimension):
        if abs(integral_multi(config, combo)) < epsilon:
            hits.append(combo)
    return hits


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 4e-4])
def test_recover_multi_equals_exhaustive_search(epsilon):
    hits = _brute_force_hits(CANONICAL_2D, 12, epsilon)
    expected = min(hits) if hits else None
    assert recover_multi(CANONICAL_2D, 12, epsilon) == expected


def test_recover_multi_pareto_equals_exhaustive_filter():
    epsilon = 1e-3
    hits = _brute_force_hits(CANONICAL_2D, 12, epsilon)
    minimal = sorted(
        c
        for c in hits
        if not any(o != c and all(a <= b for a, b in zip(o, c)) for o in hits)
    )
    assert recover_multi(CANONICAL_2D, 12, epsilon, pareto=True) == minimal
    assert len(minimal) >= 1


def test_recover_multi_none_when_unreachable():
    assert recover_multi(CANONICAL_2D, 5, 1e-12) is None
    assert recover_multi(CANONICAL_2D, 5, 1e-12, pareto=True) == []


def test_recover_multi_per_axis_limits():
    # axis limits can differ; result components respect them
    result = recover_multi(CANONICAL_2D, (30, 4), 2e-3)
    assert result is not None
    assert result[1] <= 4


def test_recover_multi_validation():
    with pytest.raises(ValueError):
        recover_multi(CANONICAL_2D, 10, -1e-3)
    with pytest.raises(ValueError):
        recover_multi(CANONICAL_2D, (10, 10, 10), 1e-3)
    with pytest.raises(ValueError):
        recover_multi(CANONICAL_2D, 0, 1e-3)
    with pytest.raises(ValueError, match="positive integers"):
        recover_multi(CANONICAL_2D, True, 1e-3)


def test_coordinatewise_recover_round_trip():
    scale1 = 0.2 * math.sqrt(2.0 * math.pi)
    sums = partial_sums(Canonical(), 10)
    targets = (scale1 * sums[2], scale1 * sums[6])
    assert coordinatewise_recover(CANONICAL_2D, targets, 1e-9, 10) == (3, 7)


def test_coordinatewise_recover_fails_closed():
    assert coordinatewise_recover(CANONICAL_2D, (0.5, 0.01), 1e-6, 10) is None


@pytest.mark.parametrize(
    "call",
    [
        lambda n: recover_multi(CANONICAL_2D, n(5), 1e-2),
        lambda n: recover_multi(CANONICAL_2D, [n(5), 5], 1e-2),
        lambda n: coordinatewise_recover(CANONICAL_2D, (0.03, -0.03), 1e-2, n(30)),
        lambda n: integral_multi(CANONICAL_2D, (n(2), 3)),
    ],
    ids=["recover_multi", "axis_limit_list", "coordinatewise_recover", "integral_multi"],
)
def test_numpy_integers_count_as_integers(call):
    expected = call(int)
    assert expected is not None
    assert call(np.int64) == expected


def test_coordinatewise_recover_validation():
    with pytest.raises(ValueError, match="one target per axis"):
        coordinatewise_recover(CANONICAL_2D, (0.1,), 1e-3, 10)
