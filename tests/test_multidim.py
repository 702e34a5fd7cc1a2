import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    MultiEncoderConfig,
    Trig,
    build_table,
    coordinatewise_recover,
    integral_multi,
    partial_sums,
    recover_match,
    recover_multi,
)
from smoothint import coefficients, multidim
from smoothint.coefficients import FAMILIES

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


def _grid(config, limits):
    return integral_multi(config, [np.arange(1, limit + 1) for limit in limits])


def _grid_hits(config, limits, epsilon):
    # every cell at once; argwhere lists them in lexicographic order
    grid = _grid(config, limits)
    return [tuple(int(i) + 1 for i in index) for index in np.argwhere(np.abs(grid) < epsilon)]


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 4e-4])
def test_recover_multi_equals_exhaustive_search(epsilon):
    hits = _grid_hits(CANONICAL_2D, (12, 12), epsilon)
    expected = min(hits) if hits else None
    assert recover_multi(CANONICAL_2D, 12, epsilon) == expected


def _minimal(hits):
    return sorted(
        c
        for c in hits
        if not any(o != c and all(a <= b for a, b in zip(o, c)) for o in hits)
    )


def test_recover_multi_pareto_equals_exhaustive_filter():
    cases = [
        (CANONICAL_2D, 12, 1e-3),
        # 3-D mixed families: the first hit (2, 3, 2) of prefix (2, 3) is
        # dominated by (2, 1, 2), which has another prefix
        (MultiEncoderConfig(families=(Canonical(), Trig(), ExpPoly(2.0)), delta=0.2), 9, 3e-3),
    ]
    for config, limit, epsilon in cases:
        hits = _grid_hits(config, (limit,) * config.dimension, epsilon)
        minimal = _minimal(hits)
        assert recover_multi(config, limit, epsilon, pareto=True) == minimal
        assert len(hits) > len(minimal) >= 1


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
    with pytest.raises(TypeError, match="n_max must be an integer"):
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


# valid values for every parameter a registered family declares
PARAMETERS = {
    "alpha": st.floats(min_value=-0.99, max_value=0.99),
    "beta": st.floats(min_value=-10.0, max_value=10.0),
    "gamma": st.floats(min_value=1.0, max_value=4.0),
    "p": st.floats(min_value=1.0, max_value=4.0),
}


@st.composite
def multidim_cases(draw):
    dimension = draw(st.sampled_from([2, 3]))
    families = []
    for _ in range(dimension):
        cls = FAMILIES[draw(st.sampled_from(list(FAMILIES)))]
        families.append(cls(**{f.name: draw(PARAMETERS[f.name]) for f in dataclasses.fields(cls)}))
    limits = draw(st.lists(st.integers(1, 12), min_size=dimension, max_size=dimension))
    config = MultiEncoderConfig(families=tuple(families), delta=0.2)
    # epsilon is a power of ten, one of the grid's own magnitudes, or one
    # ulp above it; at the last two the prune must round as the integral does
    magnitudes = np.abs(_grid(config, limits)).ravel()
    edge = float(magnitudes[draw(st.integers(0, magnitudes.size - 1))])
    epsilon = draw(
        st.sampled_from(
            [10.0 ** draw(st.floats(min_value=-6.0, max_value=-1.0)), edge, math.nextafter(edge, math.inf)]
        ).filter(lambda e: e > 0.0)
    )
    return config, limits, epsilon


def _assert_both_modes_equal_brute_force(config, limits, epsilon):
    hits = _grid_hits(config, limits, epsilon)
    assert recover_multi(config, limits, epsilon) == (min(hits) if hits else None)
    assert recover_multi(config, limits, epsilon, pareto=True) == _minimal(hits)
    return hits


@given(multidim_cases())
def test_recover_multi_equals_brute_force_for_any_family_mix(case):
    _assert_both_modes_equal_brute_force(*case)


def test_recover_multi_keeps_a_tuple_whose_subtree_bound_rounds_to_epsilon():
    # |I(24, 25)| < epsilon, but the bound on the subtree of prefix (24,),
    # multiplied in another order, is not below epsilon
    epsilon = float.fromhex("0x1.a57d2fcaa979cp-14")
    hits = _assert_both_modes_equal_brute_force(CANONICAL_2D, (25, 25), epsilon)
    assert hits[0] == (24, 25)


@pytest.mark.parametrize("limits", [(7, 1, 5), (12, 12), (3, 2, 2, 2), (1,), (9,)])
def test_grid_entries_equal_one_point_integrals_bit_for_bit(limits):
    config = MultiEncoderConfig(
        families=(Generalized(0.3, 2.0, 1.5), Trig(), Canonical(), ExpPoly(2.0))[: len(limits)],
        delta=0.2,
    )
    grid = _grid(config, limits)
    assert grid.shape == limits
    for combo in itertools.product(*(range(1, limit + 1) for limit in limits)):
        assert grid[tuple(c - 1 for c in combo)] == integral_multi(config, combo)


def test_integral_multi_takes_count_arrays():
    grid = integral_multi(CANONICAL_2D, (np.array([0, 2, 1]), 3))
    assert grid.shape == (3,)
    assert grid.tolist() == [0.0, integral_multi(CANONICAL_2D, (2, 3)), integral_multi(CANONICAL_2D, (1, 3))]
    assert type(integral_multi(CANONICAL_2D, (np.int64(2), 3))) is float
    with pytest.raises(ValueError, match=">= 0"):
        integral_multi(CANONICAL_2D, (np.array([1, -1]), 1))
    with pytest.raises(TypeError):
        integral_multi(CANONICAL_2D, (np.array([1.0, 2.0]), 1))
    with pytest.raises(TypeError):
        integral_multi(CANONICAL_2D, (np.array([True]), 1))


@pytest.mark.parametrize("limits", [(1000, 1000, 1000), (100000, 100000)])
def test_large_grids_are_refused_before_allocating(monkeypatch, limits):
    def fail(*args, **kwargs):
        raise AssertionError("the grid was computed")

    monkeypatch.setattr(multidim, "partial_sums", fail)
    monkeypatch.setattr(multidim.np, "ones", fail)
    config = MultiEncoderConfig.isotropic(Canonical(), len(limits))
    with pytest.raises(ValueError, match="exceeds the limit"):
        integral_multi(config, [np.arange(1, limit + 1) for limit in limits])


def test_grid_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(coefficients, "MAX_ROWS", 12)
    assert integral_multi(CANONICAL_2D, (np.arange(3), np.arange(4))).size == 12
    with pytest.raises(ValueError, match="^cells = 13 exceeds the limit of 12$"):
        integral_multi(CANONICAL_2D, (np.arange(13), 1))


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.nan, math.inf])
def test_recover_multi_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be a positive real"):
        recover_multi(CANONICAL_2D, 10, epsilon)


@st.composite
def coordinatewise_cases(draw):
    dimension = draw(st.integers(1, 3))
    families = [
        cls(**{f.name: draw(PARAMETERS[f.name]) for f in dataclasses.fields(cls)})
        for cls in (FAMILIES[draw(st.sampled_from(list(FAMILIES)))] for _ in range(dimension))
    ]
    delta = draw(st.sampled_from([0.05, 0.2, 1.0, 3.0]))
    # the scan's chunks end after rows 256, 768, 1792, ...
    edge = st.sampled_from([255, 256, 257, 767, 768, 769, 1791, 1792, 1793])
    limits = [draw(st.one_of(edge, st.integers(1, 2000))) for _ in range(dimension)]
    epsilon = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-1.0))
    targets = []
    for family, limit in zip(families, limits):
        values = build_table(EncoderConfig(family=family, delta=delta), limit).values
        row = draw(st.one_of(edge, st.integers(1, limit)).filter(lambda r: r <= limit))
        v = float(values[row - 1])
        edges = [v - epsilon, v + epsilon]
        nudged = [math.nextafter(e, direction) for e in edges for direction in (-math.inf, math.inf)]
        targets.append(draw(st.sampled_from([v, *edges, *nudged, 10.0])))
    return MultiEncoderConfig(families=tuple(families), delta=delta), targets, epsilon, limits


@given(coordinatewise_cases())
def test_coordinatewise_recover_equals_per_axis_table_match(case):
    config, targets, epsilon, limits = case
    expected = []
    for family, target, limit in zip(config.families, targets, limits):
        table = build_table(EncoderConfig(family=family, delta=config.delta), limit)
        match = recover_match(table, target, epsilon)
        expected.append(None if match is None else match.n)
    result = coordinatewise_recover(config, targets, epsilon, limits)
    assert result == (None if None in expected else tuple(expected))


@pytest.fixture()
def canonical_rows_evaluated(monkeypatch):
    """Sizes of the row arrays passed to ``Canonical.coefficients``, in call order.

    The kept family heads are dropped before and after the test, so its
    first call is cold and no later test reads rows summed here.
    """
    evaluated = []
    exact = Canonical.coefficients

    def counting(self, ns):
        evaluated.append(len(ns))
        return exact(self, ns)

    monkeypatch.setattr(Canonical, "coefficients", counting)
    coefficients._kept_head.cache_clear()
    yield evaluated
    coefficients._kept_head.cache_clear()


def test_coordinatewise_hit_on_row_one_evaluates_only_the_first_chunk(canonical_rows_evaluated):
    config = MultiEncoderConfig.isotropic(Canonical(), 1)
    target = 0.2 * math.sqrt(2.0 * math.pi) * -0.5  # I(1)
    assert coordinatewise_recover(config, (target,), 1e-12, 10**6) == (1,)
    assert canonical_rows_evaluated == [multidim._FIRST_CHUNK_ROWS]


def test_coordinatewise_miss_scans_the_axis_in_doubling_chunks(canonical_rows_evaluated):
    config = MultiEncoderConfig.isotropic(Canonical(), 1)
    assert coordinatewise_recover(config, (10.0,), 1e-3, 10**4) is None
    assert canonical_rows_evaluated == [256, 512, 1024, 2048, 4096, 10**4 - 7936]
    canonical_rows_evaluated.clear()
    # warm: every row comes from the family's head
    assert coordinatewise_recover(config, (10.0,), 1e-3, 10**4) is None
    assert canonical_rows_evaluated == []


def test_coordinatewise_chunks_stop_doubling_at_the_cap(monkeypatch, canonical_rows_evaluated):
    monkeypatch.setattr(coefficients, "_CHUNK_ROWS", 1000)
    config = MultiEncoderConfig.isotropic(Canonical(), 1)
    assert coordinatewise_recover(config, (10.0,), 1e-3, 5000) is None
    assert canonical_rows_evaluated == [256, 512, 1000, 1000, 1000, 1000, 232]
    values = build_table(EncoderConfig(family=Canonical(), delta=0.2), 5000).values
    # rows 1768 and 1769 end one chunk and start the next
    for row in (1768, 1769, 4999):
        assert coordinatewise_recover(config, (float(values[row - 1]),), 1e-15, 5000) == (row,)


def test_coordinatewise_miss_holds_one_chunk(canonical_rows_evaluated):
    config = MultiEncoderConfig.isotropic(Canonical(), 1)
    tracemalloc.start()
    try:
        assert coordinatewise_recover(config, (10.0,), 1e-3, 2 * 10**6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert sum(canonical_rows_evaluated) == 2 * 10**6
    assert max(canonical_rows_evaluated) == coefficients._CHUNK_ROWS
    canonical_rows_evaluated.clear()
    # warm: only the rows past the family's head are evaluated
    assert coordinatewise_recover(config, (10.0,), 1e-3, 2 * 10**6) is None
    assert sum(canonical_rows_evaluated) == 2 * 10**6 - coefficients._HEAD_ROWS
    assert max(canonical_rows_evaluated) <= coefficients._CHUNK_ROWS


def test_coordinatewise_recover_refuses_a_non_finite_axis():
    # scale * S(1) = 10 * sqrt(2 pi) * (0.5 - 1e308) overflows to -inf
    config = MultiEncoderConfig(families=(Generalized(0.5, 1e308, 1.0),), delta=10.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="table values must be finite"):
        coordinatewise_recover(config, (0.0,), 1e-3, 5)
