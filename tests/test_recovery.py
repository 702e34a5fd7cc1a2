import bisect
import copy
import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothint import (
    FAMILIES,
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    IntegralTable,
    RecoveryMethod,
    RecoveryResult,
    Trig,
    area_scale,
    build_table,
    integral_closed,
    noise_sweep,
    recover_analytic_fractional,
    recover_binary,
    recover_match,
    recover_spline,
    recover_threshold,
    tail_bound,
)
from smoothint import recovery

CONFIG = EncoderConfig(family=Canonical(), delta=0.2)


def scan(values, target, epsilon):
    """(n, residual, stable) of the first row within epsilon, by a full scan."""
    residuals = np.abs(values - target)
    hits = np.flatnonzero(residuals < epsilon)
    if hits.size == 0:
        return None
    residual = float(residuals[hits[0]])
    return int(hits[0]) + 1, residual, residual < epsilon / 2.0


def outcome(result, method):
    if result is None:
        return None
    assert result.method is method
    return result.n, result.residual, result.stable


def neighbours(x):
    return [float(np.nextafter(x, -np.inf)), float(x), float(np.nextafter(x, np.inf))]


def assert_searches_equal_the_scan(table, target, epsilon):
    expected = scan(table.values, target, epsilon)
    binary_tag = RecoveryMethod.TABLE_BINARY if table.supports_binary else RecoveryMethod.TABLE_SCAN
    assert outcome(recover_match(table, target, epsilon), RecoveryMethod.TABLE_SCAN) == expected
    assert outcome(recover_binary(table, target, epsilon), binary_tag) == expected
    if target == 0.0:
        assert outcome(recover_threshold(table, epsilon), RecoveryMethod.THRESHOLD) == expected


def edge_targets(value, epsilon):
    """Targets on the edges of a row's tolerance and the floats beside them."""
    return neighbours(value - epsilon) + neighbours(value + epsilon)


@st.composite
def alternating_rows(draw):
    """A table alternating in sign under shrinking magnitudes, a row and an epsilon.

    Half the tables are Canonical; the others are provenance-free, with
    magnitudes from a small pool per parity class so that repeats occur.
    """
    n = draw(st.integers(min_value=1, max_value=2000))
    if draw(st.booleans()):
        table = build_table(EncoderConfig(family=Canonical(), delta=0.2), n)
    else:
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        magnitudes = np.empty(n)
        for start in (0, 1):
            count = len(range(start, n, 2))
            pool = 10.0 ** rng.uniform(-12.0, 3.0, size=count // 3 + 1)
            magnitudes[start::2] = np.sort(rng.choice(pool, size=count))[::-1]
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * draw(st.sampled_from([1.0, -1.0]))
        table = IntegralTable(delta=None, family=None, values=signs * magnitudes)
    assert table.supports_binary
    i = draw(st.integers(min_value=0, max_value=n - 1))
    epsilon = abs(float(table.values[i])) * 10.0 ** draw(st.floats(min_value=-8.0, max_value=0.5))
    return table, i, epsilon


def test_threshold_first_crossing(table30):
    result = recover_threshold(table30, 0.01)
    assert result.n == 25
    assert result.residual == 0.009826143305595595
    assert result.method is RecoveryMethod.THRESHOLD
    assert not result.stable  # residual above epsilon / 2


def test_threshold_stable_flag(table30):
    # stable means |I(n)| < epsilon/2, so noise below epsilon/2 cannot unseat the row
    result = recover_threshold(table30, 0.13)
    assert result.n == 2
    assert result.residual == 0.06266570686577501
    assert result.stable  # residual below epsilon / 2


def test_threshold_none_when_too_tight(table30):
    assert recover_threshold(table30, 1e-6) is None


def test_threshold_epsilon_validation(table30):
    with pytest.raises(ValueError):
        recover_threshold(table30, 0.0)
    with pytest.raises(ValueError):
        recover_threshold(table30, math.nan)


def test_match_known_target(table30):
    result = recover_match(table30, 0.028, 0.005)
    assert result.n == 8
    assert result.residual == 0.001190376326873837
    assert result.method is RecoveryMethod.TABLE_SCAN
    assert result.stable


def test_match_prefers_smallest_index(table30):
    # huge epsilon: every row qualifies, the first must win
    result = recover_match(table30, 0.0, 1.0)
    assert result.n == 1


def test_match_none_when_nothing_close(table30):
    assert recover_match(table30, 0.5, 1e-3) is None


def test_match_validation(table30):
    with pytest.raises(ValueError):
        recover_match(table30, math.inf, 0.1)
    with pytest.raises(ValueError):
        recover_match(table30, 0.0, -0.1)


def test_binary_equals_match_on_known_target(table30):
    result = recover_binary(table30, 0.028, 0.005)
    assert result.n == 8
    assert result.residual == 0.001190376326873837
    assert result.method is RecoveryMethod.TABLE_BINARY


@settings(max_examples=300)
@given(
    target=st.floats(min_value=-0.3, max_value=0.3),
    epsilon=st.sampled_from([1e-4, 1e-3, 1e-2, 5e-2]),
)
def test_binary_equals_match_everywhere(table30, target, epsilon):
    scan = recover_match(table30, target, epsilon)
    fast = recover_binary(table30, target, epsilon)
    if scan is None:
        assert fast is None
    else:
        assert fast.n == scan.n
        assert fast.residual == scan.residual


@settings(max_examples=300, deadline=None)
@given(case=alternating_rows())
def test_searches_equal_the_scan_at_tolerance_edges(case):
    # targets on the edge of row i's tolerance, where a search comparing
    # against target +/- epsilon instead of |value - target| can disagree
    table, i, epsilon = case
    value = float(table.values[i])
    for target in edge_targets(value, epsilon):
        assert_searches_equal_the_scan(table, target, epsilon)
    for threshold in neighbours(abs(value)):
        assert_searches_equal_the_scan(table, 0.0, threshold)


def test_binary_agrees_with_scan_at_a_boundary_target():
    # a target 5.6e-7 off row 250; a search on target +/- epsilon bounds
    # once missed it and returned None
    table = build_table(EncoderConfig(family=Canonical(), delta=0.2), 1000)
    target, epsilon = 0.0010000812132554039, 5.64810019186582e-07
    expected = (250, 5.648100191864812e-07, False)
    assert scan(table.values, target, epsilon) == expected
    assert outcome(recover_match(table, target, epsilon), RecoveryMethod.TABLE_SCAN) == expected
    assert outcome(recover_binary(table, target, epsilon), RecoveryMethod.TABLE_BINARY) == expected


def test_binary_falls_back_without_alternation():
    table = IntegralTable(delta=None, family=None, values=np.array([0.3, 0.2, 0.1]))
    assert not table.supports_binary
    result = recover_binary(table, 0.2, 0.05)
    assert result.n == 2
    assert result.method is RecoveryMethod.TABLE_SCAN  # degraded path is visible


@st.composite
def family_tables(draw):
    """A table of any registered family, with drawn parameters, at 1-3 or up to 2000 rows."""
    kind = draw(st.sampled_from(sorted(FAMILIES) + ["turning"]))
    if kind == "generalized":
        family = Generalized(
            draw(st.floats(min_value=-0.99, max_value=0.99)),
            draw(st.floats(min_value=-3.0, max_value=3.0)),
            draw(st.floats(min_value=1.0, max_value=3.0)),
        )
    elif kind == "exppoly":
        family = ExpPoly(draw(st.floats(min_value=1.0, max_value=4.0)))
    elif kind == "turning":
        family = Generalized(0.99, 1.0, 1.0)  # its even-N class turns near N = 724
    else:
        family = FAMILIES[kind]()
    n = draw(st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2000)))
    delta = draw(st.sampled_from([1e-3, 0.2, 5.0]))
    return build_table(EncoderConfig(family=family, delta=delta), n)


@settings(max_examples=200, deadline=None)
@given(
    table=family_tables(),
    row=st.integers(min_value=0),
    exponent=st.floats(min_value=-14.0, max_value=0.5),
)
def test_every_family_searches_equal_the_scan(table, row, exponent):
    value = float(table.values[row % table.n_max])
    epsilon = max(abs(value), 1e-300) * 10.0**exponent
    for target in edge_targets(value, epsilon):
        assert_searches_equal_the_scan(table, target, epsilon)
    for threshold in neighbours(abs(value)):
        if threshold > 0.0:
            assert_searches_equal_the_scan(table, 0.0, threshold)
    # misses: beyond every row, and between the rows at a tolerance finer than their spacing
    assert_searches_equal_the_scan(table, float(np.max(np.abs(table.values))) + 1.0, epsilon)
    assert_searches_equal_the_scan(table, value + 2.0 * epsilon, epsilon / 4.0)


@pytest.mark.parametrize(
    "values, class_rising, supports_binary",
    [
        # flat runs in both classes
        ([3.0, -1.0, 2.0, -1.0, 2.0, -1.0, 2.0, -0.5, 1.0, -0.5, 1.0], (False, True), True),
        # both classes flat from the start, the shape of Trig's rows past row 34
        ([-0.3, -0.2, -0.3, -0.2, -0.3, -0.2], (True, True), False),
        # +0.0 beside -0.0: the comparisons treat them as equal
        ([0.0, -0.0, -0.0, 0.0, 0.0, -0.0], (True, True), False),
        ([1.0, -0.0, 0.0, 0.0, -0.0], (False, True), False),
        # one element out of order in the even-row class
        ([1.0, 0.0, 3.0, 0.0, 2.0, 0.0, 4.0], None, False),
        ([2.0, -1.0, 1.5, -0.5, 1.6, -0.25, 0.5], None, False),
    ],
)
def test_crafted_tables_search_as_the_scan(values, class_rising, supports_binary):
    table = IntegralTable(delta=None, family=None, values=np.array(values))
    assert table.class_rising == class_rising
    assert table.supports_binary is supports_binary
    for epsilon in (1e-3, 0.25, 0.5, 1.0, 2.0):
        for value in set(values) | {0.0}:
            for target in edge_targets(value, epsilon):
                assert_searches_equal_the_scan(table, target, epsilon)
        assert_searches_equal_the_scan(table, 0.0, epsilon)


def alternating(magnitudes):
    return np.array([m if i % 2 == 0 else -m for i, m in enumerate(magnitudes)])


TINY = alternating([3e-300, 2e-300, 1e-300, 1e-300, 5e-301, 0.0])
SUBNORMAL = alternating([4e-323, 3e-323, 2e-323, 1e-323, 5e-324, 5e-324, 0.0])
CANONICAL_1001 = build_table(EncoderConfig(family=Canonical(), delta=0.2), 1001).values


def read_only(values):
    values = np.array(values)
    values.flags.writeable = False
    return values


@pytest.mark.parametrize(
    "values, targets, epsilons",
    [
        # |target| far above epsilon: fl(target -/+ epsilon) is target itself
        (CANONICAL_1001, [0.5, -0.5, 1e3], [1e-17, 1e-12]),
        # epsilon far above |target|: fl(target -/+ epsilon) is -/+epsilon
        (CANONICAL_1001, [1e-300, -1e-300, 5e-324], [0.05, 0.2]),
        # a target of 1e20 beside rows near 1e-300, where v - target rounds to -target
        (TINY, [1e20, -1e20], [1e20, 2e20, 1e4]),
        (SUBNORMAL, [0.0, -0.0, 5e-324, -5e-324, 1.5e-323], [5e-324, 1e-323, 2e-323, 1e-300]),
        (np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0]), [0.0, -0.0, 5e-324, -5e-324], [5e-324, 1.0]),
        # views the search must read in place: reversed, read-only, both
        (CANONICAL_1001[::-1], [0.01, -0.003], [1e-6, 1e-3]),
        (read_only(CANONICAL_1001), [0.01, -0.003], [1e-6, 1e-3]),
        (read_only(TINY)[::-1], [1e-300, 0.0], [1e-300, 5e-301]),
    ],
    ids=["big-target", "big-epsilon", "1e20-target", "subnormal", "signed-zeros", "reversed",
         "read-only", "reversed-read-only"],
)
def test_searches_equal_the_scan_where_the_level_rounds(values, targets, epsilons):
    table = IntegralTable(delta=None, family=None, values=values)
    assert table.class_rising is not None
    assert table.values.flags.writeable == values.flags.writeable
    assert np.shares_memory(table.values, values)  # the table keeps the caller's view
    for epsilon in epsilons:
        for target in targets:
            for t in neighbours(target) + edge_targets(target, epsilon):
                if math.isfinite(t):
                    assert_searches_equal_the_scan(table, t, epsilon)
        for value in set(values[:: max(1, values.size // 50)].tolist()):
            for target in edge_targets(value, epsilon):
                assert_searches_equal_the_scan(table, target, epsilon)


def c_hint(rows, target, epsilon, rising):
    """The bisection's first guess: the first row beyond the rounded level target -/+ epsilon."""
    if rising:
        return bisect.bisect_right(rows, target - epsilon)
    return bisect.bisect_right([-v for v in rows], -(target + epsilon))


def scan_start(rows, target, epsilon, rising):
    """The scan's start of the run: the first row whose gap exceeds -epsilon."""
    gaps = [v - target if rising else target - v for v in rows]
    return next((k for k, gap in enumerate(gaps) if gap > -epsilon), len(rows))


@pytest.mark.parametrize(
    "rows, target, epsilon, rising, late, hit",
    [
        # fl(target - epsilon) rounds onto row 2, whose gap is above -epsilon
        ([-5.0, -4.0, 0.09998861868168263, 1.0, 2.0], 0.1, 1.1381318317382854e-05, True, True, True),
        # fl(target - epsilon) rounds below row 1, whose gap is at -epsilon
        ([-5.0, 0.01782141633691187, 1.0, 2.0], 0.1, 0.08217858366308814, True, False, False),
        ([5.0, 4.0, -1.7431387344500968, -3.0, -4.0], -1.743142250751236, 3.5163011391816637e-06,
         False, True, True),
        ([5.0, -0.1745759069011457, -3.0], -0.5247881549107163, 0.3502122480095706,
         False, False, False),
    ],
    ids=["rising-late", "rising-early", "falling-late", "falling-early"],
)
def test_a_hint_a_row_off_is_corrected_on_its_side(rows, target, epsilon, rising, late, hit):
    # a late hint is finished below it, an early one above it
    hint, start = c_hint(rows, target, epsilon, rising), scan_start(rows, target, epsilon, rising)
    assert hint == start + 1 if late else hint == start - 1
    values = np.full(2 * len(rows), 100.0)
    values[0::2] = rows
    table = IntegralTable(delta=None, family=None, values=values)
    assert table.class_rising == (rising, True)
    assert_searches_equal_the_scan(table, target, epsilon)
    assert (recover_match(table, target, epsilon) is not None) is hit


def test_a_trig_table_is_bisected_but_keeps_the_scan_tag(monkeypatch):
    table = build_table(EncoderConfig(family=Trig(), delta=0.2), 10**4)
    # odd N rise toward the limit -ln(1 + 1/e), even N fall toward it, so
    # both classes are monotone but share one sign
    assert table.class_rising == (True, False)
    assert not table.supports_binary
    target, epsilon = table.value_at(5), 1e-9
    expected = scan(table.values, target, epsilon)

    def fail(*args, **kwargs):
        raise AssertionError("the table was scanned")

    monkeypatch.setattr(np, "flatnonzero", fail)
    assert outcome(recover_match(table, target, epsilon), RecoveryMethod.TABLE_SCAN) == expected
    assert outcome(recover_binary(table, target, epsilon), RecoveryMethod.TABLE_SCAN) == expected
    assert expected[0] == 5


def test_spline_hits_exact_knot(table30):
    target = table30.value_at(8)
    result = recover_spline(table30, target, tol=1e-9)
    assert result.n == 8.0
    assert result.residual == 0.0
    assert result.method is RecoveryMethod.SPLINE
    assert result.nearest_integer == 8
    assert result.stable


def test_spline_roots_the_first_crossing(table30):
    result = recover_spline(table30, 0.0, tol=1e-12)
    assert result.n == pytest.approx(1.6185897451570046, abs=1e-9)
    assert result.nearest_integer == 2
    assert result.residual < 1e-12


def test_spline_none_when_level_is_never_reached(table30, monkeypatch):
    def fail(values):
        raise AssertionError("the spline was fitted")

    monkeypatch.setattr("smoothint.recovery.spline_fit", fail)
    assert recover_spline(table30, 0.5, tol=1e-9) is None


def test_spline_knot_residual_is_read_from_the_table(table30):
    # the spline evaluated at row 30 is 1.7e-18 off that row's value
    assert recover_spline(table30, table30.value_at(30)).residual == 0.0
    target = table30.value_at(30) + 1e-12
    result = recover_spline(table30, target)
    assert result.n == 30.0
    assert result.residual == abs(table30.value_at(30) - target)


@pytest.mark.parametrize("values", [[0.1], [0.1, 0.05]], ids=["1 row", "2 rows"])
@pytest.mark.parametrize("target", [0.07, 0.1, 0.5], ids=["crossing", "knot", "miss"])
def test_spline_on_a_table_too_short_to_fit(monkeypatch, values, target):
    def fail(*args, **kwargs):
        raise AssertionError("the table was scanned")

    table = IntegralTable(delta=None, family=None, values=np.array(values))
    monkeypatch.setattr(np, "flatnonzero", fail)
    with pytest.raises(ValueError, match=f"^spline recovery needs at least 3 rows, got {len(values)}$"):
        recover_spline(table, target)


@pytest.mark.parametrize(
    "target, n",
    [(0.0, 1.6185897452796862), (1.000001 * 0.02377784348560247, 1.7081959489124905), (0.0292, 1.731698503305056)],
)
def test_spline_finds_crossings_where_a_product_of_gaps_underflows(table30, target, n):
    # targets: a crossing of 0, one just past row 10's value, and 0.0292;
    # the delta = 0.2 table times 2**-560 is that table scaled exactly, and
    # a product of two of its gaps underflows to zero
    scale = math.ldexp(1.0, -560)
    scaled = build_table(EncoderConfig(Canonical(), math.ldexp(0.2, -560)), 30)
    assert np.array_equal(scaled.values, table30.values * scale)
    expected = recover_spline(table30, target)
    result = recover_spline(scaled, target * scale, tol=1e-9 * scale)
    assert expected.n == n
    assert result.n == n
    assert result.residual == expected.residual * scale


def test_spline_stability_threshold():
    # the slope there, 1e-9 per row, is below DEFAULT_STABILITY_EPSILON
    flat = IntegralTable(delta=None, family=None, values=[0.0, 1e-9, 2e-9, 3e-9])
    result = recover_spline(flat, 1.5e-9, tol=1e-15)
    assert result.n == 2.5
    assert not result.stable


def test_spline_tol_validation(table30):
    with pytest.raises(ValueError, match="tol"):
        recover_spline(table30, 0.0, tol=-1.0)


def test_analytic_round_trip():
    for true_n in (0.4, 1.5, 7.25, 19.999):
        target = integral_closed(CONFIG, true_n)
        result = recover_analytic_fractional(CONFIG, target, math.floor(true_n))
        assert result.n == pytest.approx(true_n, abs=1e-12)
        assert result.method is RecoveryMethod.ANALYTIC_LOCAL
        assert result.residual < 1e-15
        assert result.stable


def test_analytic_rejects_target_outside_segment():
    with pytest.raises(ValueError, match="outside"):
        recover_analytic_fractional(CONFIG, 0.5, 3)


def test_analytic_rejects_bad_segment():
    with pytest.raises(ValueError):
        recover_analytic_fractional(CONFIG, 0.0, -1)
    with pytest.raises(TypeError):
        recover_analytic_fractional(CONFIG, 0.0, 1.5)


def test_analytic_zero_slope_is_singular():
    flat = EncoderConfig(family=Generalized(alpha=0.0, beta=0.0, gamma=1.0), delta=0.2)
    with pytest.raises(ValueError, match="zero slope"):
        recover_analytic_fractional(flat, 0.0, 2)


def test_analytic_stability_flag():
    # |dI/dN| = area_scale(0.2) * |a_21| of Trig is about 1.8e-11, below
    # DEFAULT_STABILITY_EPSILON
    trig = EncoderConfig(family=Trig(), delta=0.2)
    result = recover_analytic_fractional(trig, integral_closed(trig, 20.5), 20)
    assert not result.stable


@pytest.mark.parametrize("delta, stable", [(1e-6, False), (0.2, True)])
def test_both_inversions_flag_stability_on_the_slope_dI_dN(delta, stable):
    # at N = 20 on Canonical, dI/dN = area_scale(delta) * |a_21| is 1.2e-7 at
    # delta = 1e-6 and 0.024 at delta = 0.2, on either side of
    # DEFAULT_STABILITY_EPSILON, so both inversions must agree
    config = EncoderConfig(family=Canonical(), delta=delta)
    target = integral_closed(config, 20.0)
    table = build_table(config, 30)
    assert table.value_at(20) == target
    assert recover_analytic_fractional(config, target, 20).stable is stable
    assert recover_spline(table, target).stable is stable


def test_tail_bound_sizes_a_threshold_that_reaches_the_table():
    for n_max in (10, 30, 100):
        table = build_table(EncoderConfig(family=Canonical(), delta=0.2), n_max)
        # |I(n_max)| = area_scale * |S(n_max)| <= area_scale * tail_bound, so some row qualifies
        assert recover_threshold(table, area_scale(0.2) * tail_bound(Canonical(), n_max)) is not None


def test_noise_sweep_baselines(table30):
    results = noise_sweep(table30, 8, 0.005, [0.0, 0.002], trials=100, seed=0)
    assert results == [(0.0, 1.0), (0.002, 1.0)]


def test_noise_sweep_known_degradation(table30):
    # at this amplitude most draws land within epsilon of a different row
    [(amplitude, accuracy)] = noise_sweep(table30, 8, 0.005, [0.05], trials=1000, seed=0)
    assert amplitude == 0.05
    assert accuracy == 0.081


def test_noise_sweep_is_reproducible(table30):
    a = noise_sweep(table30, 8, 0.005, [0.01, 0.02], trials=50, seed=123)
    b = noise_sweep(table30, 8, 0.005, [0.01, 0.02], trials=50, seed=123)
    assert a == b


@pytest.mark.parametrize("trials", [7, 8, 100])
def test_noise_sweep_in_blocks_equals_one_block(table30, monkeypatch, trials):
    # one block of 2**16 draws holds every trial count here; blocks of 7 split them
    amplitudes = [0.0, 0.01, 0.05]
    whole = noise_sweep(table30, 8, 0.005, amplitudes, trials=trials, seed=3)
    monkeypatch.setattr(recovery, "_SWEEP_BLOCK_DRAWS", 7)
    assert noise_sweep(table30, 8, 0.005, amplitudes, trials=trials, seed=3) == whole


def test_noise_sweep_refuses_trials_over_the_cap_before_drawing(table30, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the generator was called")

    monkeypatch.setattr(np.random, "default_rng", fail)
    with pytest.raises(ValueError, match="^trials = 10000000000000 exceeds the limit of 10000000$"):
        noise_sweep(table30, 8, 0.005, [0.001], trials=10**13)


def test_noise_sweep_validation(table30):
    with pytest.raises(ValueError):
        noise_sweep(table30, 8, 0.005, [-0.1])
    with pytest.raises(ValueError):
        noise_sweep(table30, 8, 0.005, [0.1], trials=0)
    with pytest.raises(ValueError):
        noise_sweep(table30, 99, 0.005, [0.1])
    half = sys.float_info.max / 2  # the largest amplitude A whose draws' width 2A is finite
    assert noise_sweep(table30, 8, 0.005, [half], trials=3) == [(half, 0.0)]
    for amplitude in (math.nextafter(half, math.inf), 1e308):
        message = f"^noise amplitude must be at most half the largest float, got {re.escape(repr(amplitude))}$"
        with pytest.raises(ValueError, match=message):
            noise_sweep(table30, 8, 0.005, [0.001, amplitude])


def replay_sweep(table, true_n, epsilon, amplitudes, trials, seed):
    """noise_sweep's contract, one scan per draw."""
    rng = np.random.default_rng(seed)
    true_value = table.value_at(true_n)
    results = []
    for amplitude in amplitudes:
        hits = 0
        for shift in rng.uniform(-amplitude, amplitude, trials):
            found = scan(table.values, true_value + shift, epsilon)
            hits += found is not None and found[0] == true_n
        results.append((amplitude, hits / trials))
    return results


@pytest.mark.parametrize(
    "family", [Trig(), ExpPoly(p=1.0), Generalized(0.3, 2.0, 1.5), Canonical()], ids=repr
)
@pytest.mark.parametrize("true_n", [1, 7, 40])
def test_noise_sweep_equals_per_draw_scan(family, true_n):
    table = build_table(EncoderConfig(family=family, delta=0.2), 40)
    assert table.supports_binary == isinstance(family, Canonical)
    values = table.values
    # just inside the gap to the closest distinct row, so noisy draws reach
    # other rows too
    gaps = np.abs(values - values[true_n - 1])
    epsilon = 0.75 * float(np.min(gaps[gaps > 0.0]))
    amplitudes = [0.0, epsilon / 2.0, 2.0 * epsilon, 50.0 * epsilon]
    expected = replay_sweep(table, true_n, epsilon, amplitudes, 200, seed=5)
    assert noise_sweep(table, true_n, epsilon, amplitudes, trials=200, seed=5) == expected


# one table of each family kind, plus a crafted one whose even-row class turns
COPIED_TABLES = {
    "canonical": build_table(EncoderConfig(family=Canonical(), delta=0.2), 3000),
    "generalized": build_table(EncoderConfig(family=Generalized(0.3, 2.0, 1.5), delta=0.2), 3000),
    "exppoly": build_table(EncoderConfig(family=ExpPoly(2.0), delta=0.2), 3000),
    "trig": build_table(EncoderConfig(family=Trig(), delta=0.2), 3000),
    "turning": IntegralTable(delta=None, family=None, values=np.array([1.0, 0.0, 3.0, 0.0, 2.0, 0.0, 4.0])),
}


def every_answer(table):
    """Each recover_* answer at the first, middle and last row and at zero."""
    values = table.values
    targets = [values.item(0), values.item(values.size // 2), values.item(-1), 0.0]
    answers = []
    for target in targets:
        for epsilon in (1e-9, 1e-3, 0.5):
            answers += [recover_match(table, target, epsilon), recover_binary(table, target, epsilon)]
        answers.append(recover_spline(table, target))
    answers += [recover_threshold(table, epsilon) for epsilon in (1e-9, 1e-3, 0.5)]
    return answers


@pytest.mark.parametrize("kind", COPIED_TABLES)
@pytest.mark.parametrize(
    "duplicate", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_copied_table_rebuilds_its_search_structure(kind, duplicate):
    assert set(COPIED_TABLES) - {"turning"} == set(FAMILIES)
    table = COPIED_TABLES[kind]
    twin = duplicate(table)
    assert twin is not table and twin.values is not table.values
    assert twin.values.tobytes() == table.values.tobytes()
    assert (twin.delta, twin.family) == (table.delta, table.family)
    assert twin.class_rising == table.class_rising
    assert (twin.class_rising is None) is (kind == "turning")
    assert twin.supports_binary is table.supports_binary
    assert every_answer(twin) == every_answer(table)


def test_a_pickled_table_holds_its_rows_once():
    table = COPIED_TABLES["canonical"]
    assert len(pickle.dumps(table)) < table.values.nbytes + 1024


def test_recovery_result_is_an_immutable_record():
    result = RecoveryResult(n=2.6, residual=1e-12, method=RecoveryMethod.SPLINE, stable=True)
    assert RecoveryResult._fields == ("n", "residual", "method", "stable")
    assert tuple(result) == (2.6, 1e-12, RecoveryMethod.SPLINE, True)
    assert repr(result) == (
        "RecoveryResult(n=2.6, residual=1e-12, method=<RecoveryMethod.SPLINE: 'spline'>, stable=True)"
    )
    assert result == RecoveryResult(2.6, 1e-12, RecoveryMethod.SPLINE, True)
    assert result != RecoveryResult(2.6, 1e-12, RecoveryMethod.SPLINE, False)
    assert result.nearest_integer == 3
    for name in RecoveryResult._fields:
        with pytest.raises(AttributeError):
            setattr(result, name, 0)
