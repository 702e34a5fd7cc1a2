import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    IntegralTable,
    Mode,
    RecoveryMethod,
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

FRACTIONAL = EncoderConfig(family=Canonical(), delta=0.2, mode=Mode.FRACTIONAL)


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
    result = recover_threshold(table30, 0.13)
    assert result.n == 2
    assert result.residual == 0.06266570686577501
    assert result.stable  # residual below epsilon / 2


def test_threshold_local_min_only_matches_the_last_row(table30):
    # magnitudes shrink monotonically, so interior rows always lose to
    # their successor and the table edge is the only local minimum
    result = recover_threshold(table30, 0.01, require_local_min=True)
    assert result.n == 30
    # stable means |I(n)| < epsilon/2, so noise below epsilon/2 cannot unseat the row
    assert not result.stable
    assert recover_threshold(table30, 0.02, require_local_min=True).stable


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
    for target in neighbours(value - epsilon) + neighbours(value + epsilon):
        expected = scan(table.values, target, epsilon)
        assert outcome(recover_match(table, target, epsilon), RecoveryMethod.TABLE_SCAN) == expected
        assert outcome(recover_binary(table, target, epsilon), RecoveryMethod.TABLE_BINARY) == expected
    for threshold in neighbours(abs(value)):
        expected = scan(table.values, 0.0, threshold)
        assert outcome(recover_threshold(table, threshold), RecoveryMethod.THRESHOLD) == expected


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


TWO_ROWS = IntegralTable(delta=None, family=None, values=np.array([0.1, 0.05]))


def test_spline_none_when_level_is_never_reached(table30, monkeypatch):
    def fail(values):
        raise AssertionError("the spline was fitted")

    monkeypatch.setattr("smoothint.recovery.spline_fit", fail)
    assert recover_spline(table30, 0.5, tol=1e-9) is None
    # decided before the fit, so a table too short to fit is no obstacle
    assert recover_spline(TWO_ROWS, 0.5) is None


def test_spline_on_a_table_too_short_to_fit():
    with pytest.raises(ValueError, match="at least 3 points"):
        recover_spline(TWO_ROWS, 0.07)


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
        target = integral_closed(FRACTIONAL, true_n)
        result = recover_analytic_fractional(FRACTIONAL, target, math.floor(true_n))
        assert result.n == pytest.approx(true_n, abs=1e-12)
        assert result.method is RecoveryMethod.ANALYTIC_LOCAL
        assert result.residual < 1e-15
        assert result.stable


def test_analytic_rejects_target_outside_segment():
    with pytest.raises(ValueError, match="outside"):
        recover_analytic_fractional(FRACTIONAL, 0.5, 3)


def test_analytic_rejects_bad_segment():
    with pytest.raises(ValueError):
        recover_analytic_fractional(FRACTIONAL, 0.0, -1)
    with pytest.raises(TypeError):
        recover_analytic_fractional(FRACTIONAL, 0.0, 1.5)


def test_analytic_zero_slope_is_singular():
    flat = EncoderConfig(family=Generalized(alpha=0.0, beta=0.0, gamma=1.0), delta=0.2)
    with pytest.raises(ValueError, match="zero slope"):
        recover_analytic_fractional(flat, 0.0, 2)


def test_analytic_stability_flag():
    # |dI/dN| = area_scale(0.2) * |a_21| of Trig is about 1.8e-11, below
    # DEFAULT_STABILITY_EPSILON
    trig = EncoderConfig(family=Trig(), delta=0.2, mode=Mode.FRACTIONAL)
    result = recover_analytic_fractional(trig, integral_closed(trig, 20.5), 20)
    assert not result.stable


@pytest.mark.parametrize("delta, stable", [(1e-6, False), (0.2, True)])
def test_both_inversions_flag_stability_on_the_slope_dI_dN(delta, stable):
    # at N = 20 on Canonical, dI/dN = area_scale(delta) * |a_21| is 1.2e-7 at
    # delta = 1e-6 and 0.024 at delta = 0.2, on either side of
    # DEFAULT_STABILITY_EPSILON, so both inversions must agree
    fractional = EncoderConfig(family=Canonical(), delta=delta, mode=Mode.FRACTIONAL)
    target = integral_closed(fractional, 20.0)
    table = build_table(EncoderConfig(family=Canonical(), delta=delta), 30)
    assert table.value_at(20) == target
    assert recover_analytic_fractional(fractional, target, 20).stable is stable
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


def test_noise_sweep_validation(table30):
    with pytest.raises(ValueError):
        noise_sweep(table30, 8, 0.005, [-0.1])
    with pytest.raises(ValueError):
        noise_sweep(table30, 8, 0.005, [0.1], trials=0)
    with pytest.raises(ValueError):
        noise_sweep(table30, 99, 0.005, [0.1])


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
