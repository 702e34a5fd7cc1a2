import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    Heaviside,
    Sigmoid,
    Smoothstep,
    Trig,
    area_scale,
    build_table,
    coefficient,
    counter_eval,
    counter_grid,
    integral_closed,
    integral_quadrature,
    partial_sum,
    smooth_cutoff,
    term_weights,
)
from smoothint.coefficients import FAMILIES

# one instance of each registered family
FAMILY_SAMPLES = {
    "canonical": Canonical(),
    "generalized": Generalized(0.3, 2.0, 1.5),
    "exppoly": ExpPoly(2.0),
    "trig": Trig(),
}


def test_config_defaults():
    config = EncoderConfig(family=Canonical())
    assert config.delta == 0.2
    assert config.transition is None


def test_config_validation():
    with pytest.raises(ValueError, match="delta"):
        EncoderConfig(family=Canonical(), delta=0.0)


@pytest.mark.parametrize("transition", [lambda x: 0.0 * x, "sigmoid", 10.0, Sigmoid])
def test_transition_must_be_one_of_the_three(transition):
    with pytest.raises(TypeError, match="^transition must be a Sigmoid, Smoothstep or Heaviside"):
        EncoderConfig(family=Canonical(), transition=transition)


def test_term_weights_discrete():
    config = EncoderConfig(family=Canonical())
    ns, weights = term_weights(config, 5)
    assert np.array_equal(ns, [1, 2, 3, 4, 5])
    assert np.array_equal(weights, np.ones(5))
    ns0, weights0 = term_weights(config, 0)
    assert ns0.size == 0 and weights0.size == 0


def test_term_weights_fractional():
    config = EncoderConfig(family=Canonical())
    ns, weights = term_weights(config, 2.25)
    assert np.array_equal(ns, [1, 2, 3])
    assert np.array_equal(weights, [1.0, 1.0, 0.25])
    # an exact integer carries no partial term
    ns, weights = term_weights(config, 3.0)
    assert np.array_equal(ns, [1, 2, 3])
    assert np.array_equal(weights, np.ones(3))


WHOLE_N_MAX = 40


@given(
    st.sampled_from(list(FAMILY_SAMPLES)),
    st.floats(min_value=1e-3, max_value=10.0),
    st.one_of(
        st.integers(min_value=0, max_value=WHOLE_N_MAX),
        st.integers(min_value=0, max_value=WHOLE_N_MAX).map(float),
        st.floats(min_value=0.0, max_value=WHOLE_N_MAX),
    ),
)
def test_integral_without_a_transition_is_the_table_row_or_the_segment_line(kind, delta, n_value):
    family = FAMILY_SAMPLES[kind]
    config = EncoderConfig(family=family, delta=delta)
    k = math.floor(n_value)
    frac = n_value - k
    if frac == 0.0 and k >= 1:
        reference = build_table(config, WHOLE_N_MAX).value_at(k)
    else:
        reference = area_scale(delta) * (partial_sum(family, k) + frac * coefficient(family, k + 1))
    assert integral_closed(config, n_value).hex() == reference.hex()


def test_term_weights_smooth():
    config = EncoderConfig(family=Canonical(), transition=Sigmoid())
    ns, weights = term_weights(config, 4.2)
    assert ns[-1] == 8  # floor(4.2 + 56 ln 2 / 10)
    expected = Sigmoid(10.0)(ns - 4.2)
    assert np.array_equal(weights, expected)


def test_smooth_cutoff_rules():
    config = EncoderConfig(family=Canonical(), transition=Sigmoid())
    assert smooth_cutoff(config, 4.2) == 8  # floor(4.2 + 56 ln 2 / 10)
    assert Sigmoid(10.0).reach == 56 * math.log(2.0) / 10.0
    stepped = EncoderConfig(family=Canonical(), transition=Smoothstep(0.5))
    assert smooth_cutoff(stepped, 4.2) == 4
    assert smooth_cutoff(stepped, 4.5) == 5  # bump 5 sits on the ramp's end, weight 0
    hard = EncoderConfig(family=Canonical(), transition=Heaviside())
    assert smooth_cutoff(hard, 4.0) == 4
    assert smooth_cutoff(hard, 4.9) == 4
    assert smooth_cutoff(hard, 0.5) == 0
    with pytest.raises(ValueError, match="transition"):
        smooth_cutoff(EncoderConfig(family=Canonical()), 4.0)
    with pytest.raises(ValueError, match="non-negative"):
        smooth_cutoff(config, -1.0)


def test_counting_parameter_validation():
    config = EncoderConfig(family=Canonical())
    with pytest.raises(ValueError):
        term_weights(config, -1.0)
    with pytest.raises(ValueError):
        term_weights(config, math.inf)
    with pytest.raises(TypeError):
        term_weights(config, "3")


def test_counter_eval_peak_value(canonical_config):
    # at t = 2 the half-on second bump dominates: 0.5 * a_2 = 0.3125
    value = counter_eval(canonical_config, 1.5, 2.0)
    assert value == 0.312498136673414
    assert value == pytest.approx(0.5 * 0.625, abs=2e-6)


def test_counter_eval_far_from_train_is_exactly_zero(canonical_config):
    assert counter_eval(canonical_config, 3, 50.0) == 0.0
    assert counter_eval(canonical_config, 0, 1.0) == 0.0


def test_counter_eval_rejects_bad_t(canonical_config):
    with pytest.raises(ValueError, match="finite"):
        counter_eval(canonical_config, 3, math.nan)


@pytest.mark.parametrize(
    "transition,n_value",
    [(None, 6), (None, 6.4), (Sigmoid(), 6.4)],
)
def test_grid_matches_scalar_bitwise(transition, n_value):
    config = EncoderConfig(family=Canonical(), transition=transition)
    ts, values = counter_grid(config, n_value, -1.0, 9.0, 257)
    for t, v in zip(ts, values):
        assert counter_eval(config, n_value, float(t)) == v


def test_grid_validation(canonical_config):
    with pytest.raises(ValueError):
        counter_grid(canonical_config, 3, 2.0, 1.0, 100)
    with pytest.raises(ValueError):
        counter_grid(canonical_config, 3, 0.0, 1.0, 1)
    # a width that overflows, where linspace would sample [nan, inf, inf, inf, 1e308]
    with pytest.raises(ValueError, match=r"^the width of \[-1e\+308, 1e\+308\] exceeds the largest float$"):
        counter_grid(canonical_config, 3.0, -1e308, 1e308, 5)


@pytest.mark.parametrize("kind", list(FAMILY_SAMPLES))
def test_heaviside_smooth_equals_discrete(kind):
    # weight 1 through the N-th center, 0 beyond: the discrete train exactly
    family = FAMILY_SAMPLES[kind]
    discrete = EncoderConfig(family=family)
    smooth = EncoderConfig(family=family, transition=Heaviside())
    for n in range(41):
        _, discrete_values = counter_grid(discrete, n, 0.0, n + 4.0, 101)
        _, smooth_values = counter_grid(smooth, float(n), 0.0, n + 4.0, 101)
        assert np.array_equal(discrete_values, smooth_values)
        assert counter_eval(smooth, float(n), n - 0.3) == counter_eval(discrete, n, n - 0.3)


def test_smoothstep_transition_accepted():
    config = EncoderConfig(family=Canonical(), transition=Smoothstep(halfwidth=0.5))
    ns, weights = term_weights(config, 2.0)
    # ramp is local: centers below N - 0.5 fully on, above N + 0.5 fully off,
    # so the series ends at floor(N + 0.5)
    assert np.array_equal(ns, [1, 2])
    assert weights[0] == 1.0
    assert config.transition(3 - 2.0) == 0.0
    assert weights[1] == 0.5


def _weighted_sum(family, transition, n_value, terms, delta=0.2):
    """Area of the first ``terms`` gated bumps, with the gates written out by hand."""
    ns = np.arange(1, terms + 1)
    x = ns - n_value
    if isinstance(transition, Sigmoid):
        weights = np.exp(-np.logaddexp(0.0, transition.sharpness * x))
    elif isinstance(transition, Smoothstep):
        u = np.clip((x + transition.halfwidth) / (2.0 * transition.halfwidth), 0.0, 1.0)
        weights = 1.0 - u * u * (3.0 - 2.0 * u)
    else:
        weights = np.where(x <= 0.0, 1.0, 0.0)
    return area_scale(delta) * math.fsum(weights * family.coefficients(ns))


def test_family_samples_cover_the_registry():
    assert list(FAMILY_SAMPLES) == list(FAMILIES)


@given(
    st.sampled_from(list(FAMILY_SAMPLES)),
    st.one_of(
        st.builds(Sigmoid, st.floats(min_value=0.05, max_value=300.0)),
        st.builds(Smoothstep, st.floats(min_value=0.01, max_value=100.0)),
        st.just(Heaviside()),
    ),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_smooth_series_ends_where_the_transition_reaches(kind, transition, n_value):
    # a thousand more terms past the cutoff add nothing visible
    family = FAMILY_SAMPLES[kind]
    config = EncoderConfig(family=family, transition=transition)
    longer = _weighted_sum(family, transition, n_value, smooth_cutoff(config, n_value) + 1000)
    assert abs(integral_closed(config, n_value) - longer) <= 1e-15


@pytest.mark.parametrize("transition", [Sigmoid(0.2), Smoothstep(30.0)], ids=repr)
def test_slow_transitions_keep_their_whole_series(transition):
    # the weights at N = 5.3 stay visible far past ceil(N) + 10
    config = EncoderConfig(family=Canonical(), transition=transition)
    full = _weighted_sum(Canonical(), transition, 5.3, 20_000)
    assert abs(integral_closed(config, 5.3) - full) <= 1e-15
    with pytest.raises(ValueError, match="truncates"):
        integral_quadrature(config, 5.3, 0.0, 8.0, 2000)


def test_a_reach_past_the_row_limit_is_refused():
    config = EncoderConfig(family=Canonical(), transition=Sigmoid(5e-324))
    assert config.transition.reach == math.inf
    with pytest.raises(ValueError, match="exceeds the limit"):
        integral_closed(config, 5.3)
    with pytest.raises(ValueError, match="exceeds the limit"):
        term_weights(config, 0.0)
