import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    Heaviside,
    IntegralTable,
    Sigmoid,
    Smoothstep,
    Trig,
    area_scale,
    build_table,
    integral_closed,
    integral_quadrature,
    load_table,
    map_derivative_smooth,
    partial_sums,
    save_table_json,
    term_weights,
)
from smoothint.integral_map import _smooth_integrals

# independently derived closed-form values at delta = 0.2
KNOWN_VALUES = {
    1: -0.25066282746310004,
    2: 0.06266570686577501,
    8: 0.029190376326873838,
    9: -0.026403679590506424,
    20: 0.012220180749492425,
    25: -0.009826143305595595,
    30: 0.008216247635071365,
}


def test_area_scale():
    assert area_scale(0.2) == 0.5013256549262001
    assert area_scale(1.0) == math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("delta", [0.05, 0.2, 0.7, 3.0])
def test_area_scale_is_the_whole_line_integral_of_a_unit_bump(delta):
    # less than 2e-57 of the bump's area lies beyond 16 widths
    ts = np.linspace(-16.0 * delta, 16.0 * delta, 20001)
    approx = np.trapezoid(np.exp(-(ts * ts) / (2.0 * delta * delta)), ts)
    assert approx == pytest.approx(area_scale(delta), rel=1e-9)


@pytest.mark.parametrize("n,expected", sorted(KNOWN_VALUES.items()))
def test_integral_closed_discrete(canonical_config, n, expected):
    assert integral_closed(canonical_config, n) == expected


def test_integral_closed_discrete_zero(canonical_config):
    assert integral_closed(canonical_config, 0) == 0.0


def test_integral_closed_fractional(canonical_config):
    assert integral_closed(canonical_config, 1.5) == -0.09399856029866252
    # matches the two-term formula
    scale = area_scale(0.2)
    expected = scale * (-0.5 + 0.5 * 0.625)
    assert integral_closed(canonical_config, 1.5) == expected


def test_fractional_is_linear_within_segment(canonical_config):
    # three collinear samples inside [3, 4]
    i0 = integral_closed(canonical_config, 3.25)
    i1 = integral_closed(canonical_config, 3.5)
    i2 = integral_closed(canonical_config, 3.75)
    assert i1 - i0 == pytest.approx(i2 - i1, abs=1e-15)


def test_smooth_integral_weighted_sum():
    config = EncoderConfig(family=Canonical(), transition=Sigmoid())
    n_value = 3.7
    ns = np.arange(1, math.ceil(n_value) + 11)
    weights = Sigmoid(10.0)(ns - n_value)
    expected = area_scale(0.2) * float(np.dot(weights, Canonical().coefficients(ns)))
    assert integral_closed(config, n_value) == expected


def test_build_table_matches_closed_form(canonical_config, table30):
    assert table30.n_max == 30
    for n, expected in KNOWN_VALUES.items():
        assert table30.value_at(n) == expected
        assert table30.value_at(n) == integral_closed(canonical_config, n)


def test_build_table_refuses_a_transition():
    config = EncoderConfig(family=Canonical(), transition=Sigmoid())
    with pytest.raises(ValueError, match="without a transition"):
        build_table(config, 10)


def test_build_table_validates_n_max(canonical_config):
    with pytest.raises(ValueError):
        build_table(canonical_config, 0)
    with pytest.raises(TypeError):
        build_table(canonical_config, 2.5)


@pytest.mark.parametrize("family", [Canonical(), Trig(), ExpPoly(2.0), Generalized(0.3, 2.0, 1.5)], ids=repr)
def test_build_table_peaks_near_one_table(family):
    tracemalloc.start()
    try:
        table = build_table(EncoderConfig(family=family, delta=0.2), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the values take 7.6 MiB; one chunk's temporaries and the table's
    # finiteness check add about 1 MiB
    assert peak <= table.values.nbytes + 1.5 * 2**20


def test_table_supports_binary(table30):
    assert table30.supports_binary


def test_table_value_at_validation(table30):
    with pytest.raises(ValueError):
        table30.value_at(31)
    with pytest.raises(ValueError):
        table30.value_at(0)
    with pytest.raises(TypeError):
        table30.value_at(3.0)


def test_table_stores_only_its_values(table30):
    settable = [f.name for f in dataclasses.fields(IntegralTable) if f.init]
    assert settable == ["delta", "family", "values"]
    table = IntegralTable(delta=None, family=None, values=table30.values[:5])
    assert table.n_max == 5
    assert np.array_equal(table.values, table30.values[:5])


def test_tables_compare_and_hash_by_identity(table30):
    twin = IntegralTable(delta=table30.delta, family=table30.family, values=table30.values.copy())
    assert table30 == table30
    assert table30 != twin  # equal values, a distinct table, and no array truth value raised
    assert {table30, twin, table30} == {table30, twin}


def test_table_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="finite"):
        IntegralTable(delta=None, family=None, values=np.array([0.1, math.nan]))


@pytest.mark.parametrize("values", [[], [[0.1, 0.2]], [[0.1], [0.2]]], ids=["empty", "one row of 2", "two rows of 1"])
def test_table_rejects_values_that_are_not_a_non_empty_vector(values):
    with pytest.raises(ValueError, match="^table values must be a non-empty 1-D array$"):
        IntegralTable(delta=None, family=None, values=np.array(values))


def test_table_rejects_values_off_the_closed_form(tmp_path):
    # the constructor keeps any finite values; the JSON loader checks provenance
    values = area_scale(0.2) * partial_sums(Canonical(), 5)
    values[3] += 1e-6
    path = tmp_path / "t.json"
    save_table_json(IntegralTable(delta=0.2, family=Canonical(), values=values), path)
    with pytest.raises(ValueError, match="closed form"):
        load_table(path)


def test_table_without_alternation_disables_binary():
    table = IntegralTable(delta=None, family=None, values=np.array([0.3, 0.2, 0.1]))
    assert not table.supports_binary


def test_table_with_growing_envelope_disables_binary():
    table = IntegralTable(delta=None, family=None, values=np.array([-0.1, 0.2, -0.3, 0.4]))
    assert not table.supports_binary


def signs_and_magnitudes(values):
    """The supports_binary rule as first written: signs strictly alternate
    and each parity class's magnitude never grows."""
    signs = np.sign(values)
    magnitudes = np.abs(values)
    return bool(
        signs[0] != 0.0
        and np.all(signs[1:] == -signs[:-1])
        and np.all(magnitudes[2:] <= magnitudes[:-2])
    )


@settings(max_examples=500)
@given(st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.0, -0.0, -0.5, -1.0, -2.0]), min_size=1, max_size=8))
def test_supports_binary_is_the_sign_and_magnitude_rule(values):
    table = IntegralTable(delta=None, family=None, values=np.array(values))
    assert table.supports_binary is signs_and_magnitudes(table.values)
    if table.supports_binary:
        assert table.class_rising is not None


def test_class_directions_of_each_family():
    for family, rising in [
        (Canonical(), (True, False)),
        (Trig(), (True, False)),
        (ExpPoly(1.0), (True, False)),
        (Generalized(0.3, 2.0, 1.5), (True, False)),
        (Generalized(-0.4, 0.0, 1.0), (True, False)),
        (Generalized(0.99, 1.0, 1.0), None),  # its even-N class turns near N = 724
    ]:
        table = build_table(EncoderConfig(family=family, delta=0.2), 2000)
        assert table.class_rising == rising, family
    assert IntegralTable(delta=None, family=None, values=[0.5]).class_rising == (True,)


def test_quadrature_agrees_with_closed_form(canonical_config):
    for n in (1, 5):
        approx = integral_quadrature(canonical_config, n, 0.0, n + 3.0, 4000)
        assert approx == pytest.approx(integral_closed(canonical_config, n), abs=1e-6)


def test_quadrature_fractional_and_smooth(canonical_config):
    approx = integral_quadrature(canonical_config, 2.5, 0.0, 6.0, 3000)
    assert approx == pytest.approx(integral_closed(canonical_config, 2.5), abs=1e-6)
    smooth = EncoderConfig(family=Canonical(), transition=Sigmoid())
    approx = integral_quadrature(smooth, 2.3, 0.0, 7.0, 3500)
    assert approx == pytest.approx(integral_closed(smooth, 2.3), abs=1e-6)


def test_quadrature_rejects_truncating_domain(canonical_config):
    with pytest.raises(ValueError, match="truncates"):
        integral_quadrature(canonical_config, 5, 0.0, 5.2, 2000)
    with pytest.raises(ValueError, match="truncates"):
        integral_quadrature(canonical_config, 5, 0.5, 9.0, 2000)


def test_quadrature_rejects_sparse_grid(canonical_config):
    with pytest.raises(ValueError, match="sparse"):
        integral_quadrature(canonical_config, 5, 0.0, 8.0, 500)


def test_quadrature_rejects_bad_limits(canonical_config):
    with pytest.raises(ValueError):
        integral_quadrature(canonical_config, 5, 8.0, 0.0, 2000)
    with pytest.raises(ValueError, match="exceeds the largest float"):
        integral_quadrature(canonical_config, 5, -1e308, 1e308, 2000)


def test_map_derivative_matches_finite_difference():
    config = EncoderConfig(family=Canonical(), transition=Sigmoid())
    h = 1e-5
    for n_value in (0.4, 1.9, 4.3, 7.5):
        fd = (integral_closed(config, n_value + h) - integral_closed(config, n_value - h)) / (
            2.0 * h
        )
        assert map_derivative_smooth(config, n_value) == pytest.approx(fd, abs=1e-7)


def test_map_derivative_requires_smooth_sigmoid(canonical_config):
    with pytest.raises(ValueError, match="Sigmoid"):
        map_derivative_smooth(canonical_config, 2.0)
    stepped = EncoderConfig(family=Canonical(), transition=Smoothstep())
    with pytest.raises(ValueError, match="Sigmoid"):
        map_derivative_smooth(stepped, 2.0)


@pytest.mark.parametrize(
    "family",
    [Canonical(), Generalized(0.3, 2.0, 1.5), Generalized(-0.4, 0.0, 1.0), ExpPoly(2.0), Trig()],
    ids=repr,
)
@pytest.mark.parametrize(
    "transition", [Sigmoid(10.0), Sigmoid(2.0), Sigmoid(0.2), Smoothstep(0.3), Heaviside()], ids=repr
)
@pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (0.0, 200.0), (990.0, 1000.0)])
def test_smooth_integrals_are_the_per_point_closed_form(family, transition, lo, hi):
    config = EncoderConfig(family=family, delta=0.2, transition=transition)
    xs = np.linspace(lo, hi, 101).tolist()
    # each point's own terms, weights and coefficients, as one array each
    expected = []
    for x in xs:
        ns, weights = term_weights(config, x)
        expected.append((area_scale(0.2) * float(np.dot(weights, family.coefficients(ns)))).hex())
    assert [y.hex() for y in _smooth_integrals(config, xs)] == expected
    assert [integral_closed(config, x).hex() for x in xs] == expected
