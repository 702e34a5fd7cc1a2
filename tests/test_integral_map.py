import dataclasses
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
    Sigmoid,
    Smoothstep,
    Trig,
    area_scale,
    build_table,
    integral_closed,
    integral_quadrature,
    load_table_json,
    map_derivative_smooth,
    partial_sums,
    save_table_json,
)

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


def test_integral_closed_rejects_fraction_in_discrete_mode(canonical_config):
    with pytest.raises(ValueError, match="integer"):
        integral_closed(canonical_config, 2.5)


def test_integral_closed_fractional(fractional_config):
    assert integral_closed(fractional_config, 1.5) == -0.09399856029866252
    # matches the two-term formula
    scale = area_scale(0.2)
    expected = scale * (-0.5 + 0.5 * 0.625)
    assert integral_closed(fractional_config, 1.5) == expected


def test_fractional_equals_discrete_at_integers(canonical_config, fractional_config):
    for k in range(0, 25):
        assert integral_closed(fractional_config, float(k)) == integral_closed(
            canonical_config, k
        )


def test_fractional_is_linear_within_segment(fractional_config):
    # three collinear samples inside [3, 4]
    i0 = integral_closed(fractional_config, 3.25)
    i1 = integral_closed(fractional_config, 3.5)
    i2 = integral_closed(fractional_config, 3.75)
    assert i1 - i0 == pytest.approx(i2 - i1, abs=1e-15)


def test_smooth_integral_weighted_sum():
    config = EncoderConfig(family=Canonical(), mode=Mode.SMOOTH)
    n_value = 3.7
    ns = np.arange(1, math.ceil(n_value) + 11)
    weights = Sigmoid(10.0)(ns - n_value)
    expected = area_scale(0.2) * float(np.dot(weights, Canonical().coefficients(ns)))
    assert integral_closed(config, n_value) == expected


def test_build_table_matches_closed_form(canonical_config, table30):
    assert table30.n_max == 30
    assert np.array_equal(table30.ns, np.arange(1, 31))
    for n, expected in KNOWN_VALUES.items():
        assert table30.value_at(n) == expected
        assert table30.value_at(n) == integral_closed(canonical_config, n)


def test_build_table_requires_discrete_mode(fractional_config):
    with pytest.raises(ValueError, match="discrete"):
        build_table(fractional_config, 10)


def test_build_table_validates_n_max(canonical_config):
    with pytest.raises(ValueError):
        build_table(canonical_config, 0)
    with pytest.raises(TypeError):
        build_table(canonical_config, 2.5)


def test_table_supports_binary(table30):
    assert table30.supports_binary


def test_table_rows_property(table30):
    rows = table30.rows
    assert rows[7] == (8, KNOWN_VALUES[8])
    assert len(rows) == 30


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
    assert np.array_equal(table.ns, np.arange(1, 6))


def test_table_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="finite"):
        IntegralTable(delta=None, family=None, values=np.array([0.1, math.nan]))


def test_table_rejects_values_off_the_closed_form(tmp_path):
    # the constructor keeps any finite values; the JSON loader checks provenance
    values = area_scale(0.2) * partial_sums(Canonical(), 5)
    values[3] += 1e-6
    path = tmp_path / "t.json"
    save_table_json(IntegralTable(delta=0.2, family=Canonical(), values=values), path)
    with pytest.raises(ValueError, match="closed form"):
        load_table_json(path)


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


def test_quadrature_fractional_and_smooth(fractional_config):
    approx = integral_quadrature(fractional_config, 2.5, 0.0, 6.0, 3000)
    assert approx == pytest.approx(integral_closed(fractional_config, 2.5), abs=1e-6)
    smooth = EncoderConfig(family=Canonical(), mode=Mode.SMOOTH)
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


def test_map_derivative_matches_finite_difference():
    config = EncoderConfig(family=Canonical(), mode=Mode.SMOOTH)
    h = 1e-5
    for n_value in (0.4, 1.9, 4.3, 7.5):
        fd = (integral_closed(config, n_value + h) - integral_closed(config, n_value - h)) / (
            2.0 * h
        )
        assert map_derivative_smooth(config, n_value) == pytest.approx(fd, abs=1e-7)


def test_map_derivative_requires_smooth_sigmoid(canonical_config):
    with pytest.raises(ValueError, match="Sigmoid"):
        map_derivative_smooth(canonical_config, 2.0)
    stepped = EncoderConfig(
        family=Canonical(), mode=Mode.SMOOTH, transition=Smoothstep()
    )
    with pytest.raises(ValueError, match="Sigmoid"):
        map_derivative_smooth(stepped, 2.0)
