"""The argument rule, checked across the public API.

A value of the wrong type raises ``TypeError``: ``bool`` and ``str`` always,
and a float (even a whole one) where an integer is needed.  A value of the
right type that is out of range or not finite raises ``ValueError``.  NumPy
integer and floating scalars are accepted.

Each row names one argument of one entry point: a call that takes the value
under test, a valid value, the name the error message gives the argument,
and values of the right type that are out of range.
"""

import math

import numpy as np
import pytest

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    IntegralTable,
    MultiEncoderConfig,
    Sigmoid,
    Smoothstep,
    area_scale,
    build_table,
    coefficient,
    coordinatewise_recover,
    counter_eval,
    counter_grid,
    family_from_descriptor,
    find_root_bracketed,
    integral_closed,
    integral_multi,
    integral_quadrature,
    map_derivative_smooth,
    noise_sweep,
    partial_sum,
    partial_sums,
    recover_analytic_fractional,
    recover_binary,
    recover_match,
    recover_multi,
    recover_spline,
    recover_threshold,
    spline_derivative,
    spline_eval,
    spline_fit,
    smooth_cutoff,
    tail_bound,
    term_weights,
)

CONFIG = EncoderConfig(family=Canonical(), delta=0.2)
SMOOTH = EncoderConfig(family=Canonical(), delta=0.2, transition=Sigmoid())
TABLE = build_table(CONFIG, 30)
SPLINE = spline_fit(TABLE.values)
MULTI = MultiEncoderConfig.isotropic(Canonical(), 2)
SEGMENT_3_TARGET = integral_closed(CONFIG, 3.5)

# id: (call, valid value, name in the message, out-of-range values)
INTEGERS = {
    "coefficient-n": (lambda v: coefficient(Canonical(), v), 3, "n", [0, -1]),
    "partial_sums-n_max": (lambda v: partial_sums(Canonical(), v), 3, "n_max", [0]),
    "partial_sum-n": (lambda v: partial_sum(Canonical(), v), 3, "n", [-1]),
    "tail_bound-n": (lambda v: tail_bound(Canonical(), v), 3, "n", [0]),
    "value_at-n": (lambda v: TABLE.value_at(v), 3, "row", [0, 31]),
    "build_table-n_max": (lambda v: build_table(CONFIG, v), 3, "n_max", [0]),
    "counter_grid-points": (
        lambda v: counter_grid(CONFIG, 1.5, 0.0, 3.0, v), 3, "points", [1, 0]
    ),
    "integral_quadrature-points": (
        lambda v: integral_quadrature(CONFIG, 1, -1.0, 3.0, v), 500, "points", [1, 399]
    ),
    "recover_analytic_fractional-segment": (
        lambda v: recover_analytic_fractional(CONFIG, SEGMENT_3_TARGET, v), 3, "segment", [-1]
    ),
    "noise_sweep-true_n": (
        lambda v: noise_sweep(TABLE, v, 0.005, [0.0], trials=5), 8, "row", [0, 31]
    ),
    "noise_sweep-trials": (
        lambda v: noise_sweep(TABLE, 8, 0.005, [0.0], trials=v), 5, "trials", [0]
    ),
    "noise_sweep-seed": (
        lambda v: noise_sweep(TABLE, 8, 0.005, [0.0], trials=5, seed=v), 7, "seed", [-1]
    ),
    "isotropic-dimension": (
        lambda v: MultiEncoderConfig.isotropic(Canonical(), v), 2, "dimension", [0]
    ),
    "recover_multi-n_max": (lambda v: recover_multi(MULTI, v, 1e-3), 10, "n_max", [0]),
    "recover_multi-axis_limit": (
        lambda v: recover_multi(MULTI, (10, v), 1e-3), 10, "n_max", [0]
    ),
    "coordinatewise_recover-n_max": (
        lambda v: coordinatewise_recover(MULTI, (TABLE.value_at(4), 0.0), 1.0, v),
        30,
        "n_max",
        [0],
    ),
    "coordinatewise_recover-axis_limit": (
        lambda v: coordinatewise_recover(MULTI, (TABLE.value_at(4), 0.0), 1.0, (30, v)),
        30,
        "n_max",
        [0],
    ),
}


def _generalized(**params):
    return {"kind": "generalized", "alpha": 0.5, "beta": 1.0, "gamma": 1.0, **params}


REALS = {
    "Sigmoid-sharpness": (lambda v: Sigmoid(v), 10.0, "sharpness", [0.0, -2.0]),
    "Smoothstep-halfwidth": (lambda v: Smoothstep(v), 0.5, "halfwidth", [0.0, -0.5]),
    "Generalized-alpha": (lambda v: Generalized(v, 1.0, 1.0), 0.5, "alpha", [1.0, -1.5]),
    "Generalized-beta": (lambda v: Generalized(0.5, v, 1.0), 2.0, "beta", []),
    "Generalized-gamma": (lambda v: Generalized(0.5, 1.0, v), 1.5, "gamma", [0.5]),
    "ExpPoly-p": (lambda v: ExpPoly(v), 2.0, "p", [0.99]),
    "EncoderConfig-delta": (
        lambda v: EncoderConfig(family=Canonical(), delta=v), 0.2, "delta", [0.0, -0.2]
    ),
    "MultiEncoderConfig-delta": (
        lambda v: MultiEncoderConfig(families=(Canonical(),), delta=v), 0.2, "delta", [0.0]
    ),
    "isotropic-delta": (
        lambda v: MultiEncoderConfig.isotropic(Canonical(), 2, delta=v), 0.2, "delta", [-0.2]
    ),
    "IntegralTable-delta": (
        lambda v: IntegralTable(delta=v, family=Canonical(), values=TABLE.values), 0.2, "delta", [0.0, -1.0]
    ),
    "area_scale-delta": (lambda v: area_scale(v), 0.2, "delta", [0.0, -1.0]),
    "term_weights-n_value": (lambda v: term_weights(CONFIG, v), 2.5, "n_value", [-1.0]),
    "term_weights-whole-n_value": (
        lambda v: term_weights(CONFIG, v), 3.0, "n_value", [-1.0]
    ),
    "term_weights-smooth-n_value": (lambda v: term_weights(SMOOTH, v), 2.5, "n_value", [-1.0]),
    "smooth_cutoff-n_value": (lambda v: smooth_cutoff(SMOOTH, v), 2.5, "n_value", [-1.0]),
    "counter_eval-n_value": (lambda v: counter_eval(CONFIG, v, 1.0), 2.5, "n_value", [-1.0]),
    "counter_eval-t": (lambda v: counter_eval(CONFIG, 2.5, v), 1.0, "t", []),
    "counter_eval-whole-n_value": (
        lambda v: counter_eval(CONFIG, v, 1.0), 3.0, "n_value", [-1.0]
    ),
    "counter_eval-smooth-n_value": (lambda v: counter_eval(SMOOTH, v, 1.0), 2.5, "n_value", [-1.0]),
    "counter_eval-smooth-t": (lambda v: counter_eval(SMOOTH, 2.5, v), 1.0, "t", []),
    "counter_grid-n_value": (
        lambda v: counter_grid(CONFIG, v, 0.0, 3.0, 5), 1.5, "n_value", [-0.5]
    ),
    "counter_grid-whole-n_value": (
        lambda v: counter_grid(CONFIG, v, 0.0, 3.0, 5), 3.0, "n_value", [-0.5]
    ),
    "counter_grid-smooth-n_value": (
        lambda v: counter_grid(SMOOTH, v, 0.0, 3.0, 5), 1.5, "n_value", [-0.5]
    ),
    "counter_grid-t_min": (
        lambda v: counter_grid(CONFIG, 1.5, v, 3.0, 5), 0.0, "t_min", [3.0, 4.0]
    ),
    "counter_grid-t_max": (
        lambda v: counter_grid(CONFIG, 1.5, 0.0, v, 5), 3.0, "t_max", [0.0, -1.0]
    ),
    "integral_closed-n_value": (
        lambda v: integral_closed(CONFIG, v), 2.5, "n_value", [-1.0]
    ),
    "integral_closed-whole-n_value": (
        lambda v: integral_closed(CONFIG, v), 3.0, "n_value", [-1.0]
    ),
    "integral_closed-smooth-n_value": (
        lambda v: integral_closed(SMOOTH, v), 2.5, "n_value", [-1.0]
    ),
    "integral_quadrature-n_value": (
        lambda v: integral_quadrature(CONFIG, v, -1.0, 3.0, 500), 1.5, "n_value", [-1.0]
    ),
    "integral_quadrature-smooth-n_value": (
        lambda v: integral_quadrature(SMOOTH, v, -5.0, 30.0, 4000), 2.5, "n_value", [-1.0]
    ),
    "integral_quadrature-t_min": (
        lambda v: integral_quadrature(CONFIG, 1, v, 3.0, 500), -1.0, "t_min", [3.0, 0.5]
    ),
    "integral_quadrature-t_max": (
        lambda v: integral_quadrature(CONFIG, 1, -1.0, v, 500), 3.0, "t_max", [-1.0, 1.5]
    ),
    "map_derivative_smooth-n_value": (
        lambda v: map_derivative_smooth(SMOOTH, v), 2.5, "n_value", [-1.0]
    ),
    "find_root_bracketed-lo": (
        lambda v: find_root_bracketed(math.cos, v, 2.0), 0.0, "lo", [2.0, 3.0]
    ),
    "find_root_bracketed-hi": (
        lambda v: find_root_bracketed(math.cos, 0.0, v), 2.0, "hi", [0.0, -1.0]
    ),
    "find_root_bracketed-tol": (
        lambda v: find_root_bracketed(math.cos, 0.0, 2.0, tol=v), 1e-6, "tol", [0.0, -1e-9]
    ),
    "spline_eval-x": (lambda v: spline_eval(SPLINE, v), 2.5, "x", [0.5, 31.0]),
    "spline_derivative-x": (lambda v: spline_derivative(SPLINE, v), 2.5, "x", [0.5]),
    "recover_threshold-epsilon": (
        lambda v: recover_threshold(TABLE, v), 0.01, "epsilon", [0.0, -0.01]
    ),
    "recover_match-target": (lambda v: recover_match(TABLE, v, 0.005), 0.028, "target", []),
    "recover_match-epsilon": (
        lambda v: recover_match(TABLE, 0.028, v), 0.005, "epsilon", [0.0, -0.005]
    ),
    "recover_binary-target": (lambda v: recover_binary(TABLE, v, 0.005), 0.028, "target", []),
    "recover_binary-epsilon": (
        lambda v: recover_binary(TABLE, 0.028, v), 0.005, "epsilon", [0.0, -0.005]
    ),
    "recover_spline-target": (lambda v: recover_spline(TABLE, v), 0.028, "target", []),
    "recover_spline-tol": (
        lambda v: recover_spline(TABLE, 0.028, tol=v), 1e-9, "tol", [0.0, -1e-9]
    ),
    "recover_analytic_fractional-target": (
        lambda v: recover_analytic_fractional(CONFIG, v, 3), SEGMENT_3_TARGET, "target", [0.5]
    ),
    "noise_sweep-epsilon": (
        lambda v: noise_sweep(TABLE, 8, v, [0.0], trials=5), 0.005, "epsilon", [0.0, -0.005]
    ),
    "noise_sweep-amplitude": (
        lambda v: noise_sweep(TABLE, 8, 0.005, [0.0, v], trials=5), 0.002, "noise amplitude", [-0.1]
    ),
    "recover_multi-epsilon": (
        lambda v: recover_multi(MULTI, 10, v), 1e-3, "epsilon", [0.0, -1e-3]
    ),
    "coordinatewise_recover-target": (
        lambda v: coordinatewise_recover(MULTI, (v, 0.0), 1.0, 30), 0.028, "target", []
    ),
    "coordinatewise_recover-second-target": (
        lambda v: coordinatewise_recover(MULTI, (0.028, v), 1.0, 30), 0.0, "target", []
    ),
    "coordinatewise_recover-epsilon": (
        lambda v: coordinatewise_recover(MULTI, (0.028, 0.0), v, 30), 1.0, "epsilon", [0.0]
    ),
    "family_from_descriptor-p": (
        lambda v: family_from_descriptor({"kind": "exppoly", "p": v}), 2.0, "p", [0.5]
    ),
    "family_from_descriptor-alpha": (
        lambda v: family_from_descriptor(_generalized(alpha=v)), 0.5, "alpha", [1.0, -1.5]
    ),
    "family_from_descriptor-beta": (
        lambda v: family_from_descriptor(_generalized(beta=v)), 1.0, "beta", []
    ),
    "family_from_descriptor-gamma": (
        lambda v: family_from_descriptor(_generalized(gamma=v)), 1.0, "gamma", [0.5]
    ),
}

# rows of REALS whose call constructs an object that keeps the argument
# under the name its messages give it
STORED_REALS = [
    "Sigmoid-sharpness",
    "Smoothstep-halfwidth",
    "Generalized-alpha",
    "Generalized-beta",
    "Generalized-gamma",
    "ExpPoly-p",
    "EncoderConfig-delta",
    "MultiEncoderConfig-delta",
    "isotropic-delta",
    "IntegralTable-delta",
    "family_from_descriptor-p",
    "family_from_descriptor-alpha",
    "family_from_descriptor-beta",
    "family_from_descriptor-gamma",
]

# rows of REALS that take None as a value: a table without a width
TAKES_NONE = {"IntegralTable-delta"}

NON_FINITE = [math.nan, math.inf, -math.inf]


def _rows(table, values):
    return [
        pytest.param(call, name, value, id=f"{key}-{value!r}")
        for key, (call, valid, name, out_of_range) in table.items()
        for value in values(valid, out_of_range)
        if not (value is None and key in TAKES_NONE)
    ]


@pytest.mark.parametrize(
    "call, name, value", _rows(INTEGERS, lambda valid, low: [True, False, 2.5, 3.0, "3", np.float64(3)])
)
def test_integer_argument_of_a_wrong_type_is_a_type_error(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call(value)


@pytest.mark.parametrize("call, name, value", _rows(INTEGERS, lambda valid, low: low))
def test_integer_argument_out_of_range_is_a_value_error(call, name, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize(
    "call, name, value",
    _rows(INTEGERS, lambda valid, low: [valid, np.int64(valid), np.int32(valid), np.uint16(valid)]),
)
def test_integer_argument_accepts_python_and_numpy_integers(call, name, value):
    call(value)


@pytest.mark.parametrize(
    "call, name, value", _rows(REALS, lambda valid, low: [True, False, "0.1", str(valid), None, [valid]])
)
def test_real_argument_of_a_wrong_type_is_a_type_error(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be a real number"):
        call(value)


@pytest.mark.parametrize("call, name, value", _rows(REALS, lambda valid, low: NON_FINITE + low))
def test_real_argument_out_of_range_or_not_finite_is_a_value_error(call, name, value):
    with pytest.raises(ValueError):
        call(value)


def _reals_of(valid):
    integers = [int(valid), np.int64(valid)] if float(valid).is_integer() else []
    return [valid, np.float64(valid), np.float32(valid)] + integers


@pytest.mark.parametrize("call, name, value", _rows(REALS, lambda valid, low: _reals_of(valid)))
def test_real_argument_accepts_python_and_numpy_reals_and_integers(call, name, value):
    call(value)


@pytest.mark.parametrize(
    "call, name, value",
    _rows({key: REALS[key] for key in STORED_REALS}, lambda valid, low: _reals_of(valid) + [np.longdouble(valid)]),
)
def test_a_stored_real_is_the_float_its_check_returns(call, name, value):
    stored = getattr(call(value), name)
    assert type(stored) is float
    assert stored == float(value)


# integral_multi takes integer arrays as well as integers, so its message
# names the components rather than one argument
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", np.float64(3), None], ids=repr)
def test_multi_index_component_of_a_wrong_type_is_a_type_error(axis, value):
    indices = [2, 2]
    indices[axis] = value
    with pytest.raises(TypeError, match="^components must be integers"):
        integral_multi(MULTI, indices)


@pytest.mark.parametrize("axis", [0, 1])
def test_multi_index_component_out_of_range_is_a_value_error(axis):
    indices = [2, 2]
    indices[axis] = -1
    with pytest.raises(ValueError, match="^components must be >= 0"):
        integral_multi(MULTI, indices)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint16(3)], ids=repr)
def test_multi_index_component_accepts_python_and_numpy_integers(axis, value):
    indices = [2, 2]
    indices[axis] = value
    assert integral_multi(MULTI, indices) == integral_multi(MULTI, (3, 2) if axis == 0 else (2, 3))


FAMILY_TAKERS = {
    "EncoderConfig": lambda f: EncoderConfig(family=f),
    "MultiEncoderConfig": lambda f: MultiEncoderConfig((f,)),
    "MultiEncoderConfig-second-axis": lambda f: MultiEncoderConfig((Canonical(), f)),
    "isotropic": lambda f: MultiEncoderConfig.isotropic(f, 2),
}


@pytest.mark.parametrize("make", FAMILY_TAKERS.values(), ids=FAMILY_TAKERS.keys())
@pytest.mark.parametrize(
    "family", ["canonical", None, Canonical, 0.5], ids=["str", "None", "class", "float"]
)
def test_family_of_a_wrong_type_is_a_type_error(make, family):
    with pytest.raises(TypeError, match="^family must be a CoefficientFamily"):
        make(family)


@pytest.mark.parametrize("family", ["canonical", Canonical, 0.5], ids=["str", "class", "float"])
def test_table_family_of_a_wrong_type_is_a_type_error(family):
    with pytest.raises(TypeError, match="^family must be a CoefficientFamily"):
        IntegralTable(delta=0.2, family=family, values=TABLE.values)


# np.float32(0.2) is 0.20000000298023224 as a float
WIDTH32 = np.float32(0.2)


def test_a_float32_width_gives_the_bits_of_its_float():
    narrow, plain = (EncoderConfig(family=Canonical(), delta=delta) for delta in (WIDTH32, float(WIDTH32)))
    for a, b in zip(counter_grid(narrow, 2.5, 0.0, 3.0, 301), counter_grid(plain, 2.5, 0.0, 3.0, 301)):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)
    assert integral_quadrature(narrow, 2.5, -2.0, 5.0, 2000) == integral_quadrature(plain, 2.5, -2.0, 5.0, 2000)
    multi_narrow, multi_plain = (
        MultiEncoderConfig.isotropic(Canonical(), 2, delta=delta) for delta in (WIDTH32, float(WIDTH32))
    )
    assert integral_multi(multi_narrow, (5, 7)) == integral_multi(multi_plain, (5, 7))
    axes = (np.arange(1, 7), np.arange(1, 7))
    grid_narrow = integral_multi(multi_narrow, axes)
    assert grid_narrow.dtype == np.float64
    assert np.array_equal(grid_narrow, integral_multi(multi_plain, axes))


def test_a_float32_sharpness_gives_the_cutoffs_of_its_float():
    narrow, plain = (
        EncoderConfig(family=Canonical(), transition=Sigmoid(sharpness))
        for sharpness in (np.float32(10), 10.0)
    )
    for n_value in np.linspace(9_999_000.0, 9_999_990.0, 2001).tolist():
        assert smooth_cutoff(narrow, n_value) == smooth_cutoff(plain, n_value)


def test_same_results_from_numpy_scalars():
    assert partial_sums(Canonical(), np.int64(40)).tolist() == partial_sums(Canonical(), 40).tolist()
    assert recover_match(TABLE, np.float64(0.028), np.float64(0.005)) == recover_match(
        TABLE, 0.028, 0.005
    )
    assert tail_bound(Canonical(), np.int32(10)) == tail_bound(Canonical(), 10)
