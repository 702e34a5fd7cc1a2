import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import (
    Bump,
    Heaviside,
    Sigmoid,
    Smoothstep,
    bump_eval,
    bump_integral,
)


def test_bump_peak_value():
    bump = Bump(center=3.0, width=0.2, amplitude=-0.7)
    assert bump_eval(bump, 3.0) == -0.7


def test_bump_scalar_and_array_agree():
    bump = Bump(center=1.0, width=0.5)
    ts = np.linspace(-1.0, 3.0, 17)
    values = bump_eval(bump, ts)
    assert values.shape == ts.shape
    for t, v in zip(ts, values):
        assert bump_eval(bump, float(t)) == v


@given(st.floats(min_value=0.0, max_value=50.0))
def test_bump_symmetry(offset):
    # exact about the center: +-offset square to the same float
    bump = Bump(center=0.0, width=0.3)
    assert bump_eval(bump, offset) == bump_eval(bump, -offset)


def test_bump_integral_value():
    bump = Bump(center=5.0, width=0.2, amplitude=2.0)
    assert bump_integral(bump) == 2.0 * 0.2 * math.sqrt(2.0 * math.pi)


def test_bump_integral_against_quadrature():
    bump = Bump(center=0.0, width=0.7, amplitude=1.3)
    ts = np.linspace(-12.0, 12.0, 20001)
    approx = np.trapezoid(bump_eval(bump, ts), ts)
    assert approx == pytest.approx(bump_integral(bump), rel=1e-9)


@pytest.mark.parametrize("width", [0.0, -0.1])
def test_bump_rejects_bad_width(width):
    with pytest.raises(ValueError):
        Bump(center=0.0, width=width)


def test_bump_rejects_nonfinite():
    with pytest.raises(ValueError):
        Bump(center=math.nan, width=0.2)


def test_sigmoid_midpoint_and_extremes():
    sig = Sigmoid(10.0)
    assert sig(0.0) == 0.5
    assert sig(-1e6) == 1.0
    assert sig(1e6) == 0.0  # no overflow on the positive side
    assert sig(1.0) == 4.5397868702434395e-05


def test_sigmoid_is_decreasing():
    sig = Sigmoid(10.0)
    xs = np.linspace(-3.0, 3.0, 101)
    values = sig(xs)
    assert np.all(np.diff(values) < 0.0)


@given(st.floats(min_value=-80.0, max_value=80.0))
def test_sigmoid_point_symmetry(x):
    sig = Sigmoid(3.0)
    assert sig(x) + sig(-x) == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_derivative_closed_form():
    sig = Sigmoid(10.0)
    h = 1e-6
    for x in (-0.8, -0.1, 0.0, 0.3, 1.2):
        fd = (sig(x + h) - sig(x - h)) / (2.0 * h)
        assert sig.derivative(x) == pytest.approx(fd, abs=1e-6)
    assert sig.derivative(0.0) == -10.0 * 0.25


def test_sigmoid_rejects_bad_sharpness():
    with pytest.raises(ValueError):
        Sigmoid(0.0)
    with pytest.raises(ValueError):
        Sigmoid(-2.0)


def test_smoothstep_ramp():
    step = Smoothstep(halfwidth=0.5)
    assert step(-0.5) == 1.0
    assert step(0.5) == 0.0
    assert step(0.0) == 0.5
    assert step(-3.0) == 1.0
    assert step(3.0) == 0.0


def test_smoothstep_flat_at_ramp_ends():
    # C1 join: one-sided slopes vanish at the ramp boundary
    step = Smoothstep(halfwidth=0.5)
    h = 1e-7
    assert (step(-0.5 + h) - step(-0.5)) / h == pytest.approx(0.0, abs=1e-5)
    assert (step(0.5) - step(0.5 - h)) / h == pytest.approx(0.0, abs=1e-5)


def test_smoothstep_rejects_bad_halfwidth():
    with pytest.raises(ValueError):
        Smoothstep(halfwidth=0.0)


def test_heaviside_includes_zero_on_the_left():
    step = Heaviside()
    assert step(0.0) == 1.0
    assert step(-1e-12) == 1.0
    assert step(1e-12) == 0.0
    out = step(np.array([-1.0, 0.0, 1.0]))
    assert np.array_equal(out, [1.0, 1.0, 0.0])


def test_transition_eval_dispatch():
    assert Sigmoid(10.0)(0.0) == 0.5
    assert Heaviside()(2.0) == 0.0
