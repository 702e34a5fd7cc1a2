import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import Heaviside, Sigmoid, Smoothstep


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
