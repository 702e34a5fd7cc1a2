import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import (
    find_root_bracketed,
    spline_derivative,
    spline_eval,
    spline_fit,
)


def _cubic_points():
    xs = np.linspace(0.0, 10.0, 101)
    return list(zip(xs, xs**3))


def test_spline_reproduces_knot_values():
    points = [(0.0, 1.0), (1.0, -0.5), (2.5, 0.25), (4.0, 0.0)]
    spline = spline_fit(points)
    for x, y in points:
        assert spline_eval(spline, x) == pytest.approx(y, abs=1e-13)


def test_spline_reproduces_linear_data_exactly():
    xs = np.linspace(-2.0, 5.0, 15)
    spline = spline_fit(zip(xs, 3.0 * xs + 1.0))
    for x in np.linspace(-2.0, 5.0, 97):
        assert spline_eval(spline, float(x)) == pytest.approx(3.0 * x + 1.0, abs=1e-12)


def test_spline_tracks_a_cubic_away_from_the_ends():
    # natural ends force zero curvature, so accuracy is checked only on the
    # interior where that boundary artifact has died off
    spline = spline_fit(_cubic_points())
    xs = np.linspace(1.0, 9.0, 801)
    err = max(abs(spline_eval(spline, float(x)) - float(x) ** 3) for x in xs)
    assert err < 1e-6


def test_spline_natural_boundary():
    spline = spline_fit(_cubic_points())
    # second derivative at both ends comes out exactly zero by construction
    a, b, c, d = spline.coefficients[0]
    assert c == 0.0
    a, b, c, d = spline.coefficients[-1]
    h = spline.knots[-1] - spline.knots[-2]
    assert 2.0 * c + 6.0 * d * h == pytest.approx(0.0, abs=1e-10)


def test_spline_derivative_matches_finite_difference():
    spline = spline_fit(_cubic_points())
    h = 1e-6
    for x in (0.73, 3.14, 6.5, 9.2):
        fd = (spline_eval(spline, x + h) - spline_eval(spline, x - h)) / (2.0 * h)
        assert spline_derivative(spline, x) == pytest.approx(fd, abs=1e-4)


def test_spline_refuses_extrapolation():
    spline = spline_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    with pytest.raises(ValueError, match="extrapolation"):
        spline_eval(spline, 2.1)
    with pytest.raises(ValueError, match="extrapolation"):
        spline_derivative(spline, -0.1)
    with pytest.raises(ValueError, match="finite"):
        spline_eval(spline, math.nan)


def test_spline_fit_validation():
    with pytest.raises(ValueError, match="at least 3"):
        spline_fit([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError, match="increasing"):
        spline_fit([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError, match="finite"):
        spline_fit([(0.0, 0.0), (1.0, math.inf), (2.0, 0.0)])
    with pytest.raises(ValueError, match="pairs"):
        spline_fit([(0.0, 0.0, 1.0), (1.0, 1.0, 2.0), (2.0, 0.0, 3.0)])


def test_find_root_cosine():
    root = find_root_bracketed(math.cos, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_find_root_returns_exact_endpoint():
    assert find_root_bracketed(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert find_root_bracketed(lambda x: x - 2.0, 1.0, 2.0) == 2.0


@given(st.floats(min_value=-0.9, max_value=1.9))
def test_find_root_affine(shift):
    # root of x - shift inside a bracket that always contains it
    root = find_root_bracketed(lambda x: x - shift, -1.0, 2.0, tol=1e-13)
    assert root == pytest.approx(shift, abs=1e-9)


def test_find_root_steep_function():
    root = find_root_bracketed(lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, tol=1e-12)
    assert root == pytest.approx(0.3, abs=1e-9)


def test_find_root_requires_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_validation():
    with pytest.raises(ValueError):
        find_root_bracketed(math.cos, 2.0, 0.0)
    with pytest.raises(ValueError, match="tol"):
        find_root_bracketed(math.cos, 0.0, 2.0, tol=0.0)


def test_find_root_iteration_cap():
    with pytest.raises(ValueError, match="iterations"):
        find_root_bracketed(math.cos, 0.0, 2.0, tol=1e-15, max_iterations=3)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_find_root_rejects_a_tolerance_that_is_not_a_positive_real(tol):
    # a NaN tolerance used to run every iteration, an infinite one to
    # return the bracket midpoint 0.5 for a root at 0.3
    with pytest.raises(ValueError, match="tol must be a positive real"):
        find_root_bracketed(lambda x: x - 0.3, 0.0, 1.0, tol=tol)


def test_find_root_rejects_a_zero_iteration_cap():
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        find_root_bracketed(lambda x: x - 0.3, 0.0, 1.0, max_iterations=0)
    root = find_root_bracketed(lambda x: x - 0.3, 0.0, 1.0, max_iterations=1)
    assert root == pytest.approx(0.3, abs=1e-12)
