import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    Trig,
    build_table,
    find_root_bracketed,
    spline_derivative,
    spline_eval,
    spline_fit,
)
from smoothint.coefficients import FAMILIES


def _general_knot_fit(points) -> np.ndarray:
    """Reference: the natural cubic spline through (x, y) pairs with any
    strictly increasing x, by the same moment system and Thomas sweep as
    ``spline_fit`` but carrying the knot spacings."""
    pts = np.asarray(list(points), dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    h = np.diff(x)
    n = x.size
    m = np.zeros(n)
    k = n - 2
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    diag = 2.0 * (h[:-1] + h[1:])
    upper = h[1:].copy()
    lower = h[:-1].copy()
    cp = np.empty(k)
    dp = np.empty(k)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    m[k] = dp[k - 1]
    for i in range(k - 2, -1, -1):
        m[i + 1] = dp[i] - cp[i] * m[i + 2]
    a = y[:-1]
    b = (y[1:] - y[:-1]) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c = m[:-1] / 2.0
    d = (m[1:] - m[:-1]) / (6.0 * h)
    return np.column_stack([a, b, c, d])


def _assert_bitwise_equal_to_the_general_fit(values):
    fitted = spline_fit(values)
    reference = _general_knot_fit(enumerate(values, start=1))
    assert fitted.shape == reference.shape == (len(values) - 1, 4)
    np.testing.assert_array_equal(fitted.view(np.int64), reference.view(np.int64))


_MAGNITUDES = st.floats(min_value=1e-10, max_value=1e5)


@settings(max_examples=200)
@given(st.lists(st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda v: -v)), min_size=3, max_size=300))
def test_spline_fit_matches_the_general_knot_fit_bit_for_bit(values):
    _assert_bitwise_equal_to_the_general_fit(np.array(values))


# one instance of each FAMILIES kind
TABLE_FAMILIES = {
    "canonical": Canonical(),
    "generalized": Generalized(0.3, 2.0, 1.5),
    "exppoly": ExpPoly(2.0),
    "trig": Trig(),
}


def test_table_families_cover_the_registry():
    assert sorted(TABLE_FAMILIES) == sorted(FAMILIES)


@pytest.mark.parametrize("n_max", [3, 4, 30, 1000, 10_000])
@pytest.mark.parametrize("kind", sorted(TABLE_FAMILIES))
def test_spline_fit_of_each_family_table_matches_the_general_knot_fit(kind, n_max):
    table = build_table(EncoderConfig(family=TABLE_FAMILIES[kind], delta=0.2), n_max)
    _assert_bitwise_equal_to_the_general_fit(table.values)


def _cubic_values():
    # the cubic ((n - 1) / 10)^3 sampled at the knots n = 1..101
    return ((np.arange(1, 102) - 1.0) / 10.0) ** 3


def test_spline_reproduces_knot_values():
    values = [1.0, -0.5, 0.25, 0.0]
    spline = spline_fit(values)
    for n, y in enumerate(values, start=1):
        assert spline_eval(spline, float(n)) == pytest.approx(y, abs=1e-13)


def test_spline_reproduces_linear_data_exactly():
    ns = np.arange(1, 16)
    spline = spline_fit(3.0 * ns + 1.0)
    for x in np.linspace(1.0, 15.0, 97):
        assert spline_eval(spline, float(x)) == pytest.approx(3.0 * x + 1.0, abs=1e-12)


def test_spline_tracks_a_cubic_away_from_the_ends():
    # natural ends force zero curvature, so accuracy is checked only on the
    # interior where that boundary artifact has died off
    spline = spline_fit(_cubic_values())
    xs = np.linspace(11.0, 91.0, 801)
    err = max(abs(spline_eval(spline, float(x)) - ((float(x) - 1.0) / 10.0) ** 3) for x in xs)
    assert err < 1e-6


def test_spline_natural_boundary():
    spline = spline_fit(_cubic_values())
    # second derivative at both ends comes out exactly zero by construction
    a, b, c, d = spline[0]
    assert c == 0.0
    a, b, c, d = spline[-1]
    assert 2.0 * c + 6.0 * d == pytest.approx(0.0, abs=1e-10)


def test_spline_derivative_matches_finite_difference():
    spline = spline_fit(_cubic_values())
    h = 1e-6
    for x in (1.73, 32.4, 66.0, 93.0):
        fd = (spline_eval(spline, x + h) - spline_eval(spline, x - h)) / (2.0 * h)
        assert spline_derivative(spline, x) == pytest.approx(fd, abs=1e-4)


def test_spline_refuses_extrapolation():
    spline = spline_fit([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="extrapolation"):
        spline_eval(spline, 3.1)
    with pytest.raises(ValueError, match="extrapolation"):
        spline_derivative(spline, 0.9)
    with pytest.raises(ValueError, match="finite"):
        spline_eval(spline, math.nan)


def test_spline_fit_validation():
    with pytest.raises(ValueError, match="at least 3"):
        spline_fit([0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        spline_fit([0.0, math.inf, 0.0])
    # the (x, y) pairs the fit once took are refused, not misread
    with pytest.raises(ValueError, match="one-dimensional"):
        spline_fit([(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)])


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


def test_find_root_stops_at_adjacent_floats():
    # no float bracket around pi/2 is narrower than 1e-300, and |cos| at a
    # float near pi/2 is about 6e-17, so the search ends on a bracket of two
    # adjacent floats and returns its midpoint
    assert find_root_bracketed(math.cos, 0.0, 2.0, tol=1e-300) == 1.5707963267948966


def test_find_root_on_the_widest_finite_bracket_ends_without_a_cap():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return x - 1e-300

    huge = sys.float_info.max
    assert find_root_bracketed(f, -huge, huge, tol=5e-324) == 1e-300
    assert calls < 2200


@pytest.mark.parametrize("root", [0.95, 0.6, -0.7])
def test_find_root_near_the_largest_float(root):
    # lo + hi overflows once both ends pass half the largest float; the
    # midpoint must still fall inside the bracket
    root *= sys.float_info.max
    huge = sys.float_info.max
    assert find_root_bracketed(lambda x: x - root, -huge, huge, tol=5e-324) == root


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_find_root_rejects_a_tolerance_that_is_not_a_positive_real(tol):
    # a NaN tolerance used to run every iteration, an infinite one to
    # return the bracket midpoint 0.5 for a root at 0.3
    with pytest.raises(ValueError, match="tol must be a positive real"):
        find_root_bracketed(lambda x: x - 0.3, 0.0, 1.0, tol=tol)
