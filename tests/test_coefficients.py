import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    ExpPoly,
    Generalized,
    PartialSum,
    Trig,
    coefficient,
    partial_sum,
    partial_sums,
    tail_bound,
)

ALL_FAMILIES = [Canonical(), Generalized(0.3, 2.0, 1.5), ExpPoly(2.0), Trig()]


def test_canonical_first_terms():
    fam = Canonical()
    assert coefficient(fam, 1) == -0.5
    assert coefficient(fam, 2) == 0.625
    assert coefficient(fam, 3) == (0.125 - 1.0) / 3.0
    assert coefficient(fam, 4) == 0.265625


def test_canonical_signs_alternate():
    fam = Canonical()
    for n in range(1, 60):
        assert math.copysign(1.0, coefficient(fam, n)) == (1.0 if n % 2 == 0 else -1.0)


def test_trig_is_signed_exponential():
    # libm and numpy exp may differ in the last bit, hence approx
    fam = Trig()
    assert coefficient(fam, 3) == pytest.approx(-math.exp(-3) / 3, rel=1e-15)
    assert coefficient(fam, 4) == pytest.approx(math.exp(-4) / 4, rel=1e-15)


def test_exppoly_decay():
    fam = ExpPoly(p=2.0)
    assert coefficient(fam, 2) == pytest.approx((math.exp(-2) + 1.0) / 4.0, rel=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_vectorized_matches_scalar(family):
    ns = np.arange(1, 40)
    vec = family.coefficients(ns)
    for n, v in zip(ns, vec):
        assert v == coefficient(family, int(n))


@given(st.integers(min_value=1, max_value=400))
def test_generalized_reproduces_canonical_bitwise(n):
    # (0.5, 1, 1) must hit the same floats, not merely close ones
    assert coefficient(Generalized(0.5, 1.0, 1.0), n) == coefficient(Canonical(), n)


def test_generalized_partial_sums_match_canonical_bitwise():
    a = partial_sums(Generalized(0.5, 1.0, 1.0), 200)
    b = partial_sums(Canonical(), 200)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [1.0, -1.0, 1.5, math.inf])
def test_generalized_rejects_nondecaying_alpha(alpha):
    with pytest.raises(ValueError):
        Generalized(alpha=alpha, beta=1.0, gamma=1.0)


def test_generalized_rejects_small_gamma():
    with pytest.raises(ValueError, match="gamma"):
        Generalized(alpha=0.5, beta=1.0, gamma=0.5)


def test_exppoly_rejects_small_p():
    with pytest.raises(ValueError, match="p must"):
        ExpPoly(p=0.99)


@pytest.mark.parametrize("bad", [0, -1])
def test_term_index_must_be_positive(bad):
    with pytest.raises(ValueError):
        coefficient(Canonical(), bad)


def test_term_index_must_be_integer():
    with pytest.raises(TypeError):
        coefficient(Canonical(), 1.5)
    with pytest.raises(TypeError):
        coefficient(Canonical(), True)


def test_partial_sums_equal_sequential_fold():
    # bit-identical to left-to-right accumulation, the package-wide contract
    fam = Canonical()
    sums = partial_sums(fam, 300)
    acc = 0.0
    for n in range(1, 301):
        acc += coefficient(fam, n)
        assert sums[n - 1] == acc


def test_partial_sum_values():
    assert partial_sum(Canonical(), 2) == PartialSum(2, 0.125)
    assert partial_sum(Canonical(), 0) == PartialSum(0, 0.0)
    assert partial_sum(Canonical(), 10000).value == 4.999749999998586e-05


def test_partial_sum_matches_array_tail():
    sums = partial_sums(Canonical(), 50)
    for n in (1, 7, 50):
        assert partial_sum(Canonical(), n).value == sums[n - 1]


def test_partial_sum_validation():
    with pytest.raises(ValueError):
        partial_sum(Canonical(), -1)
    with pytest.raises(TypeError):
        partial_sum(Canonical(), 2.0)


def test_tail_bound_canonical_closed_form():
    for n in (1, 5, 30, 100):
        assert tail_bound(Canonical(), n) == 1.0 / (n + 1) + 0.5 ** (n + 1) / 0.5
    assert tail_bound(Canonical(), 30) == 0.032258065447451606


def test_tail_bound_dominates_partial_sums():
    # the full series sums to zero, so |S(n)| is the magnitude of the tail
    sums = partial_sums(Canonical(), 100)
    for n in range(1, 101):
        assert abs(sums[n - 1]) <= tail_bound(Canonical(), n)


@given(
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1.0, max_value=3.0),
    st.integers(min_value=1, max_value=80),
)
def test_tail_bound_dominates_generalized_tail(alpha, beta, gamma, n):
    fam = Generalized(alpha=alpha, beta=beta, gamma=gamma)
    # bound the tail directly: |S(far) - S(n)| for a far horizon
    sums = partial_sums(fam, 4000)
    tail = abs(sums[3999] - sums[n - 1])
    # the alternating part beyond the horizon is below 1e-3 at gamma >= 1
    assert tail <= tail_bound(fam, n) + 1e-3


def test_tail_bound_unsupported_families():
    with pytest.raises(NotImplementedError):
        tail_bound(ExpPoly(), 5)
    with pytest.raises(NotImplementedError):
        tail_bound(Trig(), 5)


def test_tail_bound_rejects_bad_index():
    with pytest.raises(ValueError):
        tail_bound(Canonical(), 0)
