import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    Mode,
    MultiEncoderConfig,
    Trig,
    build_table,
    coefficient,
    coordinatewise_recover,
    counter_grid,
    integral_closed,
    integral_quadrature,
    map_derivative_smooth,
    partial_sum,
    partial_sums,
    recover_multi,
    tail_bound,
    term_weights,
)
from smoothint import coefficients

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


@given(st.integers(min_value=1, max_value=3000))
def test_generalized_reproduces_canonical_bitwise(n):
    # (0.5, 1, 1) must hit the same floats, not merely close ones
    assert coefficient(Generalized(0.5, 1.0, 1.0), n) == coefficient(Canonical(), n)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _signs(ns):
    return np.where(ns % 2 == 0, 1.0, -1.0)


def test_canonical_matches_its_formula_bitwise_past_the_underflow():
    # 0.5**n underflows to zero from n = 1075 on
    ns = np.arange(1, 3001)
    oracle = (np.power(0.5, ns) + _signs(ns)) / ns
    assert np.array_equal(_bits(Canonical().coefficients(ns)), _bits(oracle))


ALPHAS = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]),
    st.floats(min_value=0.999, max_value=1.0, exclude_max=True),
    st.floats(min_value=-1.0, max_value=-0.999, exclude_min=True),
)


@given(
    ALPHAS,
    st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
    st.floats(min_value=1.0, max_value=3.0),
)
@example(alpha=-0.3, beta=0.0, gamma=1.0)  # pow's zeros keep the sign of alpha^n
@example(alpha=0.5, beta=1.0, gamma=1.0)
def test_generalized_matches_its_formula_bitwise_past_the_underflow(alpha, beta, gamma):
    # |alpha|^n underflows to zero from about n = 1075 / -log2|alpha| on:
    # check every row up to 1200, a dense block around that point and
    # log-spaced rows up to 10**12, which cross it for every alpha tested
    ns = [np.arange(1, 1201), np.geomspace(1, 1e12, 500).astype(np.int64)]
    if alpha != 0.0:
        start = int(1075 / -math.log2(abs(alpha)))
        if start < 10**12:
            ns.append(np.arange(max(1, start - 300), start + 300))
    ns = np.concatenate(ns)
    oracle = (np.power(alpha, ns) + _signs(ns) * beta) / np.power(ns.astype(float), gamma)
    family = Generalized(alpha, beta, gamma)
    assert np.array_equal(_bits(family.coefficients(ns)), _bits(oracle))


@pytest.mark.parametrize(
    "family",
    ALL_FAMILIES + [Generalized(-0.3, 0.0, 1.0), Generalized(0.99, 1.0, 1.0)],
    ids=repr,
)
def test_scalar_matches_array_past_the_underflow(family):
    vec = family.coefficients(np.arange(1, 5001))
    for n in (1074, 1075, 1076, 1077, 5000):
        assert coefficient(family, n).hex() == float(vec[n - 1]).hex()


def test_generalized_partial_sums_match_canonical_bitwise():
    a = partial_sums(Generalized(0.5, 1.0, 1.0), 3000)
    b = partial_sums(Canonical(), 3000)
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
    sums = partial_sums(fam, 1200)
    acc = 0.0
    for n in range(1, 1201):
        acc += coefficient(fam, n)
        assert sums[n - 1] == acc


def test_partial_sum_values():
    assert type(partial_sum(Canonical(), 2)) is float
    assert partial_sum(Canonical(), 2) == 0.125
    assert partial_sum(Canonical(), 0) == 0.0
    assert partial_sum(Canonical(), 10000) == 4.999749999998586e-05


def test_partial_sum_matches_array_tail():
    sums = partial_sums(Canonical(), 50)
    for n in (1, 7, 50):
        assert partial_sum(Canonical(), n) == sums[n - 1]


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


def test_tail_bound_closed_forms_of_exppoly_and_trig():
    for n in (1, 5, 30):
        assert tail_bound(ExpPoly(2.0), n) == 1.0 / (n + 1) ** 2.0 + math.exp(-1.0) ** (n + 1) / (
            1.0 - math.exp(-1.0)
        )
        assert tail_bound(Trig(), n) == math.exp(-(n + 1)) / (n + 1)


@pytest.mark.parametrize("family", [ExpPoly(1.0), ExpPoly(1.5), ExpPoly(3.0), Trig()], ids=repr)
def test_tail_bound_dominates_the_exact_tail(family):
    # mpmath is an oracle here only; the library stays numpy-only
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        if isinstance(family, Trig):
            # sum of (-1)^n e^-n / n = -ln(1 + 1/e)
            limit = -mpmath.log(1 + mpmath.exp(-1))
            term = lambda k: (-1) ** k * mpmath.exp(-k) / k
        else:
            # Li_p(1/e) plus the alternating sum of (-1)^n / n^p, which is -eta(p)
            p = mpmath.mpf(family.p)
            limit = mpmath.polylog(p, mpmath.exp(-1)) - mpmath.altzeta(p)
            term = lambda k: (mpmath.exp(-k) + (-1) ** k) / mpmath.mpf(k) ** p
        partial = mpmath.mpf(0)
        for n in range(1, 61):
            partial += term(n)
            assert abs(limit - partial) <= tail_bound(family, n), n


def test_tail_bound_rejects_a_non_family():
    with pytest.raises(TypeError, match="CoefficientFamily"):
        tail_bound("canonical", 5)


def test_tail_bound_rejects_bad_index():
    with pytest.raises(ValueError):
        tail_bound(Canonical(), 0)


@pytest.mark.parametrize("family, n", [(Trig(), 800), (Generalized(0.5, 0.0, 1.0), 2000)], ids=repr)
def test_tail_bound_never_underflows_to_zero(family, n):
    # e^-801 / 801 and 0.5^2001 / 0.5 lie below the smallest subnormal, but the tails are positive
    assert tail_bound(family, n) == math.ulp(0.0)


def test_tail_bound_where_the_power_overflows():
    # (n + 1)^3 is about 1e309, beyond the float range; the exact alternating part is about 1e-9
    n = 10**103
    bound = tail_bound(Generalized(0.5, 1e300, 3.0), n)
    assert Fraction(1e300) / (n + 1) ** 3 <= Fraction(bound) < 1.0


def test_tail_bound_refuses_an_index_beyond_the_float_range():
    assert tail_bound(Canonical(), 2**1000) == 1.0 / 2.0**1000
    with pytest.raises(ValueError, match=r"below 2\*\*1024"):
        tail_bound(Canonical(), 10**400)


def _refuse(*args, **kwargs):
    raise AssertionError("the rows were allocated")


CANONICAL = EncoderConfig(family=Canonical())
TOO_MANY = [
    lambda: partial_sums(Canonical(), 10**9),
    lambda: partial_sum(Generalized(0.3, 2.0, 1.5), 10**9),
    lambda: build_table(CANONICAL, 10**9),
    lambda: integral_closed(CANONICAL, 1e9),
    lambda: integral_closed(EncoderConfig(family=Trig(), mode=Mode.FRACTIONAL), 1e9 + 0.5),
    lambda: integral_closed(EncoderConfig(family=Canonical(), mode=Mode.SMOOTH), 1e9),
    lambda: map_derivative_smooth(EncoderConfig(family=Canonical(), mode=Mode.SMOOTH), 1e9),
    lambda: recover_multi(MultiEncoderConfig.isotropic(Canonical(), 2), 10**9, 1e-3),
    lambda: coordinatewise_recover(MultiEncoderConfig.isotropic(Canonical(), 2), (0.0, 0.0), 1e-3, 10**9),
    lambda: counter_grid(CANONICAL, 3, 0.0, 5.0, 10**9),
    lambda: integral_quadrature(CANONICAL, 3, -1.0, 5.0, 10**9),
]


@pytest.mark.parametrize("call", TOO_MANY, ids=range(len(TOO_MANY)))
def test_large_row_counts_are_refused_before_allocating(monkeypatch, call):
    monkeypatch.setattr(np, "arange", _refuse)
    monkeypatch.setattr(np, "ones", _refuse)
    monkeypatch.setattr(np, "linspace", _refuse)
    with pytest.raises(ValueError, match="exceeds the limit of 10000000 rows"):
        call()


def test_row_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(coefficients, "MAX_ROWS", 12)
    assert partial_sums(Canonical(), 12).size == 12
    fractional = EncoderConfig(family=Canonical(), mode=Mode.FRACTIONAL)
    assert term_weights(fractional, 11.5)[0].size == 12
    with pytest.raises(ValueError, match="13 rows exceeds the limit of 12 rows"):
        partial_sums(Canonical(), 13)
    with pytest.raises(ValueError, match="13 rows exceeds the limit of 12 rows"):
        term_weights(fractional, 12.5)
    assert counter_grid(fractional, 1.5, 0.0, 3.0, 12)[0].size == 12
    with pytest.raises(ValueError, match="13 rows exceeds the limit of 12 rows"):
        counter_grid(fractional, 1.5, 0.0, 3.0, 13)
