import dataclasses
import functools
import math
import random
import sys
import threading
import tracemalloc
import warnings
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
    MultiEncoderConfig,
    Sigmoid,
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
from smoothint.coefficients import FAMILIES

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


def test_parity_signs_match_the_modulo_rule_bitwise():
    int64 = np.iinfo(np.int64)
    arrays = [
        np.arange(-9, 40),
        np.array([int64.min, int64.min + 1, -(2**53) - 1, 2**53 + 1, int64.max - 1, int64.max]),
        np.arange(0, 40, dtype=np.int32),
        np.arange(0, 40, dtype=np.uint64),
    ]
    for ns in arrays:
        assert np.array_equal(_bits(coefficients._parity_signs(ns)), _bits(_signs(ns)))


# valid values for every parameter a registered family declares
PARAMETERS = {
    "alpha": st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    "beta": st.floats(min_value=-10.0, max_value=10.0),
    "gamma": st.floats(min_value=1.0, max_value=4.0),
    "p": st.floats(min_value=1.0, max_value=4.0),
}


@st.composite
def families(draw):
    cls = FAMILIES[draw(st.sampled_from(list(FAMILIES)))]
    return cls(**{f.name: draw(PARAMETERS[f.name]) for f in dataclasses.fields(cls)})


@given(
    families(),
    st.sampled_from([1, 2, 3, 7]),
    st.integers(min_value=0, max_value=140),
    st.sampled_from([-1, 0, 1]),
)
@example(family=Generalized(-0.0, 0.0, 1.0), chunk_rows=2, multiple=1, offset=1)  # S(1) = -0.0
@example(family=Generalized(-0.4, 0.0, 1.0), chunk_rows=7, multiple=125, offset=1)  # zeros past row 833
@example(family=Generalized(0.5, 1.0, 1.0), chunk_rows=3, multiple=40, offset=-1)
def test_chunked_sums_have_the_bits_of_one_cumsum(family, chunk_rows, multiple, offset):
    # n straddles a multiple of the chunk size, so chunks end before, on and after row n
    n = max(1, chunk_rows * multiple + offset)
    reference = np.cumsum(family.coefficients(np.arange(1, n + 1)))
    # each call starts with no kept heads, so every row is summed in the patched chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coefficients, "_CHUNK_ROWS", chunk_rows)
        coefficients._kept_head.cache_clear()
        sums = partial_sums(family, n)
        coefficients._kept_head.cache_clear()
        last = partial_sum(family, n)
        if family == Generalized(0.5, 1.0, 1.0):
            coefficients._kept_head.cache_clear()
            assert np.array_equal(_bits(sums), _bits(partial_sums(Canonical(), n)))
        coefficients._kept_head.cache_clear()
    assert np.array_equal(_bits(sums), _bits(reference))
    assert _bits([last]) == _bits(reference[-1:])


def test_partial_sum_holds_one_chunk():
    tracemalloc.start()
    try:
        partial_sum(Canonical(), 5 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 5 * 10**6 sums would take 38 MiB; one chunk's temporaries take under 1 MiB
    assert peak < 2 * 2**20


# rows at which a head's chunks, the head itself and a 30000-row call end
HEAD_EDGES = [1, 255, 256, 257, 16383, 16384, 16385, 3 * 10**4]
# families whose heads must be kept apart: signed zeros give different
# bits, an int parameter and the equal float are two keys with the same
# bits, Canonical and Trig have no parameters, and Generalized(0.5, 1, 1)
# has Canonical's bits
KEY_NEIGHBOURS = [
    Generalized(-0.0, 0.0, 1.0),
    Generalized(-0.0, -0.0, 1.0),
    Generalized(0.0, -0.0, 1.0),
    Generalized(0.0, 0.0, 1.0),
    Generalized(-0.4, -0.0, 1),
    Generalized(-0.4, 0.0, 1),
    Generalized(0.5, 1, 1),
    Canonical(),
    Trig(),
    Generalized(0, -3, 2),
    Generalized(0.0, -3.0, 2.0),
    ExpPoly(2),
    ExpPoly(2.0),
]


def _head_calls(family, n):
    """Every public path over a family's head, each result as int64 bits or a tuple."""
    config = MultiEncoderConfig.isotropic(family, 1)
    last = float(build_table(EncoderConfig(family=family), n).values[-1])
    return [
        lambda: _bits(partial_sums(family, n)),
        lambda: _bits([partial_sum(family, n)]),
        lambda: _bits(build_table(EncoderConfig(family=family), n).values),
        lambda: coordinatewise_recover(config, (last,), 1e-300, n),
        lambda: coordinatewise_recover(config, (10.0,), 1e-3, n),
    ]


@given(
    st.one_of(families(), st.sampled_from(KEY_NEIGHBOURS)),
    st.sampled_from(KEY_NEIGHBOURS),
    st.sampled_from(HEAD_EDGES),
)
@example(family=Generalized(-0.0, 0.0, 1.0), neighbour=Generalized(0.0, 0.0, 1.0), n=1)  # S(1) = -0.0 and 0.0
@example(family=Generalized(0.5, 1, 1), neighbour=Canonical(), n=16385)
@example(family=Trig(), neighbour=Canonical(), n=257)
def test_kept_heads_give_the_bits_of_a_cold_call(family, neighbour, n):
    reference = np.cumsum(family.coefficients(np.arange(1, n + 1)))
    try:
        for call, neighbour_call in zip(_head_calls(family, n), _head_calls(neighbour, n)):
            coefficients._kept_head.cache_clear()
            cold = call()
            coefficients._kept_head.cache_clear()
            neighbour_cold = neighbour_call()
            # cold again beside the neighbour's head, then warm from its own
            assert np.array_equal(call(), cold)
            assert np.array_equal(call(), cold)
            assert np.array_equal(neighbour_call(), neighbour_cold)
        assert np.array_equal(_bits(partial_sums(family, n)), _bits(reference))
        # a caller's array is its own: writing to it leaves the head alone
        partial_sums(family, n)[:] = 7.0
        build_table(EncoderConfig(family=family), n).values[:] = 7.0
        assert np.array_equal(_bits(partial_sums(family, n)), _bits(reference))
        for beta in range(coefficients._HEAD_FAMILIES + 1):
            partial_sum(Generalized(0.5, beta, 1.0), 1)
        assert coefficients._kept_head.cache_info().currsize == coefficients._HEAD_FAMILIES
    finally:
        coefficients._kept_head.cache_clear()


def test_heads_shared_by_threads_keep_their_bits(monkeypatch):
    # two kept heads for four families, so heads are filled, read and
    # evicted while other threads use them
    kept_head = functools.lru_cache(maxsize=2)(coefficients._kept_head.__wrapped__)
    monkeypatch.setattr(coefficients, "_kept_head", kept_head)
    family_list = [Canonical(), Trig(), Generalized(-0.0, 0.0, 1.0), Generalized(0.3, 2.0, 1.5)]
    references = {
        (family, n): _bits(np.cumsum(family.coefficients(np.arange(1, n + 1))))
        for family in family_list
        for n in (1, 300, 5000, 16384, 20000)
    }
    wrong = []

    def work(seed):
        try:
            for family, n in random.Random(seed).sample(list(references), len(references)) * 3:
                if not np.array_equal(_bits(partial_sums(family, n)), references[family, n]):
                    wrong.append((family, n))
        except Exception as error:  # a raising thread fails the test through `wrong`
            wrong.append(error)

    interval = sys.getswitchinterval()
    coefficients._kept_head.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        coefficients._kept_head.cache_clear()
    assert wrong == []


@pytest.mark.parametrize("n", [1, 255, 256, 257, 16383, 16384])
def test_a_longdouble_parameter_keeps_its_precision(n):
    # rounded to a double, the wide alpha equals the narrow one, but
    # np.power evaluates it in long double; a head keyed by doubles would
    # hand one family the other's rows
    wide = Generalized(np.longdouble("0.3"), 1.0, 1.0)
    narrow = Generalized(0.3, 1.0, 1.0)
    references = {family: np.cumsum(family.coefficients(np.arange(1, n + 1))) for family in (wide, narrow)}
    assert not np.array_equal(references[wide], references[narrow])
    try:
        for first, second in ((wide, narrow), (narrow, wide)):
            coefficients._kept_head.cache_clear()
            for family in (first, second, first):
                sums = partial_sums(family, n)
                assert sums.dtype == references[family].dtype
                assert np.array_equal(sums, references[family])
                assert partial_sum(family, n) == float(references[family][-1])
    finally:
        coefficients._kept_head.cache_clear()


def test_heads_evaluate_no_row_the_caller_did_not_ask_for():
    # 35**200 overflows, so rows from 35 on warn; a head filled ahead of the
    # rows asked for would warn on n = 30 too
    family = Generalized(0.3, 1.0, 200.0)
    coefficients._kept_head.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            partial_sums(family, 30)  # cold
            partial_sums(family, 30)  # warm
        with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
            partial_sums(family, 40)
    finally:
        coefficients._kept_head.cache_clear()


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
# (call, the start of its refusal)
TOO_MANY = [
    (lambda: partial_sums(Canonical(), 10**9), "n_max = 1000000000 "),
    (lambda: partial_sum(Generalized(0.3, 2.0, 1.5), 10**9), "n = 1000000000 "),
    (lambda: build_table(CANONICAL, 10**9), "n_max = 1000000000 "),
    (lambda: integral_closed(CANONICAL, 1e9), "n_value = 1000000000.0 "),
    (lambda: integral_closed(EncoderConfig(family=Trig()), 1e9 + 0.5), "n_value = 1000000000.5 "),
    (lambda: integral_closed(EncoderConfig(family=Canonical(), transition=Sigmoid()), 1e9), "N=1000000000.0 "),
    (lambda: map_derivative_smooth(EncoderConfig(family=Canonical(), transition=Sigmoid()), 1e9), "N=1000000000.0 "),
    (lambda: recover_multi(MultiEncoderConfig.isotropic(Canonical(), 2), 10**9, 1e-3), "n_max = 1000000000 "),
    (
        lambda: coordinatewise_recover(MultiEncoderConfig.isotropic(Canonical(), 2), (0.0, 0.0), 1e-3, 10**9),
        "n_max = 1000000000 ",
    ),
    (lambda: counter_grid(CANONICAL, 3, 0.0, 5.0, 10**9), "points = 1000000000 "),
    (lambda: integral_quadrature(CANONICAL, 3, -1.0, 5.0, 10**9), "points = 1000000000 "),
]


@pytest.mark.parametrize("call, refusal", TOO_MANY, ids=range(len(TOO_MANY)))
def test_large_row_counts_are_refused_before_allocating(monkeypatch, call, refusal):
    monkeypatch.setattr(np, "arange", _refuse)
    monkeypatch.setattr(np, "ones", _refuse)
    monkeypatch.setattr(np, "linspace", _refuse)
    with pytest.raises(ValueError, match=f"^{refusal}.*exceeds the limit of 10000000"):
        call()


def test_row_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(coefficients, "MAX_ROWS", 12)
    assert partial_sums(Canonical(), 12).size == 12
    config = EncoderConfig(family=Canonical())
    assert term_weights(config, 11.5)[0].size == 12
    with pytest.raises(ValueError, match="^n_max = 13 exceeds the limit of 12$"):
        partial_sums(Canonical(), 13)
    with pytest.raises(ValueError, match="^rows = 13 exceeds the limit of 12$"):
        term_weights(config, 12.5)
    assert counter_grid(config, 1.5, 0.0, 3.0, 12)[0].size == 12
    with pytest.raises(ValueError, match="^points = 13 exceeds the limit of 12$"):
        counter_grid(config, 1.5, 0.0, 3.0, 13)
