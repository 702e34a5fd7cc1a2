"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL verdict line (shown
in the PASSES summary section of a plain pytest run).  The tolerances here
are pinned contract values, not suggestions.
"""

import itertools
import json
import math
import time

import numpy as np

from smoothint import (
    Canonical,
    EncoderConfig,
    MultiEncoderConfig,
    Sigmoid,
    area_scale,
    build_table,
    coefficient,
    integral_closed,
    integral_multi,
    integral_quadrature,
    map_derivative_smooth,
    partial_sums,
    recover_analytic_fractional,
    recover_binary,
    recover_match,
    recover_multi,
    tail_bound,
)
from smoothint.cli import main as cli_main
from smoothint.tableio import load_table, save_table_json

CONFIG = EncoderConfig(family=Canonical(), delta=0.2)

# reference integral column for delta = 0.2, rounded to four decimals
REFERENCE_TABLE = [
    -0.2507, 0.0627, -0.0836, 0.0496, -0.0475, 0.0373, -0.0337, 0.0292,
    -0.0264, 0.0238, -0.0218, 0.0200, -0.0185, 0.0173, -0.0162, 0.0152,
    -0.0143, 0.0135, -0.0128, 0.0122, -0.0117, 0.0111, -0.0107, 0.0102,
    -0.0098, 0.0095, -0.0091, 0.0088, -0.0085, 0.0082,
]


def _verdict(index: int, name: str, ok: bool) -> None:
    print(f"criterion {index:02d} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    table = build_table(CONFIG, 30)
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(table.values - np.array(REFERENCE_TABLE))))
    ok = deviation < 5e-5 and elapsed < 1.0
    _verdict(1, "table reproduction", ok)
    assert deviation < 5e-5, f"max deviation {deviation}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_target_match(table30):
    result = recover_match(table30, 0.028, 0.005)
    ok = result is not None and result.n == 8
    _verdict(2, "target match", ok)
    assert ok, f"got {result!r}"


def test_criterion_03_certified_tail_bound():
    horizon = 10_000
    sums = partial_sums(Canonical(), horizon)
    magnitudes = np.abs(sums)
    bounds = np.array([tail_bound(Canonical(), n) for n in range(1, horizon + 1)])
    holds_everywhere = bool(np.all(magnitudes <= bounds))
    deep = abs(sums[-1]) < 1e-4
    ok = holds_everywhere and deep
    _verdict(3, "certified tail bound", ok)
    assert holds_everywhere, "bound violated somewhere in 1..10000"
    assert deep, f"|S(10000)| = {abs(sums[-1])}"


def test_criterion_04_quadrature_cross_check():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 5, 20):
        approx = integral_quadrature(CONFIG, n, 0.0, n + 3.0, 4000)
        worst = max(worst, abs(approx - integral_closed(CONFIG, n)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    _verdict(4, "quadrature cross-check", ok)
    assert worst < 1e-6, f"worst |quadrature - closed| = {worst}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_05_fractional_continuity_and_kinks():
    scale = area_scale(0.2)
    worst_jump_error = 0.0
    worst_continuity = 0.0
    for k in range(1, 26):
        at_k = integral_closed(CONFIG, float(k))
        left = integral_closed(CONFIG, k - 0.5) + 0.5 * scale * coefficient(Canonical(), k)
        right = integral_closed(CONFIG, k + 0.5) - 0.5 * scale * coefficient(Canonical(), k + 1)
        worst_continuity = max(worst_continuity, abs(left - at_k), abs(right - at_k))
        left_slope = (at_k - integral_closed(CONFIG, k - 0.5)) / 0.5
        right_slope = (integral_closed(CONFIG, k + 0.5) - at_k) / 0.5
        expected_jump = scale * (coefficient(Canonical(), k + 1) - coefficient(Canonical(), k))
        worst_jump_error = max(worst_jump_error, abs((right_slope - left_slope) - expected_jump))
    ok = worst_continuity < 1e-12 and worst_jump_error < 1e-10
    _verdict(5, "fractional continuity", ok)
    assert worst_continuity < 1e-12, f"one-sided limits off by {worst_continuity}"
    assert worst_jump_error < 1e-10, f"derivative jump off by {worst_jump_error}"


def test_criterion_06_analytic_inversion():
    rng = np.random.default_rng(42)
    draws = rng.uniform(0.0, 30.0, 1000)
    worst = 0.0
    for true_n in draws:
        target = integral_closed(CONFIG, float(true_n))
        result = recover_analytic_fractional(CONFIG, target, math.floor(true_n))
        worst = max(worst, abs(result.n - true_n))
    ok = worst < 1e-9
    _verdict(6, "analytic inversion", ok)
    assert ok, f"worst round-trip error {worst}"


def test_criterion_07_smooth_derivative():
    h = 1e-5
    rng = np.random.default_rng(7)
    worst = 0.0
    for sharpness in (10.0, 100.0):
        config = EncoderConfig(family=Canonical(), delta=0.2, transition=Sigmoid(sharpness))
        for n_value in rng.uniform(0.0, 10.0, 50):
            n_value = float(n_value)
            fd = (
                integral_closed(config, n_value + h) - integral_closed(config, n_value - h)
            ) / (2.0 * h)
            worst = max(worst, abs(map_derivative_smooth(config, n_value) - fd))
    ok = worst < 1e-5
    _verdict(7, "smooth derivative", ok)
    assert ok, f"worst derivative mismatch {worst}"


def test_criterion_08_binary_search_equivalence():
    table = build_table(CONFIG, 1000)
    assert table.supports_binary
    targets = np.linspace(-0.26, 0.07, 10_000)
    disagreements = 0
    for epsilon in (1e-4, 1e-3, 1e-2):
        for target in targets:
            scan = recover_match(table, float(target), epsilon)
            fast = recover_binary(table, float(target), epsilon)
            if (scan is None) != (fast is None):
                disagreements += 1
            elif scan is not None and (scan.n != fast.n or scan.residual != fast.residual):
                disagreements += 1
    ok = disagreements == 0
    _verdict(8, "binary search equivalence", ok)
    assert ok, f"{disagreements} disagreements"


def test_criterion_09_separable_product_map():
    worst = 0.0
    for dimension, limit in ((2, 8), (3, 5)):
        config = MultiEncoderConfig.isotropic(Canonical(), dimension, delta=0.2)
        sums = partial_sums(Canonical(), limit)
        scale = (2.0 * math.pi) ** (dimension / 2.0) * 0.2**dimension
        for combo in itertools.product(range(1, limit + 1), repeat=dimension):
            expected = scale
            for component in combo:
                expected *= float(sums[component - 1])
            worst = max(worst, abs(integral_multi(config, combo) - expected))

    config2 = MultiEncoderConfig.isotropic(Canonical(), 2, delta=0.2)
    epsilon = 1e-4
    exhaustive = [
        combo
        for combo in itertools.product(range(1, 31), repeat=2)
        if abs(integral_multi(config2, combo)) < epsilon
    ]
    first = recover_multi(config2, 30, epsilon)
    minimal = sorted(
        c
        for c in exhaustive
        if not any(o != c and all(a <= b for a, b in zip(o, c)) for o in exhaustive)
    )
    pareto = recover_multi(config2, 30, epsilon, pareto=True)

    config3 = MultiEncoderConfig.isotropic(Canonical(), 3, delta=0.2)
    epsilon3 = 3e-5
    exhaustive3 = [
        combo
        for combo in itertools.product(range(1, 13), repeat=3)
        if abs(integral_multi(config3, combo)) < epsilon3
    ]
    first3 = recover_multi(config3, 12, epsilon3)
    minimal3 = sorted(
        c
        for c in exhaustive3
        if not any(o != c and all(a <= b for a, b in zip(o, c)) for o in exhaustive3)
    )
    pareto3 = recover_multi(config3, 12, epsilon3, pareto=True)
    ok3 = bool(exhaustive3) and first3 == min(exhaustive3) and pareto3 == minimal3

    ok = worst < 1e-10 and first == (min(exhaustive) if exhaustive else None) and pareto == minimal and ok3
    _verdict(9, "separable product map", ok)
    assert worst < 1e-10, f"separability residual {worst}"
    assert first == (min(exhaustive) if exhaustive else None), f"{first} vs exhaustive"
    assert pareto == minimal, f"{pareto} vs {minimal}"
    assert exhaustive3 and first3 == min(exhaustive3), f"3-D: {first3} vs exhaustive"
    assert pareto3 == minimal3, f"3-D: {pareto3} vs {minimal3}"


def test_criterion_10_perturbation_tolerance(table30):
    epsilon = 0.02
    shift = epsilon / 2.0 - 1e-12
    deep_rows = [n for n in range(1, 31) if abs(table30.value_at(n)) < 0.01]
    failures = []
    for n in deep_rows:
        for sign in (+1.0, -1.0):
            result = recover_match(table30, table30.value_at(n) + sign * shift, epsilon)
            if result is None or result.n > n:
                failures.append((n, sign))
    ok = bool(deep_rows) and not failures
    _verdict(10, "perturbation tolerance", ok)
    assert deep_rows, "no rows below the depth threshold"
    assert not failures, f"unrecovered rows: {failures}"


def test_criterion_11_cli_round_trip(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli_main(["table", "--n-max", "30", "--out", str(first)]) == 0
    assert cli_main(["table", "--n-max", "30", "--out", str(second)]) == 0
    capsys.readouterr()
    code = cli_main(
        ["recover", "--table", str(first), "--target", "0.028", "--epsilon", "0.005"]
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    resaved = tmp_path / "c.json"
    save_table_json(load_table(first), resaved)
    byte_identical = (
        first.read_bytes() == second.read_bytes()
        and first.read_bytes() == resaved.read_bytes()
    )
    ok = code == 0 and payload["n"] == 8 and byte_identical
    _verdict(11, "command line round trip", ok)
    assert code == 0
    assert payload["n"] == 8, out
    assert byte_identical, "JSON serialization is not byte-stable"
