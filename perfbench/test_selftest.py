"""The benchmark's own checks: tiny runs pass, wrong answers are caught.

    python3 -m pytest perfbench/test_selftest.py -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from smoothint import cli, multidim, recovery  # noqa: E402

WORKLOADS = ["decode", "roundtrip", "multidim"]


def tiny_run(workload, tmp_path, trace=False, seed=7):
    tmp_path.mkdir(exist_ok=True)
    return run.run_workload(workload, seed, 0, trace, str(tmp_path), tiny=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_has_no_failures(workload, tmp_path):
    metrics, tally, _ = tiny_run(workload, tmp_path)
    assert tally.attempted > 0
    assert tally.failed == 0
    assert metrics["ops_per_s"] > 0 and metrics["setup_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first, tally, _ = tiny_run(workload, tmp_path / "a", trace=True)
    second, _, _ = tiny_run(workload, tmp_path / "b", trace=True)
    assert tally.failed == 0
    assert first["trace.ops"] > 0
    timed = ("_ms", "overhead_ratio")
    counts = {k: v for k, v in first.items() if not k.endswith(timed)}
    assert counts == {k: v for k, v in second.items() if not k.endswith(timed)}


def test_traced_run_restores_the_library(tmp_path):
    before = recovery.recover_match
    tiny_run("decode", tmp_path, trace=True)
    assert recovery.recover_match is before
    assert cli.recover_match is before


def off_by_one(decoder):
    """A decoder that answers n + 1 wherever the real one answers n."""

    def stub(*args, **kwargs):
        result = decoder(*args, **kwargs)
        if result is None:
            return None
        if isinstance(result, tuple):
            return (result[0] + 1,) + result[1:]
        if isinstance(result, list):
            return [(r[0] + 1,) + r[1:] for r in result]
        return dataclasses.replace(result, n=result.n + 1)

    return stub


@pytest.mark.parametrize(
    "workload, module, name",
    [
        ("decode", recovery, "recover_match"),
        ("decode", recovery, "recover_binary"),
        ("roundtrip", cli, "recover_binary"),
        ("multidim", multidim, "recover_multi"),
        ("multidim", multidim, "coordinatewise_recover"),
    ],
)
def test_wrong_answers_are_counted(workload, module, name, monkeypatch, tmp_path):
    monkeypatch.setattr(module, name, off_by_one(getattr(module, name)))
    _, tally, record = tiny_run(workload, tmp_path)
    assert tally.failed > 0
    assert tally.failed < tally.attempted


def test_one_ulp_in_a_written_grid_is_counted(monkeypatch, tmp_path):
    exact = cli.integral_multi
    monkeypatch.setattr(cli, "integral_multi", lambda *a: exact(*a) * (1.0 + 2.0**-52))
    _, tally, record = tiny_run("multidim", tmp_path)
    assert set(record["failed_kinds"]) == {"cli.multidim@6x5", "cli.multidim@3x4x2"}


def test_raising_op_is_counted(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(recovery, "recover_threshold", broken)
    _, tally, record = tiny_run("decode", tmp_path)
    assert set(record["failed_kinds"]) == {"recover_threshold@1e4", "recover_threshold@1e6",
                                           "recover_threshold@trig1e4"}
