"""smoothint benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it); the package is
imported from ``src/`` of that checkout, never from an installed copy.

With ``--trace 0`` the ops run unwrapped in a closed loop (one client, no
threads) for whole passes over the op list until ``--seconds`` have been
measured, and the last line reports the end-to-end metrics.  With
``--trace 1`` one untraced and one traced pass run instead, and the last line
reports the per-layer metrics; the spans go to ``.perfbench_out/``.  Every op
output is checked against ``reference`` in both modes; a wrong answer counts
in ``failed``, it does not stop the run.  The line before the result is a
record of the machine, the versions and per-call medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ROADMAP item 1 baseline rows the workloads cover: label -> op kind
BASELINE_ROWS = {
    "decode": {
        "recover_match 10^6 rows": "recover_match@1e6",
        "recover_binary 10^6 rows": "recover_binary@1e6",
        "recover_spline 10^4 rows": "recover_spline@1e4",
    },
    "roundtrip": {"smoothint sweep 30 rows 3x1000 trials (CLI, incl. load)": "cli.sweep@30x3x1000"},
    "multidim": {"recover_multi pareto 2-D 60^2 eps=1e-4": "recover_multi.pareto@60x60,0.0001"},
}


def _import_package():
    src = ROOT / "src"
    if not (src / "smoothint" / "__init__.py").is_file():
        raise SystemExit(f"error: no smoothint sources under {src}")
    sys.path.insert(0, str(src))
    import smoothint

    if Path(smoothint.__file__).resolve().parent != (src / "smoothint").resolve():
        raise SystemExit(f"error: imported smoothint from {smoothint.__file__}, not {src}")
    return smoothint


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_kinds: dict[str, int] = {}

    def check(self, op, outcome, error) -> None:
        self.attempted += 1
        try:
            ok = error is None and bool(op.check(outcome))
        except Exception:  # a malformed output is a wrong answer
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            self.failed_kinds[op.kind] = self.failed_kinds.get(op.kind, 0) + 1
            if error is not None and self.failed_kinds[op.kind] == 1:
                print(f"op {op.kind} raised: {error!r}", file=sys.stderr)


def run_passes(ops, seconds: float, tally: Tally, tracer=None):
    """Whole passes over ``ops`` until ``seconds`` of loop time are measured.

    Returns the latencies in ns, one list per pass in op order, and the
    loop's wall time in seconds, excluding the time spent checking outputs.
    """
    clock = time.perf_counter_ns
    passes = []
    checking = 0
    start = clock()
    while True:
        latencies = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            error = outcome = None
            t0 = clock()
            try:
                outcome = op.run()
            except Exception as exc:  # a raising op counts as failed
                error = exc
            t1 = clock()
            latencies.append(t1 - t0)
            tally.check(op, outcome, error)
            checking += clock() - t1
        passes.append(latencies)
        wall = (clock() - start - checking) / 1e9
        if wall >= seconds:
            return passes, wall


def machine_record(smoothint) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "smoothint": smoothint.__version__,
    }


def _cache_sizes() -> dict[str, str]:
    """Per-level cache sizes of cpu0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return sizes


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_kind_ms(ops, op_ms) -> dict[str, dict]:
    """Median over each kind's ops of their per-op median latency."""
    groups: dict[str, list[float]] = {}
    for op, ms in zip(ops, op_ms):
        groups.setdefault(op.kind, []).append(ms)
    return {k: {"ops": len(v), "median_ms": statistics.median(v)} for k, v in sorted(groups.items())}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 tiny: bool = False, spans_path=None):
    """Set up, generate, warm up and measure one workload.

    Returns ``(metrics, tally, record)``; metrics are plain numbers keyed by
    metric name.  A traced run writes its spans to ``spans_path`` if given.
    """
    import smoothint
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, tiny)
    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    ops = workload.ops()
    tally = Tally()
    if not workload.setup_ok():
        tally.attempted += 1
        tally.failed += 1
        tally.failed_kinds["setup"] = 1
    run_passes(ops, 0, tally)  # warm-up pass: checked, not timed

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "ops_per_pass": len(ops)}
    if not trace:
        passes, wall = run_passes(ops, seconds, tally)
        # Each op's median over the passes, so that stretches of a run that
        # other tenants of a shared host slow down count for little.
        op_ms = [statistics.median(column) / 1e6 for column in zip(*passes)]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(ops) / (sum(op_ms) / 1e3),
            "op_p50_ms": nearest_rank(op_ms, 0.5),
            "op_p90_ms": nearest_rank(op_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kinds = per_kind_ms(ops, op_ms)
        record.update(passes=len(passes), timed_ops=len(passes) * len(ops), wall_s=wall,
                      wall_ops_per_s=len(passes) * len(ops) / wall,
                      setup_runs_s=setup_s, per_kind=kinds)
        baseline = {label: kinds[k]["median_ms"] for label, k in BASELINE_ROWS[name].items() if k in kinds}
        if getattr(workload, "build_ms", None):
            baseline["build_table 10^6 rows"] = statistics.median(workload.build_ms)
        record["baseline_ms"] = baseline
    else:
        from spans import Tracer

        _, plain_wall = run_passes(ops, 0, tally)
        tracer = Tracer()
        with tracer.installed(smoothint):
            workload.setup()  # op id -1: the set-up's spans
            _, traced_wall = run_passes(ops, 0, tally, tracer)
        metrics = tracer.layer_metrics()
        metrics["trace.ops"] = len(ops)
        metrics["trace.overhead_ratio"] = plain_wall / traced_wall
        record["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write(spans_path)
    record["failed_kinds"] = tally.failed_kinds
    return metrics, tally, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["decode", "roundtrip", "multidim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    smoothint = _import_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        metrics, tally, record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, spans_path=spans_path
        )
    if spans_path is not None:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["machine"] = machine_record(smoothint)
    record["failed_ratio"] = tally.failed / tally.attempted
    # waiting time is not reported: one thread, no queue, no lock
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
