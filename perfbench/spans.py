"""Spans around the library's public functions, for the traced run only.

Each traced function is rebound in every smoothint module that holds a
reference to it, because that is where its callers look it up; calls the
package makes to itself (``noise_sweep`` -> ``recover_match``, ``cli`` ->
``build_table``) are therefore counted too.  Transition ``__call__`` and
``IntegralTable.__post_init__`` are rebound on their classes.  Everything is
restored when the ``installed`` block ends, so the untraced run that gives
the end-to-end metrics executes the unwrapped code.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter

# (module, function) pairs whose calls get a span named "<module>.<function>"
TRACED = [
    ("coefficients", "partial_sums"),
    ("coefficients", "partial_sum"),
    ("integral_map", "build_table"),
    ("integral_map", "integral_closed"),
    ("encoder", "counter_grid"),
    ("encoder", "term_weights"),
    ("interp", "spline_fit"),
    ("interp", "find_root_bracketed"),
    ("recovery", "recover_match"),
    ("recovery", "recover_binary"),
    ("recovery", "recover_threshold"),
    ("recovery", "recover_spline"),
    ("recovery", "noise_sweep"),
    ("multidim", "recover_multi"),
    ("multidim", "integral_multi"),
    ("multidim", "coordinatewise_recover"),
    ("tableio", "save_table_json"),
    ("tableio", "save_table_csv"),
    ("tableio", "load_table"),
]
TRANSITIONS = ("Sigmoid", "Smoothstep", "Heaviside")
RECOVERIES = ("recover_match", "recover_binary", "recover_threshold", "recover_spline")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, namer=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [namer(args, kwargs) if namer else name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_root_eval(self, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "interp.find_root_bracketed":
                self.counts["interp.root_evals"] += 1
            return fn(*args, **kwargs)

        return counted

    def _after(self, qualified):
        counts = self.counts
        if qualified == "coefficients.partial_sums":
            return lambda a, k, r: counts.update({"coefficients.partial_sums.rows": int(a[1])})
        if qualified.split(".")[1] in RECOVERIES:
            return lambda a, k, r: counts.update({"recovery.hits": r is not None})
        if qualified.startswith("tableio.save"):
            return lambda a, k, r: counts.update({"tableio.bytes_written": os.path.getsize(a[1])})
        if qualified == "tableio.load_table":
            return lambda a, k, r: counts.update({"tableio.bytes_read": os.path.getsize(a[0])})
        return None

    @contextlib.contextmanager
    def installed(self, package):
        modules = [package] + [
            m for name, m in sys.modules.items() if name.startswith(package.__name__ + ".")
        ]
        undo = []

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, replacement)

        def rebind_method(cls, attr, replacement):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, replacement)

        try:
            for module_name, function in TRACED:
                original = getattr(sys.modules[f"{package.__name__}.{module_name}"], function)
                qualified = f"{module_name}.{function}"
                namer = None
                if function == "recover_multi":
                    namer = lambda a, k: "multidim.recover_multi." + ("pareto" if k.get("pareto") else "first")
                rebind(original, self.wrap(qualified, original, namer, self._after(qualified)))
            rebind(package.interp.spline_eval, self._count_root_eval(package.interp.spline_eval))
            for name in TRANSITIONS:
                cls = getattr(package.bumps, name)
                rebind_method(cls, "__call__", self.wrap("bumps.transition", cls.__dict__["__call__"]))
            table_cls = package.integral_map.IntegralTable
            rebind_method(
                table_cls, "__post_init__",
                self.wrap("integral_map.IntegralTable", table_cls.__dict__["__post_init__"]),
            )
            cli = package.cli
            rebind_method(cli, "main", self.wrap("cli", cli.main, lambda a, k: "cli." + a[0][0]))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the derived counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        fallbacks = sweep_matches = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if name == "recovery.recover_match" and parent >= 0:
                parent_name = spans[parent][0]
                fallbacks += parent_name == "recovery.recover_binary"
                sweep_matches += parent_name == "recovery.noise_sweep"
        out = {}
        for name in calls.keys() | set(_SPAN_NAMES):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        counts = self.counts
        searches = sum(calls[f"recovery.{r}"] for r in RECOVERIES)
        finds = calls["interp.find_root_bracketed"]
        binaries = calls["recovery.recover_binary"]
        out.update({
            "coefficients.partial_sums.rows": counts["coefficients.partial_sums.rows"],
            "interp.root_evals_per_call": counts["interp.root_evals"] / finds if finds else 0.0,
            "recovery.recover_binary.fallback_ratio": fallbacks / binaries if binaries else 0.0,
            "recovery.hit_ratio": counts["recovery.hits"] / searches if searches else 0.0,
            "recovery.noise_sweep.match_calls": sweep_matches,
            "tableio.bytes_written": counts["tableio.bytes_written"],
            "tableio.bytes_read": counts["tableio.bytes_read"],
        })
        return out


_SPAN_NAMES = (
    [f"{m}.{f}" for m, f in TRACED if f != "recover_multi"]
    + ["multidim.recover_multi.first", "multidim.recover_multi.pareto", "bumps.transition",
       "integral_map.IntegralTable"]
    + [f"cli.{c}" for c in ("table", "recover", "sweep", "plot-data", "multidim")]
)
