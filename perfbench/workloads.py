"""The three workloads: their set-up, their op lists and each op's check.

Every input is drawn from the workload's seed before timing starts, and
every expected answer comes from ``reference`` (no smoothint involved).  Op
counts per pass are fixed; the seed only moves targets, tolerances, sizes
within a stratum, families and order, so passes on different seeds cost
about the same and the end-to-end figures are comparable across seeds.

Library functions are looked up on their defining module at call time
(``recovery.recover_match``), which is where the traced run rebinds them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from smoothint import cli, integral_map, multidim, recovery, tableio
from smoothint.coefficients import Canonical, ExpPoly, Generalized, Trig
from smoothint.encoder import EncoderConfig

DELTA = 0.2
_FAMILY_CLASSES = {"canonical": Canonical, "generalized": Generalized, "exppoly": ExpPoly, "trig": Trig}


@dataclass
class Op:
    """One timed call.  ``kind`` groups ops for per-call medians."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def family_object(family):
    kind, params = family
    return _FAMILY_CLASSES[kind](**params)


def family_args(family) -> list[str]:
    kind, params = family
    args = ["--family", kind]
    for name, value in params.items():
        args += [f"--{name}", repr(value)]
    return args


def call_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``smoothint`` run; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def written(path: str, full_check: Callable[[], bool]) -> Callable[[object], bool]:
    """Check for a CLI run that writes ``path``: exit code 0 and right content.

    The file is parsed and compared in full the first time; later passes
    write the same bytes, so a file whose digest already passed the full
    check is accepted without parsing it again.
    """
    passed: set[bytes] = set()

    def check(outcome) -> bool:
        if outcome[0] != 0:
            return False
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).digest()
        if digest not in passed:
            if not full_check():
                return False
            passed.add(digest)
        return True

    return check


def log_strata(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """k log-uniform draws in [lo, hi], one per equal-width stratum, shuffled."""
    u = (np.arange(k) + rng.random(k)) / k
    values = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    rng.shuffle(values)
    return values


def log_ints(rng, lo: int, hi: int, k: int) -> list[int]:
    return [min(hi, max(lo, int(v))) for v in log_strata(rng, lo, hi + 1, k)]


def same_result(result, expected, method: str, epsilon: float) -> bool:
    """A table search result against ``(n, residual)`` or None."""
    if expected is None:
        return result is None
    n, residual = expected
    return (
        result is not None
        and result.n == n
        and result.residual == residual
        and result.method.value == method
        and result.stable == (residual < epsilon / 2.0)
    )


def same_payload(outcome, expected, method: str, epsilon: float) -> bool:
    """A ``smoothint recover`` run against ``(n, residual)`` or None."""
    code, stdout = outcome
    if expected is None:
        return code == 4 and stdout == ""
    n, residual = expected
    payload = {"method": method, "n": n, "residual": residual, "stable": residual < epsilon / 2.0}
    return code == 0 and json.loads(stdout) == payload


def spline_ok(n, residual, method: str, expected, tol: float) -> bool:
    kind, row = expected
    if method != "spline" or not residual <= tol:
        return False
    if kind == "knot":
        return n == float(row)
    return row <= n <= row + 1


# ---------------------------------------------------------------------------
# decode: the library read path
# ---------------------------------------------------------------------------


class Decode:
    """recover_* on 10^4- and 10^6-row tables, plus spline and sweep ops."""

    setup_repeats = 3
    spline_tol = 1e-9

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        small, large = (100, 1000) if tiny else (10_000, 1_000_000)
        # key -> (family, rows)
        self.specs = {"c4": (ref.CANONICAL, small), "c6": (ref.CANONICAL, large), "t4": (ref.TRIG, small)}
        self.size_label = {"c4": "1e4", "c6": "1e6", "t4": "trig1e4"}
        self.sweep_trials = 20 if tiny else 300
        self.values = {k: ref.table_values(f, DELTA, n) for k, (f, n) in self.specs.items()}
        self.build_ms: list[float] = []

    def setup(self) -> None:
        self.tables = {}
        for key, (family, rows) in self.specs.items():
            config = EncoderConfig(family=family_object(family), delta=DELTA)
            t0 = time.perf_counter()
            self.tables[key] = integral_map.build_table(config, rows)
            if key == "c6":
                self.build_ms.append((time.perf_counter() - t0) * 1e3)

    def setup_ok(self) -> bool:
        return all(
            np.array_equal(self.tables[key].values, self.values[key]) for key in self.specs
        )

    def ops(self) -> list[Op]:
        rng = self.rng
        # per pass: a third of the ops on 10^6 rows, most of the rest on
        # 10^4 rows, a few percent spline and sweep ops
        plan = [
            ("c6", "match", 22), ("c6", "binary", 22), ("c6", "threshold", 22),
            ("c4", "match", 24), ("c4", "binary", 46), ("c4", "threshold", 24),
            ("t4", "match", 12), ("t4", "binary", 12), ("t4", "threshold", 8),
            ("c4", "spline", 4), ("c4", "sweep", 4),
        ]
        makers = {
            "match": lambda key, count: self._lookup_ops(key, count, "match"),
            "binary": lambda key, count: self._lookup_ops(key, count, "binary"),
            "threshold": self._threshold_ops,
            "spline": self._spline_ops,
            "sweep": self._sweep_ops,
        }
        ops = []
        for key, method, count in plan:
            ops += makers[method](key, count)
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _rows_for(self, key: str, count: int) -> list[int]:
        # Trig rows settle onto their limit within ~40 terms
        rows = self.specs[key][1]
        return log_ints(self.rng, 1, min(rows, 40) if key == "t4" else rows, count)

    def _lookup_ops(self, key, count, method):
        rng, values, table = self.rng, self.values[key], self.tables[key]
        name = "recover_match" if method == "match" else "recover_binary"
        tag = "table-binary" if method == "binary" and ref.alternates(values) else "table-scan"
        ops = []
        for n in self._rows_for(key, count):
            epsilon = abs(float(values[n - 1])) * 10.0 ** rng.uniform(-4, -1)
            target = float(values[n - 1]) + epsilon * rng.uniform(-1.5, 1.5)
            expected = ref.first_match(values, target, epsilon)
            ops.append(Op(
                f"{name}@{self.size_label[key]}",
                lambda t=target, e=epsilon: getattr(recovery, name)(table, t, e),
                lambda r, x=expected, e=epsilon: same_result(r, x, tag, e),
            ))
        return ops

    def _threshold_ops(self, key, count):
        rng, values, table = self.rng, self.values[key], self.tables[key]
        ops = []
        for n in self._rows_for(key, count):
            epsilon = abs(float(values[n - 1])) * 10.0 ** rng.uniform(-0.2, 0.2)
            expected = ref.first_below(values, epsilon)
            ops.append(Op(
                f"recover_threshold@{self.size_label[key]}",
                lambda e=epsilon: recovery.recover_threshold(table, e),
                lambda r, x=expected, e=epsilon: same_result(r, x, "threshold", e),
            ))
        return ops

    def _spline_ops(self, key, count):
        rng, values, table, tol = self.rng, self.values[key], self.tables[key], self.spline_tol
        ops = []
        kinds = ["knot", "interval", "none", "knot"]
        for i, n in enumerate(self._rows_for(key, count)):
            kind = kinds[i % len(kinds)]
            if kind == "knot":
                target = float(values[n - 1]) + tol * rng.uniform(-0.5, 0.5)
            elif kind == "interval":
                target = float(values[n - 1]) + tol * rng.uniform(5, 50) * float(rng.choice([-1, 1]))
            else:
                target = float(values.max()) + rng.uniform(0.01, 0.1)
            expected = ref.spline_expectation(values, target, tol)

            def check(r, x=expected):
                if x is None:
                    return r is None
                return r is not None and spline_ok(r.n, r.residual, r.method.value, x, tol)

            ops.append(Op(
                f"recover_spline@{self.size_label[key]}",
                lambda t=target: recovery.recover_spline(table, t, tol=tol),
                check,
            ))
        return ops

    def _sweep_ops(self, key, count):
        rng, values, table = self.rng, self.values[key], self.tables[key]
        trials = self.sweep_trials
        ops = []
        for n in self._rows_for(key, count):
            epsilon = abs(float(values[n - 1])) * 10.0 ** rng.uniform(-3, -1)
            amplitudes = [0.0, epsilon / 2.0, 2.0 * epsilon]
            seed = int(rng.integers(2**31))
            expected = ref.sweep_accuracies(values, n, epsilon, amplitudes, trials, seed)
            ops.append(Op(
                f"noise_sweep@{self.size_label[key]}x3x{trials}",
                lambda n=n, e=epsilon, a=amplitudes, s=seed: recovery.noise_sweep(
                    table, n, e, a, trials=trials, seed=s
                ),
                lambda r, x=expected: r == x,
            ))
        return ops


# ---------------------------------------------------------------------------
# roundtrip: the CLI path, writes beside reads
# ---------------------------------------------------------------------------


class Roundtrip:
    """table -> recover chains, sweeps and plot-data through ``cli.main``."""

    setup_repeats = 15
    standing_rows = 30

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.size_range, self.chains = ((30, 100), 8) if tiny else ((30, 10_000), 32)
        self.sweeps = 2 if tiny else 10
        self.sweep_trials = 50 if tiny else 1000
        self.plot_points = 50 if tiny else 1000

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Write and reload the 30-row tables the sweep ops read."""
        self.standing = {}
        for family in ref.FAMILIES:
            config = EncoderConfig(family=family_object(family), delta=DELTA)
            table = integral_map.build_table(config, self.standing_rows)
            for fmt, save in (("json", tableio.save_table_json), ("csv", tableio.save_table_csv)):
                path = self._path(f"standing-{family[0]}.{fmt}")
                save(table, path)
                self.standing[family[0], fmt] = tableio.load_table(path)

    def setup_ok(self) -> bool:
        values = {f[0]: ref.table_values(f, DELTA, self.standing_rows) for f in ref.FAMILIES}
        return all(np.array_equal(t.values, values[k]) for (k, _), t in self.standing.items())

    def ops(self) -> list[Op]:
        rng = self.rng
        # One chain per log-size stratum.  Format, family, recover count and
        # method follow the stratum's rank, so every seed spreads the same
        # mix evenly over the sizes and passes cost about the same.
        sizes = sorted(log_ints(rng, *self.size_range, self.chains))
        methods = ["match", "binary", "threshold", "spline"]
        units = []
        dealt = 0
        for i, size in enumerate(sizes):
            family = ref.FAMILIES[(i // 2) % 4]
            k = (1, 2, 3, 2)[i % 4]
            picked = [methods[(dealt + j) % 4] for j in range(k)]
            dealt += k
            units.append(self._chain(i, family, ("json", "csv")[i % 2], size, picked))
        # the sweeps are the pass's one block of equal-cost ops, and there
        # are enough of them that op_p90_ms falls inside that block
        for i in range(self.sweeps):
            family = ref.FAMILIES[i % 4]
            units.append([self._sweep(family, ("json", "csv")[i // 4 % 2], i)])
        for i, what in enumerate(("counter", "imap", "partials", "smooth")):
            units.append([self._plot(what, i)])
        order = rng.permutation(len(units))
        return [op for i in order for op in units[i]]

    def _chain(self, i, family, fmt, size, methods) -> list[Op]:
        rng = self.rng
        path = self._path(f"chain-{i}.{fmt}")
        band = f"1e{len(str(size)) - 1}"
        values = ref.table_values(family, DELTA, size)
        argv = ["table", *family_args(family), "--delta", repr(DELTA), "--n-max", str(size),
                "--format", fmt, "--out", path]
        if fmt == "json":
            check_table = written(path, lambda: ref.check_table_json(path, family, DELTA, values))
        else:
            check_table = written(path, lambda: ref.check_table_csv(path, values))
        ops = [Op(f"cli.table.{fmt}@{band}", lambda: call_cli(argv), check_table)]
        for method in methods:
            n = log_ints(rng, 1, size, 1)[0]
            row = float(values[n - 1])
            recover = ["recover", "--table", path, "--method", method]
            if method == "threshold":
                epsilon = abs(row) * 10.0 ** rng.uniform(-0.2, 0.2)
                expected = ref.first_below(values, epsilon)
                check = lambda o, x=expected, e=epsilon: same_payload(o, x, "threshold", e)
            elif method == "spline":
                epsilon = 1e-9 * 10.0 ** rng.uniform(-1, 1)
                kind = str(rng.choice(["knot", "interval", "none"], p=[0.4, 0.4, 0.2]))
                if kind == "knot":
                    target = row + epsilon * rng.uniform(-0.5, 0.5)
                elif kind == "interval":
                    target = row + epsilon * rng.uniform(5, 50) * float(rng.choice([-1, 1]))
                else:
                    target = float(values.max()) + rng.uniform(0.01, 0.1)
                recover.append(f"--target={target!r}")
                expected = ref.spline_expectation(values, target, epsilon)
                check = lambda o, x=expected, e=epsilon: self._spline_payload(o, x, e)
            else:
                epsilon = abs(row) * 10.0 ** rng.uniform(-4, -1)
                target = row + epsilon * rng.uniform(-1.5, 1.5)
                recover.append(f"--target={target!r}")
                expected = ref.first_match(values, target, epsilon)
                tag = "table-binary" if method == "binary" and ref.alternates(values) else "table-scan"
                check = lambda o, x=expected, e=epsilon, t=tag: same_payload(o, x, t, e)
            recover.append(f"--epsilon={epsilon!r}")
            ops.append(Op(f"cli.recover.{method}@{band}", lambda a=recover: call_cli(a), check))
        return ops

    @staticmethod
    def _spline_payload(outcome, expected, tol) -> bool:
        code, stdout = outcome
        if expected is None:
            return code == 4 and stdout == ""
        if code != 0:
            return False
        p = json.loads(stdout)
        return (
            spline_ok(p["n"], p["residual"], p["method"], expected, tol)
            and p["rounded"] == int(round(p["n"]))
            and isinstance(p["stable"], bool)
        )

    def _sweep(self, family, fmt, i) -> Op:
        rng = self.rng
        values = ref.table_values(family, DELTA, self.standing_rows)
        true_n = int(rng.integers(3, 26))
        epsilon = abs(float(values[true_n - 1])) * rng.uniform(0.05, 0.2)
        amplitudes = [0.0, 0.4 * epsilon, 10.0 * epsilon]
        seed = int(rng.integers(2**31))
        out = self._path(f"sweep-{i}.csv")
        argv = ["sweep", "--table", self._path(f"standing-{family[0]}.{fmt}"),
                "--true-n", str(true_n), "--epsilon", repr(epsilon),
                "--amplitudes", ",".join(repr(a) for a in amplitudes),
                "--trials", str(self.sweep_trials), "--seed", str(seed), "--out", out]
        expected = ref.sweep_accuracies(values, true_n, epsilon, amplitudes, self.sweep_trials, seed)
        return Op(
            f"cli.sweep@{self.standing_rows}x3x{self.sweep_trials}",
            lambda: call_cli(argv),
            written(out, lambda: ref.check_sweep_csv(out, expected)),
        )

    def _plot(self, what, i) -> Op:
        rng = self.rng
        family = ref.FAMILIES[int(rng.integers(len(ref.FAMILIES)))]
        out = self._path(f"plot-{i}.csv")
        argv = ["plot-data", *family_args(family), "--what", what, "--out", out]
        points = self.plot_points
        if what == "counter":
            n_value = float(rng.uniform(3, 12))
            argv += ["--n", repr(n_value), "--points", str(points)]
            xs = np.linspace(0.0, n_value + 3.0, points)
            ys, atol = ref.counter_trace(family, DELTA, n_value, xs), 1e-12
        elif what in ("imap", "partials"):
            count = int(rng.integers(400, 601))
            argv += ["--n", str(count)]
            xs = np.arange(1, count + 1)
            sums = ref.partial_sums(family, count)
            ys, atol = (ref.area_scale(DELTA) * sums if what == "imap" else sums), 0.0
        else:
            lo = float(rng.uniform(0.0, 2.0))
            hi = lo + 8.0
            sharpness = float(rng.uniform(5.0, 15.0))
            argv += ["--range", f"{lo!r}:{hi!r}", "--sharpness", repr(sharpness), "--points", str(points)]
            step = (hi - lo) / (points - 1)
            xs = [lo + step * j if j < points - 1 else hi for j in range(points)]
            cutoff = math.ceil(hi) + 10
            ys = np.array([ref.smooth_map(family, DELTA, sharpness, x, cutoff) for x in xs])
            atol = 1e-12
        return Op(
            f"cli.plot-data.{what}",
            lambda: call_cli(argv),
            written(out, lambda: ref.check_xy_csv(out, xs, ys, atol)),
        )


# ---------------------------------------------------------------------------
# multidim: the product map
# ---------------------------------------------------------------------------


class Multidim:
    """recover_multi (first and Pareto), coordinatewise_recover, CLI grids."""

    setup_repeats = 5

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        if tiny:
            self.pareto = [(8, 1e-2), (10, 1e-3)]
            self.first_range, self.coord_range = (10, 20), (10, 50)
            self.n_first, self.n_coord = 4, 4
            self.grids = [(6, 5), (3, 4, 2)]
        else:
            self.pareto = [(n, e) for n in (30, 40, 50, 60) for e in (1e-3, 1e-4)]
            self.first_range, self.coord_range = (100, 300), (1000, 30_000)
            self.n_first, self.n_coord = 31, 62
            self.grids = [(100, 100), (60, 60), (20, 20, 20), (12, 12, 12)]
        self._draw_coordinatewise()

    def _families(self, d: int):
        picks = self.rng.integers(len(ref.FAMILIES), size=d)
        return tuple(ref.FAMILIES[int(i)] for i in picks)

    def _draw_coordinatewise(self) -> None:
        rng = self.rng
        self.coord_specs = []
        limits = log_ints(rng, *self.coord_range, self.n_coord * 3)
        for i in range(self.n_coord):
            d = 2 + i % 2
            self.coord_specs.append((self._families(d), limits[3 * i : 3 * i + d]))

    def setup(self) -> None:
        """Build the 1-D axis tables the coordinatewise ops decode against."""
        self.axis_tables = {}
        for families, limits in self.coord_specs:
            for family, limit in zip(families, limits):
                if (family[0], limit) not in self.axis_tables:
                    config = EncoderConfig(family=family_object(family), delta=DELTA)
                    self.axis_tables[family[0], limit] = integral_map.build_table(config, limit)

    def setup_ok(self) -> bool:
        return all(
            np.array_equal(t.values, ref.table_values(ref.BY_KIND[k], DELTA, n))
            for (k, n), t in self.axis_tables.items()
        )

    def _config(self, families):
        return multidim.MultiEncoderConfig(tuple(family_object(f) for f in families), delta=DELTA)

    def ops(self) -> list[Op]:
        rng = self.rng
        ops = []
        for n, epsilon in self.pareto:
            ops.append(self._pareto_op(n, epsilon))
        first_limits = log_ints(rng, *self.first_range, self.n_first * 3)
        for i in range(self.n_first):
            d = 2 + i % 2
            ops.append(self._first_op(self._families(d), first_limits[3 * i : 3 * i + d]))
        for families, limits in self.coord_specs:
            ops.append(self._coord_op(families, limits))
        for i, shape in enumerate(self.grids):
            ops.append(self._grid_op(shape, i))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _pareto_op(self, n, epsilon) -> Op:
        families = (ref.CANONICAL, ref.CANONICAL)
        config = self._config(families)
        sums = [ref.partial_sums(f, n) for f in families]
        found = ref.multi_qualifying(sums, ref.multi_scale(2, DELTA), epsilon)
        expected = ref.pareto_minimal(found)
        return Op(
            f"recover_multi.pareto@{n}x{n},{epsilon:g}",
            lambda: multidim.recover_multi(config, n, epsilon, pareto=True),
            lambda r: r == expected,
        )

    def _first_op(self, families, limits) -> Op:
        d = len(families)
        config = self._config(families)
        epsilon = 10.0 ** self.rng.uniform(-6, -3) if d == 2 else 10.0 ** self.rng.uniform(-8, -4)
        sums = [ref.partial_sums(f, n) for f, n in zip(families, limits)]
        expected = ref.multi_first(sums, ref.multi_scale(d, DELTA), epsilon)
        return Op(
            f"recover_multi.first@{d}d",
            lambda: multidim.recover_multi(config, list(limits), epsilon),
            lambda r: r == expected,
        )

    def _coord_op(self, families, limits) -> Op:
        rng = self.rng
        config = self._config(families)
        values = [ref.table_values(f, DELTA, n) for f, n in zip(families, limits)]
        rows = [log_ints(rng, 1, n, 1)[0] for n in limits]
        epsilon = min(abs(float(v[r - 1])) for v, r in zip(values, rows)) * 10.0 ** rng.uniform(-4, -1)
        targets = [float(v[r - 1]) + epsilon * rng.uniform(-1.5, 1.5) for v, r in zip(values, rows)]
        matches = [ref.first_match(v, t, epsilon) for v, t in zip(values, targets)]
        expected = None if any(m is None for m in matches) else tuple(m[0] for m in matches)
        return Op(
            f"coordinatewise_recover@{len(families)}d",
            lambda: multidim.coordinatewise_recover(config, targets, epsilon, list(limits)),
            lambda r: r == expected,
        )

    def _grid_op(self, shape, i) -> Op:
        family = ref.FAMILIES[int(self.rng.integers(len(ref.FAMILIES)))]
        out = os.path.join(self.workdir, f"grid-{i}.csv")
        argv = ["multidim", *family_args(family), "--n-max", ",".join(map(str, shape)), "--out", out]
        sums = [ref.partial_sums(family, n) for n in shape]
        scale = ref.multi_scale(len(shape), DELTA)
        return Op(
            "cli.multidim@" + "x".join(map(str, shape)),
            lambda: call_cli(argv),
            written(out, lambda: ref.check_grid_csv(out, sums, scale)),
        )


WORKLOADS = {"decode": Decode, "roundtrip": Roundtrip, "multidim": Multidim}
