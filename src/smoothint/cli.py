"""Command-line front end.

Subcommands:

* ``table``: tabulate the integral map and save it (JSON or CSV).
* ``recover``: invert an observed integral value against a saved table.
* ``plot-data``: emit two-column CSV traces behind the standard pictures
  (bump train, integral map, partial sums, smooth map).
* ``sweep``: noise-robustness sweep of exact recovery accuracy.
* ``multidim``: emit a separable integral grid as CSV.

Exit codes: 0 success, 2 invalid arguments, 3 file I/O failure, 4 recovery
found nothing.  Arguments are fully validated before any output file is
opened, so a failed invocation never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

import numpy as np

from .bumps import Sigmoid
from .coefficients import FAMILIES, _check_row_count, partial_sums
from .encoder import EncoderConfig, Mode, counter_grid
from .integral_map import area_scale, build_table, integral_closed
from .multidim import MultiEncoderConfig, integral_multi
from .recovery import (
    RecoveryMethod,
    noise_sweep,
    recover_binary,
    recover_match,
    recover_spline,
    recover_threshold,
)
from .tableio import family_from_descriptor, load_table, save_table_csv, save_table_json, write_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOT_FOUND = 4

# argparse counts only plain forms such as "-5" and "-.5" as negative
# numbers; any other token starting with "-", such as "-8.5e-05" or
# "-1:2", is read as an option and leaves the option before it without a
# value.  No option of this CLI starts with a digit, so such a token is
# always a value, and _bind_negative_values attaches it to that option.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")
_LONG_OPTION = re.compile(r"--[a-z][a-z-]*")


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--opt -<digit>...`` as ``--opt=-<digit>...``."""
    bound: list[str] = []
    for token in argv:
        if bound and _NEGATIVE_VALUE.match(token) and _LONG_OPTION.fullmatch(bound[-1]):
            bound[-1] += "=" + token
        else:
            bound.append(token)
    return bound


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive real, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return integer


def _list_of(convert):
    """Converter for a comma-separated list of at least one ``convert``-ed value."""

    def comma_list(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {convert.__name__}s, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return comma_list


def _range_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    lo, hi = (float(part) for part in parts)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise argparse.ArgumentTypeError(f"expected finite lo < hi, got {text!r}")
    return lo, hi


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        choices=list(FAMILIES),
        default="canonical",
        help="coefficient family (default canonical)",
    )
    parser.add_argument("--alpha", type=_finite_float, default=0.5, help="generalized: geometric base")
    parser.add_argument("--beta", type=_finite_float, default=1.0, help="generalized: alternating weight")
    parser.add_argument("--gamma", type=_finite_float, default=1.0, help="generalized: decay exponent")
    parser.add_argument("--p", type=_finite_float, default=1.0, help="exppoly: decay exponent")
    parser.add_argument("--delta", type=_positive_float, default=0.2, help="bump width (default 0.2)")


def _family_from_args(args: argparse.Namespace):
    return family_from_descriptor({**vars(args), "kind": args.family})


def _cmd_table(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    config = EncoderConfig(family=family, delta=args.delta)
    table = build_table(config, args.n_max)
    if args.format == "json":
        save_table_json(table, args.out)
    else:
        save_table_csv(table, args.out)
    print(f"wrote {table.n_max} rows to {args.out}")
    return EXIT_OK


def _cmd_recover(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    if args.method == "threshold":
        result = recover_threshold(table, args.epsilon)
    else:
        if args.target is None:
            print(f"error: --target is required for method {args.method!r}", file=sys.stderr)
            return EXIT_USAGE
        if args.method == "match":
            result = recover_match(table, args.target, args.epsilon)
        elif args.method == "binary":
            result = recover_binary(table, args.target, args.epsilon)
        else:
            result = recover_spline(table, args.target, tol=args.epsilon)
    if result is None:
        print("no qualifying row within epsilon", file=sys.stderr)
        return EXIT_NOT_FOUND
    payload = {
        "n": result.n,
        "residual": result.residual,
        "method": result.method.value,
        "stable": result.stable,
    }
    if result.method is RecoveryMethod.SPLINE:
        payload["rounded"] = result.nearest_integer
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_plot_data(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    lines = ["x,y"]
    if args.what == "counter":
        if args.n is None:
            print("error: --n is required for --what counter", file=sys.stderr)
            return EXIT_USAGE
        config = EncoderConfig(family=family, delta=args.delta, mode=Mode.FRACTIONAL)
        t_lo, t_hi = args.range if args.range else (0.0, args.n + 3.0)
        ts, values = counter_grid(config, args.n, t_lo, t_hi, args.points)
        lines += [f"{t:.17g},{v:.17g}" for t, v in zip(ts, values)]
    elif args.what in ("imap", "partials"):
        if args.n is None:
            print(f"error: --n is required for --what {args.what}", file=sys.stderr)
            return EXIT_USAGE
        count = int(args.n)
        if count < 1 or count != args.n:
            print("error: --n must be a positive integer here", file=sys.stderr)
            return EXIT_USAGE
        sums = partial_sums(family, count)
        if args.what == "imap":
            sums = area_scale(args.delta) * sums
        lines += [f"{n},{v:.17g}" for n, v in enumerate(sums, start=1)]
    else:  # smooth
        t_lo, t_hi = args.range if args.range else (0.0, 10.0)
        config = EncoderConfig(
            family=family, delta=args.delta, mode=Mode.SMOOTH, transition=Sigmoid(args.sharpness)
        )
        for n_value in np.linspace(t_lo, t_hi, _check_row_count(args.points)).tolist():
            lines.append(f"{n_value:.17g},{integral_closed(config, n_value):.17g}")
    write_lines(args.out, lines)
    print(f"wrote {len(lines) - 1} rows to {args.out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    results = noise_sweep(
        table,
        args.true_n,
        args.epsilon,
        args.amplitudes,
        trials=args.trials,
        seed=args.seed,
    )
    lines = ["amplitude,accuracy"]
    lines += [f"{amplitude:.17g},{accuracy:.17g}" for amplitude, accuracy in results]
    write_lines(args.out, lines)
    print(f"wrote {len(results)} rows to {args.out}")
    return EXIT_OK


# Most cells whose value strings _grid_lines holds at once, beside the grid.
_GRID_BLOCK_CELLS = 1 << 16


def _cell_texts(values: np.ndarray):
    """``f"{v:.17g}"`` for each value of a 1-D array, in order.

    Each block of ``_GRID_BLOCK_CELLS`` values formats each distinct value
    once and looks the repeats up.  Values are keyed on their bits, so
    ``+0.0`` and ``-0.0`` keep their own text.
    """
    for start in range(0, values.size, _GRID_BLOCK_CELLS):
        block = values[start : start + _GRID_BLOCK_CELLS]
        distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
        texts = [f"{value:.17g}" for value in distinct.view(np.float64).tolist()]
        yield from map(texts.__getitem__, inverse.tolist())


def _grid_lines(grid):
    """CSV lines ``i_1,...,i_d,value`` over a grid, last axis fastest (C order).

    Cost: one ``.17g`` formatting per distinct value of each block of
    ``_GRID_BLOCK_CELLS`` cells, which saves about half of them on an
    isotropic grid, whose first two axes commute.  Beyond the grid itself
    only one block's strings are held.
    """
    texts = _cell_texts(grid.reshape(-1))
    width = grid.shape[-1]
    for prefix in itertools.product(*(range(1, size + 1) for size in grid.shape[:-1])):
        head = "".join(f"{i}," for i in prefix)
        # zip asks the range first, so a row's end takes no text from the next row
        for n, text in zip(range(1, width + 1), texts):
            yield f"{head}{n},{text}"


def _cmd_multidim(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    config = MultiEncoderConfig.isotropic(family, len(args.n_max), delta=args.delta)
    grid = integral_multi(config, [np.arange(1, limit + 1) for limit in args.n_max])
    header = ",".join(f"N{i}" for i in range(1, config.dimension + 1)) + ",I"
    write_lines(args.out, itertools.chain([header], _grid_lines(grid)))
    print(f"wrote {grid.size} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothint",
        description="encode integers as bump-train integral cancellations and recover them",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser("table", help="tabulate the integral map and save it")
    _add_family_arguments(table)
    table.add_argument("--n-max", type=_int_at_least(1), required=True, help="number of rows")
    table.add_argument("--format", choices=["json", "csv"], default="json", help="output form")
    table.add_argument("--out", required=True, help="output file path")
    table.set_defaults(handler=_cmd_table)

    recover = commands.add_parser("recover", help="invert an observed integral value")
    recover.add_argument("--table", required=True, help="saved table file (JSON or CSV)")
    recover.add_argument("--target", type=_finite_float, default=None, help="observed integral value")
    recover.add_argument("--epsilon", type=_positive_float, required=True, help="match tolerance")
    recover.add_argument(
        "--method",
        choices=["match", "binary", "spline", "threshold"],
        default="match",
        help="inversion strategy (default match)",
    )
    recover.set_defaults(handler=_cmd_recover)

    plot_data = commands.add_parser("plot-data", help="emit x,y CSV traces")
    _add_family_arguments(plot_data)
    plot_data.add_argument(
        "--what",
        choices=["counter", "imap", "partials", "smooth"],
        required=True,
        help="which trace to emit",
    )
    plot_data.add_argument("--n", type=_finite_float, default=None, help="counting parameter or row count")
    plot_data.add_argument("--range", type=_range_pair, default=None, help="sample range lo:hi")
    plot_data.add_argument("--points", type=_int_at_least(2), default=1000, help="sample count (default 1000)")
    plot_data.add_argument("--sharpness", type=_positive_float, default=10.0, help="smooth transition sharpness")
    plot_data.add_argument("--out", required=True, help="output CSV path")
    plot_data.set_defaults(handler=_cmd_plot_data)

    sweep = commands.add_parser("sweep", help="noise-robustness sweep")
    sweep.add_argument("--table", required=True, help="saved table file (JSON or CSV)")
    sweep.add_argument("--true-n", type=_int_at_least(1), required=True, help="row whose value is perturbed")
    sweep.add_argument("--epsilon", type=_positive_float, required=True, help="match tolerance")
    sweep.add_argument("--amplitudes", type=_list_of(float), required=True, help="comma-separated noise amplitudes")
    sweep.add_argument("--trials", type=_int_at_least(1), default=100, help="draws per amplitude (default 100)")
    sweep.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=_cmd_sweep)

    multidim = commands.add_parser("multidim", help="emit a separable integral grid as CSV")
    _add_family_arguments(multidim)
    multidim.add_argument(
        "--n-max", type=_list_of(_int_at_least(1)), required=True, help="per-axis limits, e.g. 30,30"
    )
    multidim.add_argument("--out", required=True, help="output CSV path")
    multidim.set_defaults(handler=_cmd_multidim)

    return parser


# Built once per process: building costs about a millisecond, more than
# parsing and running a small command.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
