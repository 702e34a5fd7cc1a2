import argparse
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    MultiEncoderConfig,
    Sigmoid,
    Trig,
    integral_closed,
    integral_multi,
)
from smoothint import cli, tableio
from smoothint.cli import build_parser, main
from smoothint.coefficients import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def table_path(tmp_path, capsys):
    path = tmp_path / "table.json"
    assert main(["table", "--n-max", "30", "--out", str(path)]) == 0
    capsys.readouterr()  # drop the fixture's own status line
    return path


def test_main_builds_no_parser_per_call(capsys, tmp_path, monkeypatch):
    def fail():
        raise AssertionError("a parser was built")

    monkeypatch.setattr(cli, "build_parser", fail)
    code, out, _ = run(capsys, "table", "--n-max", "3", "--out", str(tmp_path / "t.json"))
    assert code == 0
    assert "3 rows" in out


def test_table_reports_row_count(capsys, tmp_path):
    path = tmp_path / "t.json"
    code, out, err = run(capsys, "table", "--n-max", "12", "--out", str(path))
    assert code == 0
    assert "12 rows" in out
    assert path.exists()


def test_table_csv_format(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--n-max", "5", "--format", "csv", "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == "N,I"


def test_recover_match_json_output(capsys, table_path):
    code, out, err = run(
        capsys, "recover", "--table", str(table_path),
        "--target", "0.028", "--epsilon", "0.005",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload == {
        "method": "table-scan",
        "n": 8,
        "residual": 0.001190376326873837,
        "stable": True,
    }
    assert len(out.strip().splitlines()) == 1


@pytest.mark.parametrize("target", ["-8.5e-05", "-1E-4", "-.5e-4"])
def test_recover_negative_target_in_exponent_notation(capsys, table_path, target):
    spaced = run(
        capsys, "recover", "--table", str(table_path),
        "--target", target, "--epsilon", "0.01",
    )
    joined = run(
        capsys, "recover", "--table", str(table_path),
        f"--target={target}", "--epsilon", "0.01",
    )
    assert spaced[0] == 0
    assert json.loads(spaced[1])["n"] == 25
    assert spaced == joined


def test_recover_binary_and_threshold(capsys, table_path):
    code, out, _ = run(
        capsys, "recover", "--table", str(table_path),
        "--target", "0.028", "--epsilon", "0.005", "--method", "binary",
    )
    assert code == 0
    assert json.loads(out)["method"] == "table-binary"

    code, out, _ = run(
        capsys, "recover", "--table", str(table_path),
        "--epsilon", "0.01", "--method", "threshold",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 25
    assert payload["stable"] is False


def test_recover_has_no_local_min_option(capsys, table_path):
    code, _, err = run(
        capsys, "recover", "--table", str(table_path),
        "--epsilon", "0.01", "--method", "threshold", "--require-local-min",
    )
    assert code == 2
    assert "--require-local-min" in err


def test_recover_spline_reports_rounded(capsys, table_path):
    code, out, _ = run(
        capsys, "recover", "--table", str(table_path),
        "--target", "0.0", "--epsilon", "1e-9", "--method", "spline",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rounded"] == 2
    assert payload["n"] == pytest.approx(1.6185897451570046, abs=1e-6)


def test_recover_spline_with_a_tolerance_finer_than_the_float_spacing(capsys, table_path):
    # no two floats near the root are 1e-20 apart, so the root finder stops
    # at a bracket of adjacent floats; 1e-17 gives the same n
    for epsilon in ("1e-20", "1e-17"):
        code, out, err = run(
            capsys, "recover", "--table", str(table_path),
            "--target", "0.0292", "--epsilon", epsilon, "--method", "spline",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 1.7316984993700086


def test_recover_from_csv_table(capsys, tmp_path):
    path = tmp_path / "t.csv"
    assert main(["table", "--n-max", "30", "--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "recover", "--table", str(path),
        "--target", "0.028", "--epsilon", "0.005",
    )
    assert code == 0
    assert json.loads(out)["n"] == 8


def test_recover_not_found_is_exit_4(capsys, table_path):
    code, out, err = run(
        capsys, "recover", "--table", str(table_path),
        "--target", "0.5", "--epsilon", "1e-6",
    )
    assert code == 4
    assert out == ""
    assert "no qualifying row" in err


def test_missing_table_file_is_exit_3(capsys, tmp_path):
    code, out, err = run(
        capsys, "recover", "--table", str(tmp_path / "absent.json"),
        "--target", "0.0", "--epsilon", "0.1",
    )
    assert code == 3
    assert "error" in err


def test_missing_target_is_exit_2(capsys, table_path):
    code, _, err = run(capsys, "recover", "--table", str(table_path), "--epsilon", "0.005")
    assert code == 2
    assert "--target is required" in err


def test_argparse_failures_are_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "recover", "--table", "t", "--epsilon", "-1", "--target", "0")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2


def test_corrupt_table_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"meta\": {}}")
    code, _, err = run(capsys, "recover", "--table", str(bad), "--target", "0", "--epsilon", "0.1")
    assert code == 2
    assert "error" in err


def test_plot_data_partials(capsys, tmp_path):
    path = tmp_path / "partials.csv"
    code, out, _ = run(capsys, "plot-data", "--what", "partials", "--n", "20", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[2] == "2,0.125"
    assert len(lines) == 21


def test_plot_data_imap_matches_closed_form(capsys, tmp_path):
    path = tmp_path / "imap.csv"
    code, _, _ = run(capsys, "plot-data", "--what", "imap", "--n", "30", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[8] == "8,0.029190376326873838"


def test_plot_data_counter_defaults(capsys, tmp_path):
    path = tmp_path / "counter.csv"
    code, _, _ = run(capsys, "plot-data", "--what", "counter", "--n", "8", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1001
    first_x = float(lines[1].split(",")[0])
    last_x = float(lines[-1].split(",")[0])
    assert first_x == 0.0
    assert last_x == 11.0


def test_plot_data_smooth_starts_near_zero(capsys, tmp_path):
    path = tmp_path / "smooth.csv"
    code, _, _ = run(capsys, "plot-data", "--what", "smooth", "--out", str(path))
    assert code == 0
    first_y = float(path.read_text().splitlines()[1].split(",")[1])
    assert abs(first_y) < 1e-4


def test_plot_data_requires_n_for_counter(capsys, tmp_path):
    code, _, err = run(
        capsys, "plot-data", "--what", "counter", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "--n is required" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["multidim", "--n-max", "3,0"],
        ["plot-data", "--what", "smooth", "--points", "1"],
        ["plot-data", "--what", "counter", "--n", "8", "--points", "1"],
        ["plot-data", "--what", "smooth", "--range", "-1:2"],
    ],
    ids=" ".join,
)
def test_out_of_range_counts_are_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err
    assert not path.exists()


def test_sweep_outputs_accuracy_column(capsys, tmp_path, table_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--table", str(table_path), "--true-n", "8",
        "--epsilon", "0.005", "--amplitudes", "0,0.002",
        "--trials", "100", "--seed", "0", "--out", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "amplitude,accuracy"
    assert lines[1] == "0,1"
    assert lines[2] == "0.002,1"


def test_multidim_grid(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "multidim", "--n-max", "2,2", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "N1,N2,I"
    assert lines[1].startswith("1,1,0.06283185307179586")
    assert len(lines) == 5


MULTIDIM_FAMILIES = {
    "canonical": ([], Canonical()),
    "generalized": (
        ["--alpha", "0.3", "--beta", "2", "--gamma", "1.5"],
        Generalized(alpha=0.3, beta=2.0, gamma=1.5),
    ),
    "exppoly": (["--p", "2"], ExpPoly(p=2.0)),
    "trig": ([], Trig()),
}


def test_multidim_families_cover_the_registry():
    assert sorted(MULTIDIM_FAMILIES) == sorted(FAMILIES)


# every family at three small shapes, and one isotropic grid where about
# half the cells repeat a value
MULTIDIM_CASES = [
    *itertools.product(MULTIDIM_FAMILIES, [(7, 1, 5), (12, 12), (3, 2, 2, 2)]),
    ("canonical", (100, 100)),
]


@pytest.mark.parametrize("kind, shape", MULTIDIM_CASES, ids=[f"{k}-{s}" for k, s in MULTIDIM_CASES])
def test_multidim_csv_equals_per_cell_integrals(capsys, tmp_path, kind, shape):
    flags, family = MULTIDIM_FAMILIES[kind]
    path = tmp_path / "grid.csv"
    n_max = ",".join(map(str, shape))
    code, out, _ = run(capsys, "multidim", "--family", kind, *flags, "--n-max", n_max, "--out", str(path))
    assert code == 0
    config = MultiEncoderConfig.isotropic(family, len(shape), delta=0.2)
    lines = [",".join(f"N{i}" for i in range(1, len(shape) + 1)) + ",I"]
    for combo in itertools.product(*(range(1, limit + 1) for limit in shape)):
        lines.append(",".join(map(str, combo)) + f",{integral_multi(config, combo):.17g}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert f"wrote {len(lines) - 1} rows" in out


def per_cell_lines(grid):
    """CSV lines formatted cell by cell: the reference for ``cli._grid_lines``."""
    for index in itertools.product(*(range(size) for size in grid.shape)):
        yield "".join(f"{i + 1}," for i in index) + f"{float(grid[index]):.17g}"


@pytest.mark.parametrize(
    "grid",
    [
        np.array([0.0, -0.0, 0.0, -0.0, 1.5, 1.5]),
        np.array([[-0.0, 0.0, 0.1], [0.1, -0.0, 0.0]]),
        np.array([[0.1, 0.2, 0.3, 0.1], [0.2, 0.1, 0.3, 0.3], [0.3, 0.3, 0.1, 0.2]]),
        np.tile([5e-324, -5e-324, 1 / 3], 11),
        np.arange(24.0).reshape(2, 3, 4) % 5 - 2,
    ],
    ids=["signed-zeros", "signed-zeros-2d", "repeats-2d", "straddles-1d", "repeats-3d"],
)
@pytest.mark.parametrize("block_cells", [1, 4, 5, 1 << 16])
def test_grid_lines_equal_the_per_cell_writer(monkeypatch, grid, block_cells):
    # small blocks end inside the last axis and between its rows
    monkeypatch.setattr(cli, "_GRID_BLOCK_CELLS", block_cells)
    assert list(cli._grid_lines(grid)) == list(per_cell_lines(grid))


def test_grid_lines_hold_one_block_beside_the_grid(monkeypatch):
    monkeypatch.setattr(cli, "_GRID_BLOCK_CELLS", 2**12)
    grid = np.linspace(-1.0, 1.0, 10**6)  # 10**6 distinct values in one row
    lines = cli._grid_lines(grid)
    tracemalloc.start()
    try:
        # through the third block: a pass over the whole row would show by now
        assert len(list(itertools.islice(lines, 3 * 2**12))) == 3 * 2**12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 12288 lines kept take about 1 MB and one block about 0.5 MB; the
    # row's floats alone would take 32 MB
    assert peak < 4 * 2**20


def test_plot_data_streams_its_rows(capsys, tmp_path):
    path = tmp_path / "partials.csv"
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "plot-data", "--what", "partials", "--n", "200000", "--out", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(path.read_text().splitlines()) == 200001
    # streamed in blocks, the peak is the sums and their making, about 5 MB;
    # the floats of all 200000 sums at once add about 3 MB, and a writer
    # that holds all 200000 lines in one list peaks at about 19 MB
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "what", [["counter", "--n", "7.5", "--points", "13"], ["imap", "--n", "13"], ["partials", "--n", "8"]],
    ids=lambda w: w[0],
)
@pytest.mark.parametrize("block_rows", [1, 4, 5])
def test_plot_data_converts_blocks_as_one_list_does(capsys, tmp_path, monkeypatch, what, block_rows):
    whole = tmp_path / "whole.csv"
    assert run(capsys, "plot-data", "--what", *what, "--family", "trig", "--out", str(whole))[0] == 0
    monkeypatch.setattr(tableio, "_BLOCK_ROWS", block_rows)
    blocked = tmp_path / "blocked.csv"
    assert run(capsys, "plot-data", "--what", *what, "--family", "trig", "--out", str(blocked))[0] == 0
    assert blocked.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("kind", ["canonical", "generalized", "exppoly", "trig"])
@pytest.mark.parametrize("sharpness", ["0.5", "4", "25"])
def test_plot_smooth_writes_the_per_point_closed_form(capsys, tmp_path, kind, sharpness):
    flags, family = MULTIDIM_FAMILIES[kind]
    path = tmp_path / "smooth.csv"
    argv = ["plot-data", "--what", "smooth", "--range", "0:30", "--points", "97", "--sharpness", sharpness]
    assert run(capsys, *argv, "--family", kind, *flags, "--out", str(path))[0] == 0
    config = EncoderConfig(family=family, delta=0.2, transition=Sigmoid(float(sharpness)))
    xs = np.linspace(0.0, 30.0, 97).tolist()
    lines = [f"{x:.17g},{integral_closed(config, x):.17g}\n" for x in xs]
    assert path.read_bytes() == ("x,y\n" + "".join(lines)).encode()


SWEEP_ARGS = ["sweep", "--table", "t.json", "--true-n", "8", "--epsilon", "0.005"]

# argv without --out, and the end of what is written to stderr
REFUSALS = [
    (["table", "--n-max", "10", "--family", "exppoly", "--p", "inf"],
     "error: argument --p: expected a finite real, got 'inf'\n"),
    ([*SWEEP_ARGS, "--amplitudes", "0.1,x"],
     "error: argument --amplitudes: expected comma-separated floats, got '0.1,x'\n"),
    ([*SWEEP_ARGS, "--amplitudes", ", ,"], "error: argument --amplitudes: expected at least one value\n"),
    (["plot-data", "--what", "smooth", "--range", "1:2:3"], "error: argument --range: expected lo:hi, got '1:2:3'\n"),
    (["plot-data", "--what", "smooth", "--range", "2:1"],
     "error: argument --range: expected finite lo < hi, got '2:1'\n"),
    (["plot-data", "--what", "imap"], "error: --n is required for --what imap\n"),
    (["plot-data", "--what", "partials"], "error: --n is required for --what partials\n"),
    (["plot-data", "--what", "partials", "--n", "2.5"], "error: --n must be a positive integer here\n"),
    (["plot-data", "--what", "imap", "--n", "0"], "error: --n must be a positive integer here\n"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_refused_arguments_are_exit_2_and_write_nothing(capsys, tmp_path, argv, message):
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.endswith(message)
    assert not path.exists()


def test_spline_recovery_refuses_a_two_row_table(capsys, tmp_path):
    path = tmp_path / "t.json"
    assert main(["table", "--n-max", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "recover", "--table", str(path), "--target", "0", "--epsilon", "0.01",
                         "--method", "spline")
    assert code == 2
    assert out == ""
    assert err == "error: spline recovery needs at least 3 rows, got 2\n"


@pytest.mark.parametrize("n_max", ["1000,1000,1000", "100000,100000"])
def test_multidim_refuses_grids_over_the_cell_cap(capsys, tmp_path, n_max):
    path = tmp_path / "grid.csv"
    code, _, err = run(capsys, "multidim", "--n-max", n_max, "--out", str(path))
    assert code == 2
    assert "exceeds the limit" in err
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_refuses_row_counts_over_the_cap(capsys, tmp_path, monkeypatch, fmt):
    def fail(*args, **kwargs):
        raise AssertionError("the rows were allocated")

    monkeypatch.setattr(np, "arange", fail)
    path = tmp_path / f"t.{fmt}"
    code, out, err = run(
        capsys, "table", "--n-max", "1000000000", "--format", fmt, "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert "error: n_max = 1000000000 exceeds the limit of 10000000\n" == err
    assert not path.exists()


@pytest.mark.parametrize("what", [["counter", "--n", "8"], ["smooth"]], ids=lambda w: w[0])
def test_plot_data_refuses_point_counts_over_the_cap(capsys, tmp_path, monkeypatch, what):
    def fail(*args, **kwargs):
        raise AssertionError("the samples were allocated")

    monkeypatch.setattr(np, "linspace", fail)
    path = tmp_path / "out.csv"
    code, out, err = run(
        capsys, "plot-data", "--what", *what, "--points", "1000000000", "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert "error: points = 1000000000 exceeds the limit of 10000000\n" == err
    assert not path.exists()


def test_sweep_refuses_trials_over_the_cap(capsys, tmp_path, table_path):
    path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "sweep", "--table", str(table_path), "--true-n", "8", "--epsilon", "0.005",
        "--amplitudes", "0.001", "--trials", "10000000000000", "--out", str(path),
    )
    assert code == 2
    assert out == ""
    assert "error: trials = 10000000000000 exceeds the limit of 10000000\n" == err
    assert not path.exists()


def test_generalized_family_flags(capsys, tmp_path):
    path = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "table", "--n-max", "10", "--family", "generalized",
        "--alpha", "0.25", "--beta", "2.0", "--gamma", "1.5", "--out", str(path),
    )
    assert code == 0
    meta = json.loads(path.read_text())["meta"]
    assert meta["family"] == {"kind": "generalized", "alpha": 0.25, "beta": 2.0, "gamma": 1.5}


def test_negative_family_flags_in_exponent_notation(capsys, tmp_path):
    path = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "table", "--n-max", "10", "--family", "generalized",
        "--alpha", "-2.5e-1", "--beta", "-2E0", "--out", str(path),
    )
    assert code == 0
    meta = json.loads(path.read_text())["meta"]
    assert meta["family"] == {"kind": "generalized", "alpha": -0.25, "beta": -2.0, "gamma": 1.0}


def test_invalid_generalized_flags_are_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "table", "--n-max", "10", "--family", "generalized",
        "--alpha", "1.5", "--out", str(tmp_path / "g.json"),
    )
    assert code == 2
    assert "alpha" in err


def test_family_choices_follow_the_registry():
    assert list(FAMILIES) == ["canonical", "generalized", "exppoly", "trig"]
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("table", "plot-data", "multidim"):
        family = next(a for a in commands.choices[name]._actions if a.dest == "family")
        assert family.choices == list(FAMILIES)


def test_csv_row_number_past_int64_is_exit_2(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("N,I\n1,-0.25\n99999999999999999999,0.25\n")
    code, _, err = run(capsys, "recover", "--table", str(path), "--target", "0", "--epsilon", "0.1")
    assert code == 2
    assert "1..n_max" in err


def test_json_with_a_boolean_width_is_exit_2(capsys, table_path):
    document = json.loads(table_path.read_text())
    document["meta"]["delta"] = True
    table_path.write_text(json.dumps(document))
    code, _, err = run(capsys, "recover", "--table", str(table_path), "--target", "0", "--epsilon", "0.1")
    assert code == 2
    assert "malformed table file" in err


# Two families, each through every command that writes a file.  The table
# commands of a sweep write its input; every command's output is "out".
PINNED_FAMILIES = {
    "canonical": [],
    "generalized": [
        "--family", "generalized", "--alpha", "0.3", "--beta", "2", "--gamma", "1.5", "--delta", "0.35"
    ],
}
SWEEP = [
    "sweep", "--true-n", "8", "--epsilon", "0.005", "--amplitudes", "0,0.001,0.01", "--trials", "200", "--seed", "3"
]
PINNED_COMMANDS = {
    "table-json": [["table", "--n-max", "40", "--out", "out"]],
    "table-csv": [["table", "--n-max", "40", "--format", "csv", "--out", "out"]],
    "plot-counter": [["plot-data", "--what", "counter", "--n", "7.5", "--points", "400", "--out", "out"]],
    "plot-imap": [["plot-data", "--what", "imap", "--n", "50", "--out", "out"]],
    "plot-partials": [["plot-data", "--what", "partials", "--n", "50", "--out", "out"]],
    "plot-smooth": [
        ["plot-data", "--what", "smooth", "--range", "0:12", "--points", "300", "--sharpness", "4", "--out", "out"]
    ],
    "sweep-json": [["table", "--n-max", "30", "--out", "t.json"], [*SWEEP, "--table", "t.json", "--out", "out"]],
    "sweep-csv": [
        ["table", "--n-max", "30", "--format", "csv", "--out", "t.csv"],
        [*SWEEP, "--table", "t.csv", "--out", "out"],
    ],
    "multidim": [["multidim", "--n-max", "12,9", "--out", "out"]],
}
# sha256 of each output, so a change to any written byte fails here
PINNED_DIGESTS = {
    "canonical/table-json": "797f80d7365257d5a478fa6a1b13057874317bf1eaffca8297f0324b675d3be5",
    "canonical/table-csv": "4dc5a514dd58bdc3ef38cf5ee8de72baeb04fb0d45349e65880fc4440034aa1f",
    "canonical/plot-counter": "92ab47e1bf5529421414a2c9a35b83ecfe6e73beafe673cd9700d25a2fd3e3e1",
    "canonical/plot-imap": "dbac96613030fdcfc008b452afb7efce957141c562cd0258215eca4be53e2cc0",
    "canonical/plot-partials": "820418a255a946f7e19a7306563a625ee070f5f83f60971e298eda39fd46b9e6",
    "canonical/plot-smooth": "b0b0d4fbff6642d7eb44d38fd29b57de6e11aca6dda63941c3d65a4d1f0b8a15",
    "canonical/sweep-json": "d45593a6884d1cdc564eb64b0c5273ee08e6f92bb3c7c8a2e5aec753a9d01cc3",
    "canonical/sweep-csv": "d45593a6884d1cdc564eb64b0c5273ee08e6f92bb3c7c8a2e5aec753a9d01cc3",
    "canonical/multidim": "ff58a1fb6f6f9ba3e3eeecc131d681fdd2e7270b6c59ff4443969049b85b82c4",
    "generalized/table-json": "6831c9755753ac56d74a13a2bde1fccb94e6ad87c23ae556a9fdfb8551190556",
    "generalized/table-csv": "846a1fa433b0bc03da5b86c86a45105b668d43679cc49ce7f017f3ebf2ee730e",
    "generalized/plot-counter": "8f270c9495a56661161803543a2b5c0d2a4f27cd269b1f1bdaedbab2d6b1ea07",
    "generalized/plot-imap": "71f75fa6b877246c97cf26d8a832944a6a9f05ec8c79b6bbbb10f04619097828",
    "generalized/plot-partials": "61254e1e204b840bd806ab9f89e6c93b1e11816629dcc855843b9f6e1e0c7ab3",
    "generalized/plot-smooth": "0fa8c37ae0b6248838fd91265291c2873ea3896712601f2a143eb3a92bb6480b",
    "generalized/sweep-json": "0f6b224209e12277867ca28f09c20dddc23d923511f83255cc3548bf6ba03e12",
    "generalized/sweep-csv": "0f6b224209e12277867ca28f09c20dddc23d923511f83255cc3548bf6ba03e12",
    "generalized/multidim": "f6119847a8cfd5809e82b89eaabbe8c464c54c5bb5aa62b0540ede1d5de5d273",
}


@pytest.mark.parametrize("case", list(PINNED_DIGESTS))
def test_written_files_are_pinned(capsys, tmp_path, monkeypatch, case):
    kind, command = case.split("/")
    monkeypatch.chdir(tmp_path)
    for argv in PINNED_COMMANDS[command]:
        flags = PINNED_FAMILIES[kind] if argv[0] != "sweep" else []
        assert main([*argv, *flags]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == PINNED_DIGESTS[case]
