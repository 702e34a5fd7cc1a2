import argparse
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from smoothint import Canonical, ExpPoly, Generalized, MultiEncoderConfig, Trig, integral_multi
from smoothint import cli
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
    assert "exceeds the limit of 10000000 rows" in err
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
    assert "exceeds the limit of 10000000 rows" in err
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
