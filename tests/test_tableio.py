import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smoothint import (
    FORMAT_VERSION,
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    IntegralTable,
    Trig,
    build_table,
    load_table,
    load_table_csv,
    load_table_json,
    save_table_csv,
    save_table_json,
)
from smoothint import cli, tableio
from smoothint.coefficients import FAMILIES
from smoothint.tableio import family_descriptor, family_from_descriptor

# valid values for every parameter a registered family declares
PARAMETERS = {
    "alpha": st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    "beta": st.floats(min_value=-100.0, max_value=100.0),
    "gamma": st.floats(min_value=1.0, max_value=8.0),
    "p": st.floats(min_value=1.0, max_value=8.0),
}


@st.composite
def families(draw):
    cls = FAMILIES[draw(st.sampled_from(list(FAMILIES)))]
    return cls(**{f.name: draw(PARAMETERS[f.name]) for f in dataclasses.fields(cls)})


def json_module_bytes(table):
    """The JSON file as the ``json`` module lays it out: the writer's reference."""
    document = {
        "meta": {
            "delta": table.delta,
            "family": family_descriptor(table.family),
            "n_max": table.n_max,
            "format_version": FORMAT_VERSION,
        },
        "rows": table.rows,
    }
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


def per_row_load_table_csv(path):
    """A CSV loader that parses row by row with int() and float(): the loader's reference."""
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != "N,I":
        raise ValueError(f"{path} is not a table file (missing N,I header)")
    ns = []
    values = []
    for line in lines[1:]:
        try:
            n_text, value_text = line.split(",")
            ns.append(int(n_text))
            values.append(float(value_text))
        except ValueError as exc:
            raise ValueError(f"malformed table row {line!r} in {path}") from exc
    ns = np.array(ns, dtype=int)
    if ns.size == 0:
        raise ValueError(f"{path} contains no rows")
    if not np.array_equal(ns, np.arange(1, ns.size + 1)):
        raise ValueError(f"rows of {path} must run 1..n_max in order with no gaps")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"values of {path} must be finite")
    return IntegralTable(delta=None, family=None, values=np.array(values, dtype=float))


def test_json_round_trip(table30, tmp_path):
    path = tmp_path / "t.json"
    save_table_json(table30, path)
    loaded = load_table_json(path)
    assert loaded.n_max == 30
    assert loaded.delta == 0.2
    assert loaded.family == Canonical()
    assert np.array_equal(loaded.ns, table30.ns)
    assert np.array_equal(loaded.values, table30.values)
    assert loaded.supports_binary


def test_json_save_load_save_is_byte_identical(table30, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_table_json(table30, first)
    save_table_json(load_table_json(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_round_trip(table30, tmp_path):
    path = tmp_path / "t.csv"
    save_table_csv(table30, path)
    loaded = load_table_csv(path)
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(loaded.values, table30.values)
    assert loaded.family is None
    assert loaded.delta is None
    assert loaded.supports_binary


def test_csv_layout(table30, tmp_path):
    path = tmp_path / "t.csv"
    save_table_csv(table30, path)
    raw = path.read_bytes()
    assert b"\r" not in raw  # newline-only endings
    lines = raw.decode().splitlines()
    assert lines[0] == "N,I"
    assert lines[2] == "2,0.062665706865775009"


def test_load_table_sniffs_both_forms(table30, tmp_path):
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    save_table_json(table30, json_path)
    save_table_csv(table30, csv_path)
    assert load_table(json_path).family == Canonical()
    assert load_table(csv_path).family is None
    assert np.array_equal(load_table(json_path).values, load_table(csv_path).values)


def test_metadata_free_table_refuses_json_save(table30, tmp_path):
    csv_path = tmp_path / "t.csv"
    save_table_csv(table30, csv_path)
    bare = load_table_csv(csv_path)
    with pytest.raises(ValueError, match="CSV instead"):
        save_table_json(bare, tmp_path / "no.json")


def _edited_json(table, path, edit):
    save_table_json(table, path)
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))
    return path


def test_tampered_json_rows_are_rejected(table30, tmp_path):
    def tamper(document):
        document["rows"][4][1] += 1e-3

    path = _edited_json(table30, tmp_path / "t.json", tamper)
    with pytest.raises(ValueError, match="closed form"):
        load_table_json(path)


def test_loaders_reject_gaps(table30, tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("N,I\n1,-0.2\n2,0.1\n4,-0.05\n")
    with pytest.raises(ValueError, match="1..n_max"):
        load_table_csv(csv_path)

    def skip_row_30(document):
        document["rows"][29][0] = 31

    json_path = _edited_json(table30, tmp_path / "t.json", skip_row_30)
    with pytest.raises(ValueError, match="1..n_max"):
        load_table_json(json_path)


def test_json_row_count_must_match_meta(table30, tmp_path):
    path = _edited_json(table30, tmp_path / "t.json", lambda d: d["rows"].pop())
    with pytest.raises(ValueError, match="meta.n_max is 30 but .* has 29 rows"):
        load_table_json(path)


def _fractional_numbers(document):
    document["meta"]["n_max"] = 5.9
    document["rows"] = [[n + 0.5, v] for n, v in document["rows"]]


def _true_numbers(document):
    document["meta"]["n_max"] = True
    document["rows"] = [[True, document["rows"][0][1]]]


@pytest.mark.parametrize(
    "edit",
    [
        _fractional_numbers,
        _true_numbers,
        lambda d: d["meta"].update(n_max=5.0),
        lambda d: d["rows"][2].__setitem__(0, 3.0),
        lambda d: d["rows"][2].__setitem__(0, "3"),
        lambda d: d["rows"][4].__setitem__(0, 10**30),
    ],
    ids=["fractional", "true", "whole-float-n_max", "whole-float-row", "string-row", "huge-row"],
)
def test_json_row_numbers_and_n_max_must_be_integers(tmp_path, edit):
    table5 = build_table(EncoderConfig(family=Canonical(), delta=0.2), 5)
    path = _edited_json(table5, tmp_path / "t.json", edit)
    with pytest.raises(ValueError) as excinfo:
        load_table_json(path)
    assert str(path) in str(excinfo.value)


def _write_json_edit(edit):
    def write(path):
        _edited_json(build_table(EncoderConfig(family=Canonical(), delta=0.2), 5), path, edit)

    return write


def _tamper_row_3(document):
    document["rows"][2][1] += 1e-3


# file name, writer, the message the load raises
BROKEN_FILES = {
    "nan-delta": ("t.json", _write_json_edit(lambda d: d["meta"].update(delta=math.nan)), "meta.delta must be finite"),
    "inf-delta": ("t.json", _write_json_edit(lambda d: d["meta"].update(delta=math.inf)), "meta.delta must be finite"),
    "tampered-row": ("t.json", _write_json_edit(_tamper_row_3), "disagree with the closed form"),
    "missing-parameter": (
        "t.json", _write_json_edit(lambda d: d["meta"].update(family={"kind": "exppoly"})), "lacks parameter 'p'"
    ),
    "nan-value": ("t.csv", lambda path: path.write_text("N,I\n1,-0.25\n2,nan\n"), "must be finite"),
    "truncated-json": ("t.json", lambda path: path.write_text('{"meta": '), "Expecting value"),
    # not UTF-8; a locale whose encoding reads any byte finds a malformed row instead
    "not-text": ("t.csv", lambda path: path.write_bytes(b"N,I\n1,\xff\n"), "malformed table"),
}


@pytest.mark.parametrize("case", list(BROKEN_FILES))
def test_every_load_error_names_the_file(tmp_path, capsys, case):
    name, write, message = BROKEN_FILES[case]
    path = tmp_path / name
    write(path)
    with pytest.raises(ValueError, match=message) as excinfo:
        load_table(path)
    assert str(path) in str(excinfo.value)
    assert cli.main(["recover", "--table", str(path), "--target", "0.1", "--epsilon", "0.1"]) == 2
    assert str(path) in capsys.readouterr().err


def test_json_with_a_negative_width_is_rejected(table30, tmp_path):
    # negated rows are the closed form for delta = -0.2, but no bump has
    # a negative width
    def negate(document):
        document["meta"]["delta"] = -0.2
        document["rows"] = [[n, -v] for n, v in document["rows"]]

    path = _edited_json(table30, tmp_path / "t.json", negate)
    with pytest.raises(ValueError, match="delta must be a positive real"):
        load_table_json(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rows": [[1, -0.25]]}))
    with pytest.raises(ValueError, match="malformed"):
        load_table_json(path)


def test_wrong_format_version_rejected(table30, tmp_path):
    path = tmp_path / "t.json"
    save_table_json(table30, path)
    document = json.loads(path.read_text())
    document["meta"]["format_version"] = 99
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="version"):
        load_table_json(path)


def test_csv_header_required(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,y\n1,-0.25\n")
    with pytest.raises(ValueError, match="header"):
        load_table_csv(path)


def test_csv_malformed_row_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("N,I\n1,-0.25\ntwo,0.06\n")
    with pytest.raises(ValueError, match="malformed"):
        load_table_csv(path)


def test_csv_empty_table_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("N,I\n")
    with pytest.raises(ValueError, match="no rows"):
        load_table_csv(path)


@pytest.mark.parametrize(
    "family",
    [Canonical(), Generalized(0.3, -1.5, 2.0), ExpPoly(1.5), Trig()],
    ids=lambda f: type(f).__name__,
)
def test_family_descriptor_round_trip(family):
    assert family_from_descriptor(family_descriptor(family)) == family


def test_family_descriptor_rejects_unknown():
    with pytest.raises(ValueError, match="kind"):
        family_from_descriptor({"kind": "mystery"})
    with pytest.raises(ValueError, match="malformed"):
        family_from_descriptor({"alpha": 0.5})
    with pytest.raises(ValueError, match="lacks parameter 'alpha'"):
        family_from_descriptor({"kind": "generalized"})
    with pytest.raises(ValueError, match="lacks parameter 'p'"):
        family_from_descriptor({"kind": "exppoly"})


def test_round_trip_preserves_family_parameters(tmp_path):
    family = Generalized(alpha=0.25, beta=2.0, gamma=1.5)
    table = build_table(EncoderConfig(family=family, delta=0.1), 12)
    path = tmp_path / "g.json"
    save_table_json(table, path)
    loaded = load_table_json(path)
    assert loaded.family == family
    assert loaded.delta == 0.1


@given(families(), st.floats(min_value=1e-3, max_value=10.0), st.integers(min_value=1, max_value=200))
def test_every_family_round_trips_through_both_files(family, delta, n_max):
    table = build_table(EncoderConfig(family=family, delta=delta), n_max)
    with tempfile.TemporaryDirectory() as workdir:
        first, second, csv_path = (Path(workdir) / name for name in ("a.json", "b.json", "t.csv"))
        save_table_json(table, first)
        loaded = load_table_json(first)
        assert loaded.family == family
        assert loaded.delta == delta
        assert loaded.values.tobytes() == table.values.tobytes()
        save_table_json(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        save_table_csv(table, csv_path)
        assert load_table_csv(csv_path).values.tobytes() == table.values.tobytes()


def test_load_table_opens_the_file_once(table30, tmp_path, monkeypatch):
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    save_table_json(table30, json_path)
    save_table_csv(table30, csv_path)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(tableio, "open", counting_open, raising=False)
    assert load_table(json_path).family == Canonical()
    loaded = load_table(csv_path)
    assert opened == [json_path, csv_path]
    assert loaded.family is None
    assert np.array_equal(loaded.values, table30.values)


@pytest.mark.parametrize(
    "family",
    [Canonical(), Trig(), Generalized(0, 2, 1), Generalized(0.3, 2.0, 1.5), ExpPoly(1), ExpPoly(2.5)],
    ids=repr,
)
@pytest.mark.parametrize("delta", [1, 0.2])
def test_save_load_save_is_byte_identical_for_integer_and_float_parameters(tmp_path, family, delta):
    # widths and parameters are written as the floats the loader returns
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_table_json(build_table(EncoderConfig(family=family, delta=delta), 7), first)
    save_table_json(load_table_json(first), second)
    assert first.read_bytes() == second.read_bytes()


@given(families(), st.floats(min_value=1e-3, max_value=10.0), st.integers(min_value=1, max_value=2000))
def test_json_writer_lays_out_files_as_the_json_module_does(family, delta, n_max):
    table = build_table(EncoderConfig(family=family, delta=delta), n_max)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "t.json"
        save_table_json(table, path)
        assert path.read_bytes() == json_module_bytes(table)


def test_json_writer_lays_out_a_large_file_as_the_json_module_does(tmp_path):
    table = build_table(EncoderConfig(family=Generalized(0.3, 2.0, 1.5), delta=0.2), 10**5)
    path = tmp_path / "t.json"
    save_table_json(table, path)
    assert path.read_bytes() == json_module_bytes(table)


# Each edit turns one row (row number text, value text) into a line; "1_0" is
# row 10, "1_" no integer.  \v and \f are whitespace to strip() and line
# breaks to splitlines().
ROW_EDITS = {
    "padded": lambda n, v: f" \t{n}\f, \v{v}  ",
    "plus": lambda n, v: f"+{n},{v}",
    "leading zero": lambda n, v: f"0{n},{v}",
    "underscore": lambda n, v: f"{n[:1]}_{n[1:]},{v}",
    "missing comma": lambda n, v: f"{n} {v}",
    "no separator": lambda n, v: f"{n}{v}",
    "extra comma": lambda n, v: f"{n},{v},",
    "three fields": lambda n, v: f"{n},{v},{v}",
    "nan": lambda n, v: f"{n},nan",
    "gap": lambda n, v: f"{int(n) + 1},{v}",
}


@st.composite
def csv_texts(draw):
    reals = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.one_of(reals, st.integers(-3, 3).map(float)), max_size=12))
    spell = draw(st.sampled_from(["{:.17g}", "{!r}", "{:g}"]))
    edits = draw(st.dictionaries(st.integers(0, 11), st.sampled_from(list(ROW_EDITS)), max_size=2))
    rows = [
        ROW_EDITS[edits[i]](str(i + 1), spell.format(v)) if i in edits else f"{i + 1},{spell.format(v)}"
        for i, v in enumerate(values)
    ]
    lines = [draw(st.sampled_from(["N,I", "N,I", " N,I\t", "N;I"]))] + rows
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


def _outcome(load, path):
    try:
        return "loaded", load(path).values.tobytes()
    except ValueError as exc:
        return "refused", str(exc)


@given(csv_texts())
# one row short of a comma and one a comma over, every field a number
@example("N,I\n1,0\n20\n3,0,0\n")
def test_csv_loader_accepts_and_refuses_what_the_per_row_parse_does(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "t.csv"
        with open(path, "w", newline="") as handle:
            handle.write(text)
        assert _outcome(load_table_csv, path) == _outcome(per_row_load_table_csv, path)


def test_csv_row_number_past_int64_is_a_value_error(tmp_path):
    # the per-row parse reads it as a Python int, which numpy cannot hold
    path = tmp_path / "t.csv"
    path.write_text("N,I\n1,-0.25\n99999999999999999999,0.25\n")
    with pytest.raises(ValueError, match="1..n_max"):
        load_table_csv(path)
    with pytest.raises(OverflowError):
        per_row_load_table_csv(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["meta"].update(delta=True),
        lambda d: d["meta"].update(delta="0.2"),
        lambda d: d["meta"]["family"].update(p="1"),
        lambda d: d["meta"]["family"].update(p=True),
        lambda d: d["meta"].update(format_version=True),
        lambda d: d["meta"].update(format_version=1.0),
    ],
    ids=["true-delta", "string-delta", "string-p", "true-p", "true-version", "float-version"],
)
def test_json_numbers_of_a_wrong_type_are_malformed(tmp_path, edit):
    table5 = build_table(EncoderConfig(family=ExpPoly(1.0), delta=0.2), 5)
    path = _edited_json(table5, tmp_path / "t.json", edit)
    with pytest.raises(ValueError, match="malformed table file"):
        load_table_json(path)
