import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothint import (
    Canonical,
    EncoderConfig,
    ExpPoly,
    Generalized,
    Trig,
    build_table,
    load_table,
    load_table_csv,
    load_table_json,
    save_table_csv,
    save_table_json,
)
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


def test_load_table_reads_only_the_head_to_sniff(table30, tmp_path, monkeypatch):
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    save_table_json(table30, json_path)
    save_table_csv(table30, csv_path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_table read the whole file")

    monkeypatch.setattr(Path, "read_text", refuse)
    assert load_table(json_path).family == Canonical()
    loaded = load_table(csv_path)
    assert loaded.family is None
    assert np.array_equal(loaded.values, table30.values)
