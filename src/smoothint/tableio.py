"""Reading and writing integral tables.

Two on-disk forms:

* JSON: the layout of ``json.dumps(document, indent=2, sort_keys=True)``:
  a meta block (bump width, coefficient family descriptor, row count,
  format version) and then the rows, each row a two-line array::

      [
        7,
        -0.0123...
      ]

  The width and the family parameters are written as floats, the form the
  loader returns, and every float with Python's shortest round-trip repr, so
  save, load, save produces byte-identical files.  Loading checks the rows
  against the closed form of the declared family and width.
* CSV: header ``N,I`` and one row per line at 17 significant digits, which
  is enough to reproduce every double exactly.  The CSV form carries no
  metadata, so tables loaded from it have no family or width attached.

All files are written with newline-only line endings.  :func:`load_table` is
the one reader for both forms: it reads its file once, and every error it
raises names the file.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing

import numpy as np

from ._validate import check_positive, check_real
from .coefficients import FAMILIES, CoefficientFamily, partial_sums
from .integral_map import IntegralTable, area_scale

__all__ = [
    "FORMAT_VERSION",
    "family_descriptor",
    "family_from_descriptor",
    "save_table_json",
    "save_table_csv",
    "load_table",
]

FORMAT_VERSION = 1

# Rows a writer converts to Python floats, and the JSON writer joins, at
# once, so neither the floats nor the text of a whole table are ever held.
_BLOCK_ROWS = 1 << 14


def family_descriptor(family: CoefficientFamily) -> dict:
    """JSON-ready tagged description of a coefficient family, parameters as floats."""
    kind = next((kind for kind, cls in FAMILIES.items() if isinstance(family, cls)), None)
    if kind is None:
        raise TypeError(f"unknown coefficient family {type(family).__name__}")
    return {"kind": kind, **vars(family)}


def family_from_descriptor(descriptor: dict) -> CoefficientFamily:
    """Inverse of :func:`family_descriptor`.

    Raises:
        TypeError: a parameter is not a real number (``true`` and ``"1"`` are not).
        ValueError: the descriptor is malformed, its kind unknown, or a
            parameter out of its family's range.
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ValueError(f"malformed family descriptor: {descriptor!r}")
    kind = descriptor["kind"]
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown family kind {kind!r}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in descriptor]
    if missing:
        raise ValueError(f"{kind} family descriptor lacks parameter {missing[0]!r}")
    return cls(**{f.name: descriptor[f.name] for f in dataclasses.fields(cls)})


def _check_row_numbers(ns: np.ndarray, path) -> None:
    if ns.size == 0:
        raise ValueError(f"{path} contains no rows")
    if not np.array_equal(ns, np.arange(1, ns.size + 1)):
        raise _gap_error(path)


def _gap_error(path) -> ValueError:
    return ValueError(f"rows of {path} must run 1..n_max in order with no gaps")


def _write_lines(path, lines) -> None:
    """Write each line of an iterable as it comes, ending every one with a newline."""
    with open(path, "w", newline="") as handle:
        handle.writelines(line + "\n" for line in lines)


def _items_in_blocks(values: np.ndarray):
    """The items of a 1-D array as Python floats, converted ``_BLOCK_ROWS`` at a time."""
    for start in range(0, values.size, _BLOCK_ROWS):
        yield from values[start : start + _BLOCK_ROWS].tolist()


def save_table_json(table: IntegralTable, path) -> None:
    """Write a table with its metadata; requires known provenance.

    The bytes are those of ``json.dumps(document, indent=2, sort_keys=True)``.
    Only the meta block goes through ``json``, whose indenting encoder runs
    in pure Python; each row is one f-string, and ``repr`` is the text
    ``json`` writes for a finite float.  The rows are joined and written in
    blocks of ``_BLOCK_ROWS``.
    """
    if table.family is None or table.delta is None:
        raise ValueError("table has no family/width metadata; save it as CSV instead")
    meta = {
        "delta": table.delta,
        "family": family_descriptor(table.family),
        "n_max": table.n_max,
        "format_version": FORMAT_VERSION,
    }
    meta_text = json.dumps({"meta": meta}, indent=2, sort_keys=True)
    # "rows" sorts after "meta", so it goes where the meta-only document closes
    head = [meta_text.removesuffix("\n}") + ",", '  "rows": [']
    _write_lines(path, itertools.chain(head, _json_row_blocks(table.values), ["  ]", "}"]))


def _json_row_blocks(values: np.ndarray):
    """The JSON rows as one text per block, each block but the last ending in a comma."""
    for start in range(0, values.size, _BLOCK_ROWS):
        rows = enumerate(values[start : start + _BLOCK_ROWS].tolist(), start=start + 1)
        text = ",\n".join([f"    [\n      {n},\n      {value!r}\n    ]" for n, value in rows])
        yield text if start + _BLOCK_ROWS >= values.size else text + ","


def _parse_json(text: str, path) -> IntegralTable:
    try:
        document = json.loads(text)
        meta = document["meta"]
        version = meta["format_version"]
        if type(version) is not int:
            raise TypeError(f"meta.format_version must be an integer, got {version!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version!r}")
        family = family_from_descriptor(meta["family"])
        delta = check_positive("meta.delta", check_real("meta.delta", meta["delta"]))
        n_max = meta["n_max"]
        rows = document["rows"]
        ns = [row[0] for row in rows]
        if type(n_max) is not int or not set(map(type, ns)) <= {int}:  # exact type: refuses true and 1.0
            raise ValueError("meta.n_max and the row numbers must be integers")
        ns = np.array(ns, dtype=int)
        values = np.array([row[1] for row in rows], dtype=float)
    except (KeyError, TypeError, IndexError, OverflowError, ValueError) as exc:
        raise ValueError(f"malformed table file {path}: {exc}") from exc
    _check_row_numbers(ns, path)
    if n_max != ns.size:
        raise ValueError(f"meta.n_max is {n_max} but {path} has {ns.size} rows")
    expected = partial_sums(family, n_max)
    expected *= area_scale(delta)
    if not np.allclose(values, expected, rtol=1e-12, atol=1e-12):
        raise ValueError(f"values of {path} disagree with the closed form")
    return IntegralTable(delta=delta, family=family, values=values)


def save_table_csv(table: IntegralTable, path) -> None:
    """Write rows as ``N,I`` lines at 17 significant digits, ``_BLOCK_ROWS`` rows converted at a time."""
    rows = enumerate(_items_in_blocks(table.values), start=1)
    _write_lines(path, itertools.chain(["N,I"], (f"{n},{value:.17g}" for n, value in rows)))


def _parse_csv(text: str, path) -> IntegralTable:
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if not lines or lines[0] != "N,I":
        raise ValueError(f"{path} is not a table file (missing N,I header)")
    body = lines[1:]
    if set(map(str.count, body, itertools.repeat(","))) - {1}:
        _raise_malformed_row(body, path)
    fields = ",".join(body).split(",") if body else []
    try:
        # numpy converts each string with int() or float(), so both columns
        # accept what the per-row parse in _raise_malformed_row accepts
        ns = np.array(fields[0::2], dtype=np.int64)
        values = np.array(fields[1::2], dtype=float)
    except (ValueError, OverflowError):
        _raise_malformed_row(body, path)
    _check_row_numbers(ns, path)
    if not np.isfinite(values).all():
        raise ValueError(f"values of {path} must be finite")
    return IntegralTable(delta=None, family=None, values=values)


def _raise_malformed_row(rows: list[str], path) -> typing.NoReturn:
    """Name the first row that does not parse, or else the row number past int64."""
    for row in rows:
        try:
            n_text, value_text = row.split(",")
            int(n_text)
            float(value_text)
        except ValueError as exc:
            raise ValueError(f"malformed table row {row!r} in {path}") from exc
    # every row parses, so a row number lies outside int64 and so outside 1..n_max
    raise _gap_error(path)


def load_table(path) -> IntegralTable:
    """Load either on-disk form, sniffing JSON by its leading brace; the file is read once.

    JSON: the row numbers, n_max and the format version must be JSON
    integers, the width and the family parameters JSON numbers, and the
    width positive.  The rows must run 1..n_max with n_max as declared in
    the meta block, and their values must agree with the closed form of the
    declared family and width (rtol = atol = 1e-12), so an edited file
    cannot pose as that family's table.

    CSV: the result carries no family or width metadata.  Blank lines and
    whitespace around a line are ignored.  Each row holds one comma, a row
    number ``int()`` accepts before it and a value ``float()`` accepts after
    it, and the values must be finite.

    Raises:
        OSError: the file cannot be read.
        ValueError: the file is malformed or fails a check above.
    """
    with open(path) as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"malformed table file {path}: {exc}") from exc
    if text[:64].lstrip().startswith("{"):  # the head only: lstrip would copy the whole text
        return _parse_json(text, path)
    return _parse_csv(text, path)
