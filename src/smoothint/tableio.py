"""Reading and writing integral tables.

Two on-disk forms:

* JSON: a meta block (bump width, coefficient family descriptor, row count,
  format version) plus the rows.  Floats are written with Python's shortest
  round-trip repr, so save, load, save produces byte-identical files.
  Loading checks the rows against the closed form of the declared family
  and width.
* CSV: header ``N,I`` and one row per line at 17 significant digits, which
  is enough to reproduce every double exactly.  The CSV form carries no
  metadata, so tables loaded from it have no family or width attached.

All files are written with newline-only line endings.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np

from .coefficients import FAMILIES, CoefficientFamily, partial_sums
from .encoder import EncoderConfig
from .integral_map import IntegralTable, area_scale

__all__ = [
    "FORMAT_VERSION",
    "family_descriptor",
    "family_from_descriptor",
    "save_table_json",
    "load_table_json",
    "save_table_csv",
    "load_table_csv",
    "load_table",
    "write_lines",
]

FORMAT_VERSION = 1


def family_descriptor(family: CoefficientFamily) -> dict:
    """JSON-ready tagged description of a coefficient family."""
    kind = next((kind for kind, cls in FAMILIES.items() if isinstance(family, cls)), None)
    if kind is None:
        raise TypeError(f"unknown coefficient family {type(family).__name__}")
    params = dataclasses.fields(FAMILIES[kind])
    return {"kind": kind, **{f.name: getattr(family, f.name) for f in params}}


def family_from_descriptor(descriptor: dict) -> CoefficientFamily:
    """Inverse of :func:`family_descriptor`."""
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ValueError(f"malformed family descriptor: {descriptor!r}")
    kind = descriptor["kind"]
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown family kind {kind!r}")
    return cls(**{f.name: float(descriptor[f.name]) for f in dataclasses.fields(cls)})


def _check_row_numbers(ns: np.ndarray, path) -> None:
    if ns.size == 0:
        raise ValueError(f"{path} contains no rows")
    if not np.array_equal(ns, np.arange(1, ns.size + 1)):
        raise ValueError(f"rows of {path} must run 1..n_max in order with no gaps")


def write_lines(path, lines) -> None:
    """Write each line of an iterable as it comes, ending every one with a newline."""
    with open(path, "w", newline="") as handle:
        handle.writelines(line + "\n" for line in lines)


def save_table_json(table: IntegralTable, path) -> None:
    """Write a table with its metadata; requires known provenance."""
    if table.family is None or table.delta is None:
        raise ValueError("table has no family/width metadata; save it as CSV instead")
    document = {
        "meta": {
            "delta": table.delta,
            "family": family_descriptor(table.family),
            "n_max": table.n_max,
            "format_version": FORMAT_VERSION,
        },
        "rows": table.rows,
    }
    write_lines(path, [json.dumps(document, indent=2, sort_keys=True)])


def load_table_json(path) -> IntegralTable:
    """Load a JSON table, checking its provenance.

    The row numbers and n_max must be JSON integers, the rows must run
    1..n_max with n_max as declared in the meta block, and their values must
    agree with the closed form of the declared family and width (rtol = atol
    = 1e-12), so an edited file cannot pose as that family's table.
    """
    with open(path) as handle:
        document = json.load(handle)
    try:
        meta = document["meta"]
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {meta['format_version']!r}")
        family = family_from_descriptor(meta["family"])
        delta = float(meta["delta"])
        n_max = meta["n_max"]
        rows = document["rows"]
        ns = [row[0] for row in rows]
        if type(n_max) is not int or not set(map(type, ns)) <= {int}:  # exact type: refuses true and 1.0
            raise ValueError(f"meta.n_max and the row numbers of {path} must be integers")
        ns = np.array(ns, dtype=int)
        values = np.array([row[1] for row in rows], dtype=float)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed table file {path}: {exc}") from exc
    _check_row_numbers(ns, path)
    if n_max != ns.size:
        raise ValueError(f"meta.n_max is {n_max} but {path} has {ns.size} rows")
    EncoderConfig(family=family, delta=delta)  # refuses a width that is not > 0
    expected = area_scale(delta) * partial_sums(family, n_max)
    if not np.allclose(values, expected, rtol=1e-12, atol=1e-12):
        raise ValueError("table values disagree with the closed form")
    return IntegralTable(delta=delta, family=family, values=values)


def save_table_csv(table: IntegralTable, path) -> None:
    """Write rows as ``N,I`` lines at 17 significant digits."""
    write_lines(path, itertools.chain(["N,I"], (f"{n},{value:.17g}" for n, value in table.rows)))


def load_table_csv(path) -> IntegralTable:
    """Load a CSV table; the result carries no family or width metadata."""
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
    _check_row_numbers(np.array(ns, dtype=int), path)
    return IntegralTable(delta=None, family=None, values=np.array(values, dtype=float))


def load_table(path) -> IntegralTable:
    """Load either on-disk form, sniffing JSON by its leading brace."""
    with open(path) as handle:
        head = handle.read(64).lstrip()
    if head.startswith("{"):
        return load_table_json(path)
    return load_table_csv(path)
