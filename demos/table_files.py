"""Saving tables and getting them back, byte for byte.

Tables are the hand-off artifact between whoever builds the encoding and
whoever decodes observations, so the on-disk forms are deliberately boring:
a JSON form that carries its provenance and re-validates on load, and a
bare CSV form for everything else.
"""

import tempfile
from pathlib import Path

from smoothint import (
    Canonical,
    EncoderConfig,
    build_table,
    load_table,
    recover_match,
    save_table_csv,
    save_table_json,
)


def main() -> None:
    table = build_table(EncoderConfig(family=Canonical(), delta=0.2), 30)
    with tempfile.TemporaryDirectory(prefix="smoothint_") as tmp:
        workdir = Path(tmp)

        json_path = workdir / "table.json"
        csv_path = workdir / "table.csv"
        save_table_json(table, json_path)
        save_table_csv(table, csv_path)
        print(f"wrote {json_path} ({json_path.stat().st_size} bytes)")
        print(f"wrote {csv_path} ({csv_path.stat().st_size} bytes)")

        loaded = load_table(json_path)
        print()
        print(f"JSON reload keeps provenance: family={loaded.family!r}, delta={loaded.delta}")
        resaved = workdir / "resaved.json"
        save_table_json(loaded, resaved)
        print(f"save -> load -> save is byte-identical: {resaved.read_bytes() == json_path.read_bytes()}")

        bare = load_table(csv_path)
        print()
        print(f"CSV reload carries no provenance: family={bare.family!r}, delta={bare.delta!r}")
        print(f"but every float survives exactly: {list(bare.values) == list(table.values)}")

        result = recover_match(bare, 0.028, 0.005)
        print(f"and recovery works all the same: N = {result.n}")


if __name__ == "__main__":
    main()
