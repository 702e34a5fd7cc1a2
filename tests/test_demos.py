"""Each demo script runs to completion against the package sources."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy from tmp_path, so any picture or temporary directory a
    # demo makes lands there
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    completed = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert not list(tmp_path.glob("smoothint_*")), "the demo left a temporary directory"
