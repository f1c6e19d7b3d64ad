"""Every demo runs to completion as a script, from a directory of its own,
with the package taken from this checkout's ``src``, and prints what its
golden file in ``golden/demos/`` holds: no demo prints a path, so its stdout
is virtual-time output alone."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("[0-9][0-9]_*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
