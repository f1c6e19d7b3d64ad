"""The suite writes nothing into the directory it is started from."""
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_a_hypothesis_test_run_elsewhere_leaves_its_directory_empty(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "HYPOTHESIS_STORAGE_DIRECTORY"}
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(REPO / "tests" / "test_codec.py") + "::test_payload_round_trip"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == []
