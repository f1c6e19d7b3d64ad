"""The CLI's output does not depend on string hashing: ``edgeslice run`` on
both shipped scenarios and a cold ``bench-prepare`` write byte-identical
files under ``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``. ``ResourceKind``
and ``FunctionKind`` hash their members by identity, so the order of a set
or dict of them must never reach the output; this fails if it does."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from util import CALIBRATED_YAML

REPO = Path(__file__).resolve().parent.parent

COMMANDS = {
    "run-reference_calibrated": ["run", CALIBRATED_YAML, "--requests", "5"],
    "run-jittery_campus": ["run", str(REPO / "scenarios" / "jittery_campus.yaml"), "--requests", "5"],
    "bench-prepare-cold": ["bench-prepare", "--cold", "--repetitions", "2"],
}


def _output_files(args: list[str], hash_seed: int, out: Path) -> dict[str, bytes]:
    path = [str(REPO / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, "-m", "edgeslice.cli", *args, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_the_same_under_any_string_hash_seed(name, tmp_path):
    first = _output_files(COMMANDS[name], 0, tmp_path / "hash-0")
    assert first, "the command wrote no files"
    assert _output_files(COMMANDS[name], 1, tmp_path / "hash-1") == first
