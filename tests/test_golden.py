"""Byte-for-byte regression tests against committed fixtures.

``golden/<scenario>/`` holds ``edgeslice run <scenario> --seed 42
--requests 60`` output for both shipped scenarios (the calibrated one is
the file packaged with edgeslice), so any change that shifts virtual time
shows here. ``golden/wire.json`` holds the encodings
made by ``wire_samples.py`` (see its docstring for how it was generated),
so any change to the bytes on the wire shows here.
"""
import json
import os

import pytest

from edgeslice.cli import main
from util import CALIBRATED_YAML
from wire_samples import samples, traffic_digests

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SCENARIO_FILES = {
    "reference_calibrated": CALIBRATED_YAML,
    "jittery_campus": os.path.join(HERE, "..", "scenarios", "jittery_campus.yaml"),
}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("scenario", ["reference_calibrated", "jittery_campus"])
def test_run_output_matches_golden(scenario, tmp_path, capsys):
    out = tmp_path / scenario
    argv = ["run", SCENARIO_FILES[scenario], "--seed", "42",
            "--requests", "60", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    for name in ("samples.csv", "summary.txt"):
        assert read(out / name) == read(os.path.join(GOLDEN, scenario, name)), name


@pytest.fixture(scope="module")
def golden_wire():
    with open(os.path.join(GOLDEN, "wire.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_wire_samples_match_golden(golden_wire):
    current = samples()
    assert sorted(current) == sorted(golden_wire["samples"])
    for name, text in golden_wire["samples"].items():
        assert current[name] == text, name


def test_system_traffic_matches_golden(golden_wire):
    assert traffic_digests() == golden_wire["traffic"]
