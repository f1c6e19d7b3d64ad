"""Byte-for-byte regression tests against committed fixtures.

``golden/<scenario>/`` holds ``edgeslice run <scenario> --seed 42
--requests 60`` output for both shipped scenarios (the calibrated one is
the file packaged with edgeslice), and ``golden/cli/<command>/`` the output
of ``road-scenario``, ``bench-create``, ``bench-retrieve``,
``bench-prepare`` and ``bench-prepare --cold`` at their defaults, so any
change that shifts virtual time shows here. Each of those directories holds
the files the command writes and its ``stdout.txt``, with the ``--out``
directory written as ``<out>``; a command that writes a file its directory
does not hold fails, so each new output file is pinned as it appears.
``golden/wire.json`` holds the encodings made by ``wire_samples.py`` (see
its docstring for how it was generated), so any change to the bytes on the
wire shows here. The same system runs
check that each byte of their traffic is escaped at most once.
"""
import json
import os

import pytest

from edgeslice.cli import main
from edgeslice.primitives import decode_fieldline, decode_request, decode_response, is_response
from util import CALIBRATED_YAML
from wire_samples import TRAFFIC_RUNS, samples, traffic, traffic_digests

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SCENARIO_FILES = {
    "reference_calibrated": CALIBRATED_YAML,
    "jittery_campus": os.path.join(HERE, "..", "scenarios", "jittery_campus.yaml"),
}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_command(argv, golden, out, capsys):
    """Run ``argv`` writing to ``out``; its stdout and each file it writes
    must match ``golden``, and it must write no file ``golden`` lacks."""
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    expected = sorted(set(os.listdir(golden)) - {"stdout.txt"})
    assert sorted(os.listdir(out)) == expected
    # compared as text, so that a failure shows the lines that differ
    assert stdout == read(os.path.join(golden, "stdout.txt")).decode()
    for name in expected:
        assert read(out / name).decode() == read(os.path.join(golden, name)).decode(), name


@pytest.mark.parametrize("scenario", ["reference_calibrated", "jittery_campus"])
def test_run_output_matches_golden(scenario, tmp_path, capsys):
    argv = ["run", SCENARIO_FILES[scenario], "--seed", "42", "--requests", "60"]
    check_command(argv, os.path.join(GOLDEN, scenario), tmp_path / scenario, capsys)


@pytest.mark.parametrize("argv", [["road-scenario"], ["bench-create"], ["bench-retrieve"],
                                  ["bench-prepare"], ["bench-prepare", "--cold"]],
                         ids=["road-scenario", "bench-create", "bench-retrieve",
                              "bench-prepare", "bench-prepare-cold"])
def test_command_output_matches_golden(argv, tmp_path, capsys):
    name = "-".join(arg.strip("-") for arg in argv)
    check_command(argv, os.path.join(GOLDEN, "cli", name), tmp_path / "out", capsys)


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


def _texts(message) -> list[str]:
    """The texts a decoded message was encoded from: its envelope's text
    fields and every value of the field lines its content holds."""
    texts = [message.request_id, getattr(message, "to", ""), getattr(message, "originator", "")]
    if message.content is not None:
        texts += [value for line in message.content.decode("ascii").split("\n")
                  for value in decode_fieldline(line).values()]
    return texts


@pytest.mark.parametrize("run", TRAFFIC_RUNS, ids=lambda run: run.__name__.strip("_"))
def test_each_byte_of_the_traffic_is_encoded_once(run):
    """Only content that is not ASCII travels as base64, and a "%" is escaped
    a second time only where the text it came from held one."""
    for data in traffic(run):
        message = decode_response(data) if is_response(data) else decode_request(data)
        content = message.content
        assert (b"\npc=b:" in data) == (content is not None and not content.isascii()), data[:80]
        if b"%25" in data:
            assert any("%" in text for text in _texts(message)), data[:80]
