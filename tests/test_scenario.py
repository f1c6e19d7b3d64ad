import os
from dataclasses import replace

import pytest

from edgeslice.errors import ConfigInvalidError
from edgeslice.offload import SyncMode
from edgeslice.primitives import Operation
from edgeslice.scenario import (
    calibrated_text,
    load_scenario,
    reference_calibrated,
    parse_scenario,
)
from edgeslice.slicing import FunctionKind, LatencyClass

SCENARIO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios"
)

MINIMAL = """
scenario: {name: tiny, seed: 1, requests: 5}
topology:
  nodes:
    - {id: d, role: device}
    - {id: e, role: edge}
    - {id: c, role: cloud}
  links:
    - {a: d, b: e, delay_ms: 1.0}
    - {a: e, b: c, delay_ms: 2.0}
processing:
  cloud: {create: 1.0}
slice:
  service_id: svc
  functions: [retrieve, data_management]
tasks:
  - {id: t1, root: IN-CSE/Things/Box, service: svc}
workload:
  target: IN-CSE/Things/Box/values
"""


def test_packaged_calibration_loads():
    cfg = reference_calibrated()
    assert cfg.name == "reference-calibrated"
    assert cfg.requests == 60
    assert cfg.payload_bytes == 400
    assert cfg.sync_mode is SyncMode.EAGER
    assert cfg.latency_class is LatencyClass.MISSION_CRITICAL
    assert FunctionKind.NOTIFICATION in cfg.functions
    assert cfg.processing_for("cloud")[Operation.RETRIEVE] == 63.004
    assert cfg.processing_for("edge0")[Operation.CREATE] == 4.092
    assert cfg.catalogue.lookup(FunctionKind.RETRIEVE).size_bytes == 400_000_000


def test_repo_scenario_file_matches_packaged_calibration():
    with open(os.path.join(SCENARIO_DIR, "reference_calibrated.yaml"), encoding="utf-8") as fh:
        assert fh.read() == calibrated_text()


@pytest.mark.parametrize("name", ["reference_calibrated.yaml", "jittery_campus.yaml"])
def test_shipped_scenarios_load(name):
    cfg = load_scenario(os.path.join(SCENARIO_DIR, name))
    assert cfg.tasks and cfg.workload_target.startswith(cfg.tasks[0].root + "/")


def test_minimal_scenario_parses():
    cfg = parse_scenario(MINIMAL)
    assert cfg.name == "tiny"
    assert cfg.processing_for("c")[Operation.CREATE] == 1.0
    assert cfg.processing_for("e") == {}
    assert cfg.prepopulate == 5


def test_topology_override():
    cfg = parse_scenario(
        MINIMAL,
        topology_override={
            "nodes": [
                {"id": "d", "role": "device"},
                {"id": "e", "role": "edge"},
                {"id": "e2", "role": "edge"},
                {"id": "c", "role": "cloud"},
            ],
            "links": [
                {"a": "d", "b": "e", "delay_ms": 1.0},
                {"a": "d", "b": "e2", "delay_ms": 3.0},
                {"a": "e", "b": "c", "delay_ms": 2.0},
                {"a": "e2", "b": "c", "delay_ms": 2.0},
            ],
        },
    )
    assert len(cfg.topology.nodes) == 4
    # role-level processing applies to every matching node
    assert cfg.processing_for("c")[Operation.CREATE] == 1.0


@pytest.mark.parametrize(
    "mutation",
    [
        ("requests: 5", "requests: 0"),
        ("modes: [cloud, edge]", "modes: [warp]"),
        ("functions: [retrieve, data_management]", "functions: [telepathy]"),
        ("functions: [retrieve, data_management]", "functions: []"),
        ("target: IN-CSE/Things/Box/values", "target: MN-CSE/Things/Box/values"),
        ("target: IN-CSE/Things/Box/values", "target: IN-CSE/Elsewhere/values"),
        # a sibling whose name merely extends the task root's last segment
        ("target: IN-CSE/Things/Box/values", "target: IN-CSE/Things/BoxB/values"),
        ("- {a: d, b: e, delay_ms: 1.0}", "- {a: d, b: e, delay_ms: -1.0}"),
    ],
)
def test_invalid_scenarios_rejected(mutation):
    before, after = mutation
    text = MINIMAL.replace("scenario: {name: tiny, seed: 1, requests: 5}",
                           "scenario: {name: tiny, seed: 1, requests: 5, modes: [cloud, edge]}")
    assert before in text
    with pytest.raises(ConfigInvalidError):
        parse_scenario(text.replace(before, after))


@pytest.mark.parametrize(
    "edit",
    [
        ("delay_ms: 1.0,", "delay_ms: .nan,"),
        ("bandwidth_bytes_per_s: 100e6}", "bandwidth_bytes_per_s: .nan}"),
        ("jitter_ms: 0.0,", "jitter_ms: .inf,"),
        ("create: 4.084", "create: .nan"),
        ("create: 4.084", "create: -1.0"),
        ("start_delay_ms: 250.0", "start_delay_ms: .nan"),
    ],
    ids=["link-delay-nan", "bandwidth-nan", "jitter-inf", "processing-nan",
         "processing-negative", "start-delay-nan"],
)
def test_bad_numbers_rejected_at_load(edit):
    before, after = edit
    text = calibrated_text()
    assert before in text
    with pytest.raises(ConfigInvalidError):
        parse_scenario(text.replace(before, after, 1))


@pytest.mark.parametrize(
    "change",
    [
        {"start_delay_ms": float("nan")},
        {"requests": 0},
        {"payload_bytes": -1},
        {"processing": {"cloud": {Operation.CREATE: float("inf")}}},
        {"modes": ["fog"]},
    ],
    ids=["start-delay-nan", "no-requests", "negative-payload", "processing-inf", "unknown-mode"],
)
def test_configs_changed_with_replace_are_validated(change):
    with pytest.raises(ConfigInvalidError):
        replace(reference_calibrated(), **change)


def test_disconnected_topology_rejected():
    text = MINIMAL.replace("    - {a: e, b: c, delay_ms: 2.0}\n", "")
    with pytest.raises(ConfigInvalidError):
        parse_scenario(text)


def test_missing_sections_rejected():
    with pytest.raises(ConfigInvalidError):
        parse_scenario("scenario: {name: x}")
    with pytest.raises(ConfigInvalidError):
        parse_scenario("] not yaml [")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigInvalidError):
        load_scenario(str(tmp_path / "ghost.yaml"))


def test_custom_catalogue_lines():
    text = MINIMAL.replace(
        "workload:",
        "catalogue:\n  images:\n    - img-r,retrieve,2.0.0,150000000\n"
        "    - img-d,data_management,1.0.0,400000000\n  pre_seeded: false\nworkload:",
    )
    cfg = parse_scenario(text)
    assert not cfg.pre_seeded_cache
    assert cfg.catalogue.lookup(FunctionKind.RETRIEVE).size_bytes == 150_000_000
