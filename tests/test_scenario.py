import glob
import os
from dataclasses import replace

import pytest
import yaml

from edgeslice import scenario
from edgeslice.errors import ConfigInvalidError
from edgeslice.images import FunctionImage, ImageCatalogue
from edgeslice.offload import SyncMode
from edgeslice.primitives import Operation
from edgeslice.scenario import (
    ScenarioConfig,
    TaskSpec,
    calibrated_text,
    load_scenario,
    load_topology_doc,
    reference_calibrated,
    parse_scenario,
)
from edgeslice.slicing import FunctionKind, LatencyClass

from util import CALIBRATED_YAML

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


@pytest.mark.parametrize(
    "path",
    [CALIBRATED_YAML, os.path.join(SCENARIO_DIR, "jittery_campus.yaml")],
    ids=["reference_calibrated.yaml", "jittery_campus.yaml"],
)
def test_shipped_scenarios_load(path):
    cfg = load_scenario(path)
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


# a section of the wrong YAML type: (the section's line in MINIMAL, its replacement)
WRONG_TYPES = {
    "scenario-list": ("scenario: {name: tiny, seed: 1, requests: 5}", "scenario: [1]"),
    "processing-list": ("processing:\n  cloud: {create: 1.0}", "processing: [1]"),
    "processing-entry-number": ("cloud: {create: 1.0}", "cloud: 5"),
    "catalogue-list": ("tasks:", "catalogue: [1]\ntasks:"),
    "workload-list": ("workload:\n  target: IN-CSE/Things/Box/values", "workload: [1]"),
}


@pytest.mark.parametrize("before, after", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_a_section_of_the_wrong_type_is_a_config_error(before, after):
    assert MINIMAL.count(before) == 1
    with pytest.raises(ConfigInvalidError, match="must be a mapping"):
        parse_scenario(MINIMAL.replace(before, after))


# a scalar of the wrong YAML type: (the scalar's text in MINIMAL, its replacement)
WRONG_SCALARS = {
    "target-number": ("target: IN-CSE/Things/Box/values", "target: 5"),
    "root-number": ("root: IN-CSE/Things/Box", "root: 5"),
    "task-id-number": ("id: t1", "id: 1"),
    "service-id-list": ("service_id: svc", "service_id: [svc]"),
    "function-number": ("functions: [retrieve, data_management]", "functions: [5]"),
    "pre-seeded-string": ("tasks:", "catalogue: {pre_seeded: \"no\"}\ntasks:"),
    "link-accurate-pulls-number": ("tasks:", "catalogue: {link_accurate_pulls: 1}\ntasks:"),
}


@pytest.mark.parametrize("before, after", WRONG_SCALARS.values(), ids=WRONG_SCALARS.keys())
def test_a_scalar_of_the_wrong_type_is_a_config_error(before, after):
    assert MINIMAL.count(before) == 1
    with pytest.raises(ConfigInvalidError, match="must be a (str|bool), not"):
        parse_scenario(MINIMAL.replace(before, after))


def test_an_empty_optional_section_reads_as_its_defaults():
    text = MINIMAL.replace("processing:\n  cloud: {create: 1.0}", "processing:\ncatalogue:")
    cfg = parse_scenario(text.replace("scenario: {name: tiny, seed: 1, requests: 5}", "scenario:"))
    assert (cfg.name, cfg.requests, cfg.processing_for("c")) == ("scenario", 60, {})


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


def test_slice_function_missing_from_the_catalogue_rejected():
    one_image = "catalogue:\n  images:\n    - img-r,retrieve,1.0.0,150000000\nworkload:"
    with pytest.raises(ConfigInvalidError, match="DATA_MANAGEMENT"):
        parse_scenario(MINIMAL.replace("workload:", one_image))
    with pytest.raises(ConfigInvalidError, match="DISCOVERY"):
        replace(
            reference_calibrated(),
            catalogue=ImageCatalogue(
                [FunctionImage("img-r", FunctionKind.RETRIEVE, "1.0.0", 150_000_000)]
            ),
            functions=frozenset({FunctionKind.RETRIEVE, FunctionKind.DISCOVERY}),
        )


def test_hand_built_config_needing_a_missing_image_rejected():
    base = reference_calibrated()
    with pytest.raises(ConfigInvalidError, match="DISCOVERY"):
        ScenarioConfig(
            name="hand-built",
            topology=base.topology,
            processing={},
            service_id="svc",
            functions=frozenset({FunctionKind.DISCOVERY}),
            sync_mode=SyncMode.LAZY,
            tasks=[TaskSpec("t1", "IN-CSE/Things/Box", "svc")],
            workload_target="IN-CSE/Things/Box/values",
            catalogue=ImageCatalogue(
                [FunctionImage("img-r", FunctionKind.RETRIEVE, "1.0.0", 150_000_000)]
            ),
        )


# --- YAML loader ---

LOADERS = pytest.mark.parametrize(
    "loader", [scenario.LOADER, yaml.SafeLoader], ids=["package", "SafeLoader"]
)


def shipped_documents() -> list[str]:
    texts = [calibrated_text()]
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.yaml"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts


def test_the_package_loader_builds_the_documents_safeloader_builds():
    texts = shipped_documents()
    assert len(texts) >= 2
    for text in texts:
        doc = yaml.load(text, Loader=scenario.LOADER)
        assert isinstance(doc, dict) and doc == yaml.load(text, Loader=yaml.SafeLoader)


def test_the_c_loader_is_used_where_pyyaml_has_libyaml(monkeypatch):
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario.LOADER is expected
    used, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: used.append(Loader) or load(text, Loader))
    parse_scenario(calibrated_text())
    assert used == [expected]


def _fields(config: ScenarioConfig) -> tuple:
    return (config.name, config.tasks, config.modes, config.processing, config.functions,
            config.workload_target, sorted(config.topology.nodes),
            sorted((link.a, link.b, link.delay_ms) for link in config.topology.links.values()))


def test_the_packaged_calibration_is_parsed_once_per_process(monkeypatch):
    parsed = _fields(parse_scenario(calibrated_text()))
    used, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: used.append(text) or load(text, Loader))
    scenario._calibrated_doc.cache_clear()
    first, second = reference_calibrated(), reference_calibrated()
    assert used == [calibrated_text()]
    assert _fields(first) == _fields(second) == parsed
    # each call builds its own config: a caller's edits reach no other caller
    assert first.tasks is not second.tasks and first.modes is not second.modes
    assert first.processing is not second.processing
    assert all(first.processing[n] is not second.processing[n] for n in first.processing)
    first.tasks.append(TaskSpec("extra", "IN-CSE/x", first.service_id))
    first.modes.append("cloud")
    first.processing["cloud"][Operation.CREATE] = 99.0
    assert _fields(reference_calibrated()) == _fields(second)
    assert used == [calibrated_text()]


def test_the_topology_override_applies_to_the_cached_calibration(tmp_path):
    topo = tmp_path / "topo.yaml"
    topo.write_text(
        "nodes:\n"
        "  - {id: dev0, role: device}\n"
        "  - {id: edge0, role: edge}\n"
        "  - {id: edge1, role: edge}\n"
        "  - {id: cloud, role: cloud}\n"
        "links:\n"
        "  - {a: dev0, b: edge0, delay_ms: 2.0}\n"
        "  - {a: dev0, b: edge1, delay_ms: 3.0}\n"
        "  - {a: edge0, b: cloud, delay_ms: 2.4}\n"
        "  - {a: edge1, b: cloud, delay_ms: 2.4}\n"
    )
    packaged = reference_calibrated()
    moved = reference_calibrated(str(topo))
    assert sorted(moved.topology.nodes) == ["cloud", "dev0", "edge0", "edge1"]
    assert moved.topology.link_between("dev0", "edge0").delay_ms == 2.0
    # role-level processing reaches the override's extra edge
    assert moved.processing_for("edge1") == moved.processing_for("edge0") != {}
    assert _fields(reference_calibrated()) == _fields(packaged)
    assert "edge1" not in reference_calibrated().topology.nodes


UNREADABLE = {  # text, then what the error says
    "tab-indentation": ("scenario:\n\tname: tabbed\n", "unparseable"),
    "unclosed-flow-sequence": ("slice:\n  functions: [retrieve, notification\n", "unparseable"),
    "top-level-list": ("- nodes\n- links\n", "must be a mapping"),
    "empty-document": ("", "must be a mapping"),
}


@LOADERS
@pytest.mark.parametrize("text, error", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_documents_are_config_errors(monkeypatch, tmp_path, loader, text, error):
    monkeypatch.setattr(scenario, "LOADER", loader)
    with pytest.raises(ConfigInvalidError, match=error):
        parse_scenario(text)
    path = tmp_path / "topology.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigInvalidError, match=error):
        load_topology_doc(str(path))


def test_repeated_task_ids_rejected():
    task = "  - {id: t1, root: IN-CSE/Things/Box, service: svc}\n"
    again = task + "  - {id: t1, root: IN-CSE/Things/Bag, service: svc}\n"
    with pytest.raises(ConfigInvalidError, match="task ids"):
        parse_scenario(MINIMAL.replace(task, again))
    base = reference_calibrated()
    with pytest.raises(ConfigInvalidError, match="task ids"):
        replace(base, tasks=[*base.tasks, TaskSpec(base.tasks[0].task_id, "IN-CSE/Other", base.service_id)])
