import copy
import glob
import os
import pathlib
import re
import string
from dataclasses import replace

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        ("modes: [cloud, edge]", "modes: []"),
        ("target: IN-CSE/Things/Box/values", "target: IN-CSE/Things/Box/values\n  operations: []"),
        ("target: IN-CSE/Things/Box/values", "target: IN-CSE/Things/Box/values\n  prepopulate: -3"),
    ],
)
def test_invalid_scenarios_rejected(mutation):
    before, after = mutation
    text = MINIMAL.replace("scenario: {name: tiny, seed: 1, requests: 5}",
                           "scenario: {name: tiny, seed: 1, requests: 5, modes: [cloud, edge]}")
    assert before in text
    with pytest.raises(ConfigInvalidError):
        parse_scenario(text.replace(before, after))


@pytest.mark.parametrize("capacity", ["0", "-5"])
def test_a_capacity_that_is_not_positive_is_refused(capacity):
    text = MINIMAL.replace("service_id: svc", f"service_id: svc\n  capacity_bytes: {capacity}")
    with pytest.raises(ConfigInvalidError, match="capacity_bytes must be positive"):
        parse_scenario(text)
    with pytest.raises(ConfigInvalidError, match="capacity_bytes must be positive"):
        replace(parse_scenario(MINIMAL), capacity_bytes=int(capacity)).validate()


def test_a_capacity_below_what_the_slice_needs_is_left_to_the_preparation():
    """Only the worker knows what its starts reserve, so a capacity that
    holds fewer functions than the slice runs parses; the preparation then
    fails and names its cause."""
    text = MINIMAL.replace("service_id: svc", "service_id: svc\n  capacity_bytes: 1")
    assert parse_scenario(text).capacity_bytes == 1


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
        {"modes": []},
        {"operations": []},
        {"prepopulate": -3},
    ],
    ids=["start-delay-nan", "no-requests", "negative-payload", "processing-inf", "unknown-mode",
         "no-modes", "no-operations", "negative-prepopulate"],
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


def test_a_second_cloud_node_is_refused_at_parse():
    cloud, link = "    - {id: c, role: cloud}\n", "    - {a: e, b: c, delay_ms: 2.0}\n"
    text = MINIMAL.replace(cloud, cloud + "    - {id: c2, role: cloud}\n")
    with pytest.raises(ConfigInvalidError, match="exactly one cloud"):
        parse_scenario(text.replace(link, link + "    - {a: e, b: c2, delay_ms: 2.0}\n"))


# --- the key table ---

# a value where the table wants another type: (the text in MINIMAL, its
# replacement, the key path the refusal names)
MISTYPED = {
    "modes-string": ("requests: 5}", "requests: 5, modes: cloud}", "scenario.modes must be a list"),
    "operations-string": ("values\n", "values\n  operations: create\n",
                          "workload.operations must be a list"),
    "images-string": ("tasks:", "catalogue: {images: abc}\ntasks:", "catalogue.images must be a list"),
    "seed-bool": ("seed: 1", "seed: true", "scenario.seed must be an int, not bool"),
    "seed-float": ("seed: 1", "seed: 1.9", "scenario.seed must be an int, not float"),
    "delay-word": ("delay_ms: 2.0", "delay_ms: two", "topology.links[1].delay_ms must be a float"),
    "delay-bool": ("delay_ms: 2.0", "delay_ms: true", "topology.links[1].delay_ms must be a float"),
    "delay-overflow": ("delay_ms: 2.0", "delay_ms: 1" + "0" * 400,
                       "topology.links[1].delay_ms must be a float"),
    "unknown-key": ("seed: 1", "sede: 1", "unknown key scenario.sede"),
    "unknown-node-key": ("{id: e, role: edge}", "{id: e, role: edge, zone: 3}",
                         "unknown key topology.nodes[1].zone"),
    "unknown-operation": ("{create: 1.0}", "{create: 1.0, frob: 2.0}",
                          "unknown key processing.cloud.frob"),
    "missing-delay": ("{a: e, b: c, delay_ms: 2.0}", "{a: e, b: c}",
                      "missing key topology.links[1].delay_ms"),
    "null-target": ("target: IN-CSE/Things/Box/values", "target:", "missing key workload.target"),
    "unknown-role": ("role: edge", "role: fog", "topology.nodes[1].role: unknown role 'fog'"),
    "unknown-sync-mode": ("service_id: svc", "service_id: svc\n  sync_mode: later",
                          "slice.sync_mode: unknown sync mode 'later'"),
}


@pytest.mark.parametrize("before, after, error", MISTYPED.values(), ids=MISTYPED.keys())
def test_a_refusal_names_the_key_path(before, after, error):
    assert MINIMAL.count(before) == 1
    with pytest.raises(ConfigInvalidError, match=re.escape(error)):
        parse_scenario(MINIMAL.replace(before, after))


def test_a_float_key_reads_ints_and_numeric_strings():
    text = MINIMAL.replace("delay_ms: 2.0}", "delay_ms: 2, bandwidth_bytes_per_s: 50e6}")
    link = parse_scenario(text).topology.link_between("e", "c")
    assert (link.delay_ms, link.bandwidth_bytes_per_s) == (2.0, 50e6)
    assert type(link.delay_ms) is float


def test_a_topology_override_is_read_through_the_key_table(tmp_path):
    topo = tmp_path / "topo.yaml"
    topo.write_text("nodes:\n  - {id: d, role: device}\nlinks: []\nedges: 2\n")
    scenario_file = tmp_path / "minimal.yaml"
    scenario_file.write_text(MINIMAL)
    for load in (lambda: load_scenario(str(scenario_file), str(topo)),
                 lambda: reference_calibrated(str(topo))):
        with pytest.raises(ConfigInvalidError, match="unknown key topology.edges"):
            load()


def _sites(kind: str, doc: dict, at: tuple, mappings: list, keys: list) -> None:
    """Add the path of mapping ``kind``, sitting at ``at`` in ``doc``, to
    ``mappings``, and (path, table type) of each of its keys to ``keys``; then
    do the same for the mappings below it: a list's first item, a free
    mapping's first entry, a section the document leaves out."""
    mappings.append((at, kind))
    for key, key_kind in scenario._KEYS[kind].items():
        keys.append((at + (key,), key_kind))
        bare, child = key_kind.removeprefix("required "), doc.get(key) or {}
        if bare in scenario._KEYS:
            _sites(bare, child, at + (key,), mappings, keys)
        elif bare.startswith("list of ") and bare[8:] in scenario._KEYS and child:
            _sites(bare[8:], child[0], at + (key, 0), mappings, keys)
        elif bare.startswith("mapping of ") and child:
            first = next(iter(child))
            _sites(bare[11:], child[first], at + (key, first), mappings, keys)


def _path_text(path: tuple) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path).lstrip(".")


def _with(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the key at ``path`` set to ``value``; a mapping
    on the way that the document leaves out is added."""
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        if isinstance(step, str) and not isinstance(node.get(step), (dict, list)):
            node[step] = {}
        node = node[step]
    node[path[-1]] = value
    return doc


def _parse(doc: dict) -> ScenarioConfig:
    """What ``parse_scenario`` does with a document once YAML has read it."""
    return scenario._build_scenario(scenario._check(doc, "document", ""))


DOCUMENTS = {"minimal": MINIMAL, "reference_calibrated": calibrated_text(),
             "jittery_campus": pathlib.Path(SCENARIO_DIR, "jittery_campus.yaml").read_text("utf-8")}
PARSED = {name: yaml.safe_load(text) for name, text in DOCUMENTS.items()}
MAPPING_SITES, KEY_SITES = [], []
for _name, _doc in PARSED.items():
    _mappings, _keys = [], []
    _sites("document", _doc, (), _mappings, _keys)
    MAPPING_SITES += [(_name, path, kind) for path, kind in _mappings]
    KEY_SITES += [(_name, path, kind) for path, kind in _keys]

TEXT = st.one_of(
    st.text(string.ascii_letters + string.digits + " ._-/:", max_size=10),
    st.sampled_from(["50e6", "1.5", "nan", "-2", "edge", "lazy", "create", "retrieve",
                     "IN-CSE/Things/Box/values"]),
)
SCALARS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans())
KEY_NAMES = st.text(string.ascii_letters + "_", min_size=1, max_size=8)
# a str, int, float, bool, null, list and mapping, in that order
ONE_OF_EACH_TYPE = st.tuples(
    TEXT, st.integers(), st.floats(), st.booleans(), st.none(),
    st.lists(SCALARS, max_size=3), st.dictionaries(KEY_NAMES, SCALARS, max_size=3),
)


def _numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _right_type(kind: str, value) -> bool:
    """Whether ``value`` has a YAML type the table allows for ``kind``."""
    bare = kind.removeprefix("required ")
    if value is None:
        return bare == kind
    if bare.startswith("list of "):
        return type(value) is list
    if bare in scenario._KEYS or bare.startswith("mapping of "):
        return type(value) is dict
    if bare == "float" and type(value) is str:
        return _numeric(value)
    return type(value) in {"int": (int,), "float": (int, float), "bool": (bool,)}.get(bare, (str,))


@pytest.mark.parametrize("name, path, kind", KEY_SITES,
                         ids=[f"{name}:{_path_text(path)}" for name, path, _ in KEY_SITES])
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(values=ONE_OF_EACH_TYPE)
def test_every_key_accepts_its_type_and_refuses_others_by_path(name, path, kind, values):
    for value in values:
        try:
            _parse(_with(PARSED[name], path, value))
        except ConfigInvalidError as exc:
            assert _right_type(kind, value) or _path_text(path) in str(exc), str(exc)
        else:
            assert _right_type(kind, value), f"{_path_text(path)} accepted {value!r}"


@pytest.mark.parametrize("name, path, kind", MAPPING_SITES,
                         ids=[f"{name}:{_path_text(path) or 'document'}" for name, path, _ in MAPPING_SITES])
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(key=KEY_NAMES, value=SCALARS)
def test_an_unknown_key_in_any_mapping_is_refused_by_name(name, path, kind, key, value):
    assume(key not in scenario._KEYS[kind])
    with pytest.raises(ConfigInvalidError, match=re.escape(f"unknown key {_path_text(path + (key,))}")):
        _parse(_with(PARSED[name], path + (key,), value))
