"""Scenario configuration: topology, slice profile, tasks and workload.

Scenarios are YAML documents (see data/reference_calibrated.yaml). The packaged
reference-calibrated scenario carries link delays and per-node processing times
solved so the closed-form round trips reproduce the reference means.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources

import yaml

from .errors import BadRequestError, ConfigInvalidError, ImageNotFoundError
from .images import ImageCatalogue, default_catalogue
from .netsim import Link, Node, NodeRole, Topology
from .offload import SyncMode
from .primitives import Operation
from .resources import ResourcePath
from .slicing import FunctionKind, LatencyClass, SliceProfile, function_from_name, ordered
from .worker import ResourceQuota

_ROLE_NAMES = {
    "device": NodeRole.DEVICE,
    "edge": NodeRole.EDGE_WORKER,
    "cloud": NodeRole.CLOUD,
}

_OP_NAMES = {
    "create": Operation.CREATE,
    "retrieve": Operation.RETRIEVE,
    "update": Operation.UPDATE,
    "delete": Operation.DELETE,
    "notify": Operation.NOTIFY,
}

MODES = ("cloud", "edge")

# libyaml's parser where PyYAML has it: the same documents, several times faster
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_mapping(text: str, what: str, document: str) -> dict:
    try:
        doc = yaml.load(text, Loader=LOADER)
    except yaml.YAMLError as exc:
        raise ConfigInvalidError(f"unparseable {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalidError(f"{document} must be a mapping")
    return doc


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    root: str  # cloud-side path, e.g. "IN-CSE/Pedestrians/CitizenB"
    service: str


@dataclass
class ScenarioConfig:
    name: str
    topology: Topology
    processing: dict[str, dict[Operation, float]]  # node id -> op -> ms
    service_id: str
    functions: frozenset[FunctionKind]
    sync_mode: SyncMode
    tasks: list[TaskSpec]
    workload_target: str  # cloud-side container path receiving instances
    operations: list[str] = field(default_factory=lambda: ["create"])
    modes: list[str] = field(default_factory=lambda: ["cloud", "edge"])
    populate: "list[tuple[str, int]] | None" = None  # defaults to workload target
    requests: int = 60
    seed: int = 42
    payload_bytes: int = 400
    prepopulate: int = 5
    latency_class: LatencyClass = LatencyClass.NORMAL
    start_delay_ms: float = 250.0
    capacity_bytes: int = 4_000_000_000
    quota: ResourceQuota = field(
        default_factory=lambda: ResourceQuota(256_000_000, 0.25)
    )
    catalogue: ImageCatalogue = field(default_factory=default_catalogue)
    pre_seeded_cache: bool = True
    link_accurate_pulls: bool = False

    def __post_init__(self) -> None:
        # a config built by hand or by dataclasses.replace is checked too
        self.validate()

    def profile(self) -> SliceProfile:
        return SliceProfile(self.service_id, self.functions, self.latency_class)

    def processing_for(self, node_id: str) -> dict[Operation, float]:
        return self.processing.get(node_id, {})

    def validate(self) -> "ScenarioConfig":
        if self.requests <= 0:
            raise ConfigInvalidError("requests must be positive")
        if self.payload_bytes < 0:
            raise ConfigInvalidError("payload_bytes must be >= 0")
        if not 0 <= self.start_delay_ms < math.inf:
            raise ConfigInvalidError("start_delay_ms must be finite and >= 0")
        for node, entries in self.processing.items():
            for op, ms in entries.items():
                if not 0 <= ms < math.inf:
                    raise ConfigInvalidError(
                        f"processing {op.name.lower()} on {node!r} must be finite and >= 0"
                    )
        if not self.functions:
            raise ConfigInvalidError("the slice needs at least one function")
        for fn in ordered(self.functions):
            try:
                self.catalogue.lookup(fn)
            except ImageNotFoundError:
                raise ConfigInvalidError(f"the catalogue has no image for {fn.name}") from None
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigInvalidError(f"unknown mode {mode!r}")
        for op in self.operations:
            if op not in ("create", "retrieve"):
                raise ConfigInvalidError(f"unsupported workload operation {op!r}")
        if not self.topology.is_connected():
            raise ConfigInvalidError("topology must be connected")
        if not self.topology.by_role(NodeRole.CLOUD):
            raise ConfigInvalidError("topology needs a cloud node")
        if not self.topology.by_role(NodeRole.DEVICE):
            raise ConfigInvalidError("topology needs at least one device")
        if "edge" in self.modes and not self.topology.by_role(NodeRole.EDGE_WORKER):
            raise ConfigInvalidError("edge mode needs an edge worker")
        task_ids = [t.task_id for t in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ConfigInvalidError(f"task ids must be distinct: {task_ids}")
        services = {t.service for t in self.tasks}
        if self.tasks and self.service_id not in services:
            raise ConfigInvalidError("tasks reference a different service id")
        if not self.workload_target.startswith("IN-CSE/"):
            raise ConfigInvalidError("workload target must be a cloud (IN-CSE) path")
        if self.tasks:
            try:
                target = ResourcePath.parse(self.workload_target)
                roots = [ResourcePath.parse(t.root) for t in self.tasks]
            except BadRequestError as exc:
                raise ConfigInvalidError(f"bad resource path: {exc}") from exc
            if not any(root.is_prefix_of(target) for root in roots):
                raise ConfigInvalidError("workload target must live inside an offloaded task")
        return self


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigInvalidError(f"missing {key!r} in {context}")
    return mapping[key]


def _typed(value, kind: type, what: str):
    """``value``, refused unless it is a ``kind``: a YAML scalar of another
    type (``5`` for a path, ``"no"`` for a flag) is a config error."""
    if not isinstance(value, kind):
        raise ConfigInvalidError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _section(doc: dict, key: str) -> dict:
    """An optional mapping section of ``doc``; an absent or empty one is ``{}``."""
    section = doc.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigInvalidError(f"{key!r} must be a mapping")
    return section


def parse_topology(doc: dict) -> Topology:
    nodes = []
    for spec in _require(doc, "nodes", "topology"):
        role_name = _require(spec, "role", "topology node")
        if role_name not in _ROLE_NAMES:
            raise ConfigInvalidError(f"unknown node role {role_name!r}")
        nodes.append(Node(_require(spec, "id", "topology node"), _ROLE_NAMES[role_name]))
    links = []
    for spec in _require(doc, "links", "topology"):
        links.append(
            Link(
                a=_require(spec, "a", "link"),
                b=_require(spec, "b", "link"),
                delay_ms=float(_require(spec, "delay_ms", "link")),
                jitter_ms=float(spec.get("jitter_ms", 0.0)),
                bandwidth_bytes_per_s=float(spec.get("bandwidth_bytes_per_s", 100e6)),
            )
        )
    try:
        return Topology(nodes, links)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"bad topology: {exc}") from exc


def _parse_processing(doc: dict, topology: Topology) -> dict[str, dict[Operation, float]]:
    """Role-level defaults overlaid with per-node entries."""
    table: dict[str, dict[Operation, float]] = {n: {} for n in topology.nodes}
    for key, ops in doc.items():
        if not isinstance(ops, dict):
            raise ConfigInvalidError(f"processing entry {key!r} must be a mapping")
        entries = {}
        for op_name, value in ops.items():
            if op_name not in _OP_NAMES:
                raise ConfigInvalidError(f"unknown operation {op_name!r} in processing")
            entries[_OP_NAMES[op_name]] = float(value)
        if key in _ROLE_NAMES:
            for node in topology.by_role(_ROLE_NAMES[key]):
                table[node].update(entries)
        elif key in table:
            table[key].update(entries)
        else:
            raise ConfigInvalidError(f"processing entry for unknown node {key!r}")
    return table


def parse_scenario(text: str, topology_override: "dict | None" = None) -> ScenarioConfig:
    return _build_scenario(_load_mapping(text, "scenario", "scenario document"), topology_override)


def _build_scenario(doc: dict, topology_override: "dict | None") -> ScenarioConfig:
    """A config from a parsed scenario document. The document is only read,
    and the config holds none of its lists or dicts."""
    if topology_override is not None:
        doc = dict(doc)
        doc["topology"] = topology_override
    try:
        scenario = _section(doc, "scenario")
        topology = parse_topology(_require(doc, "topology", "scenario"))
        slice_doc = _require(doc, "slice", "scenario")
        functions = frozenset(
            function_from_name(_typed(n, str, "a function name"))
            for n in _require(slice_doc, "functions", "slice")
        )
        catalogue_doc = _section(doc, "catalogue")
        if "images" in catalogue_doc:
            catalogue = ImageCatalogue.load("\n".join(catalogue_doc["images"]))
        else:
            catalogue = default_catalogue()
        tasks = [
            TaskSpec(
                task_id=_typed(_require(t, "id", "task"), str, "a task id"),
                root=_typed(_require(t, "root", "task"), str, "a task root"),
                service=_typed(_require(t, "service", "task"), str, "a task service"),
            )
            for t in doc.get("tasks", [])
        ]
        workload = _section(doc, "workload")
        config = ScenarioConfig(
            name=scenario.get("name", "scenario"),
            seed=int(scenario.get("seed", 42)),
            requests=int(scenario.get("requests", 60)),
            payload_bytes=int(scenario.get("payload_bytes", 400)),
            modes=list(scenario.get("modes", ["cloud", "edge"])),
            topology=topology,
            processing=_parse_processing(_section(doc, "processing"), topology),
            service_id=_typed(_require(slice_doc, "service_id", "slice"), str, "the service id"),
            functions=functions,
            latency_class=LatencyClass(slice_doc.get("latency_class", "normal")),
            sync_mode=SyncMode(slice_doc.get("sync_mode", "eager")),
            start_delay_ms=float(slice_doc.get("start_delay_ms", 250.0)),
            capacity_bytes=int(slice_doc.get("capacity_bytes", 4_000_000_000)),
            quota=ResourceQuota(
                int(slice_doc.get("quota_memory_bytes", 256_000_000)),
                float(slice_doc.get("quota_cpu_share", 0.25)),
            ),
            catalogue=catalogue,
            pre_seeded_cache=_typed(catalogue_doc.get("pre_seeded", True), bool, "pre_seeded"),
            link_accurate_pulls=_typed(catalogue_doc.get("link_accurate_pulls", False), bool,
                                       "link_accurate_pulls"),
            tasks=tasks,
            workload_target=_typed(_require(workload, "target", "workload"), str, "the workload target"),
            operations=list(workload.get("operations", ["create"])),
            prepopulate=int(workload.get("prepopulate", 5)),
        )
    except (KeyError, TypeError, ValueError, BadRequestError) as exc:
        raise ConfigInvalidError(f"bad scenario: {exc}") from exc
    return config


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read {path!r}: {exc}") from exc


def load_topology_doc(path: str) -> dict:
    """A topology file is either a bare {nodes, links} mapping or a full
    scenario whose topology section is taken."""
    doc = _load_mapping(_read(path), "topology file", "topology file")
    return doc.get("topology", doc)


def load_scenario(path: str, topology_path: "str | None" = None) -> ScenarioConfig:
    override = load_topology_doc(topology_path) if topology_path else None
    return parse_scenario(_read(path), override)


def calibrated_text() -> str:
    return resources.files("edgeslice.data").joinpath("reference_calibrated.yaml").read_text()


@functools.cache
def _calibrated_doc() -> dict:
    """The shipped calibration's document, parsed once per process."""
    return _load_mapping(calibrated_text(), "scenario", "scenario document")


def reference_calibrated(topology_path: "str | None" = None) -> ScenarioConfig:
    """The shipped calibration reproducing the reference latency means; each
    call builds a fresh config from the document parsed once."""
    override = load_topology_doc(topology_path) if topology_path else None
    return _build_scenario(_calibrated_doc(), override)
