"""Scenario configuration: topology, slice profile, tasks and workload.

Scenarios are YAML documents (see data/reference_calibrated.yaml). The packaged
reference-calibrated scenario carries link delays and per-node processing times
solved so the closed-form round trips reproduce the reference means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import yaml

from .errors import BadRequestError, ConfigInvalidError
from .images import ImageCatalogue, default_catalogue
from .netsim import Link, Node, NodeRole, Topology
from .offload import SyncMode
from .primitives import Operation
from .resources import ResourcePath
from .slicing import FunctionKind, LatencyClass, SliceProfile, function_from_name
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
    except ConfigInvalidError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"bad topology: {exc}") from exc


def _parse_processing(doc: dict, topology: Topology) -> dict[str, dict[Operation, float]]:
    """Role-level defaults overlaid with per-node entries."""
    table: dict[str, dict[Operation, float]] = {n: {} for n in topology.nodes}
    for key, ops in (doc or {}).items():
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
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigInvalidError(f"unparseable scenario: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalidError("scenario document must be a mapping")
    if topology_override is not None:
        doc = dict(doc)
        doc["topology"] = topology_override
    try:
        scenario = doc.get("scenario", {})
        topology = parse_topology(_require(doc, "topology", "scenario"))
        slice_doc = _require(doc, "slice", "scenario")
        functions = frozenset(
            function_from_name(n) for n in _require(slice_doc, "functions", "slice")
        )
        catalogue_doc = doc.get("catalogue", {})
        if "images" in catalogue_doc:
            catalogue = ImageCatalogue.load("\n".join(catalogue_doc["images"]))
        else:
            catalogue = default_catalogue()
        tasks = [
            TaskSpec(
                task_id=_require(t, "id", "task"),
                root=_require(t, "root", "task"),
                service=_require(t, "service", "task"),
            )
            for t in doc.get("tasks", [])
        ]
        workload = doc.get("workload", {})
        config = ScenarioConfig(
            name=scenario.get("name", "scenario"),
            seed=int(scenario.get("seed", 42)),
            requests=int(scenario.get("requests", 60)),
            payload_bytes=int(scenario.get("payload_bytes", 400)),
            modes=list(scenario.get("modes", ["cloud", "edge"])),
            topology=topology,
            processing=_parse_processing(doc.get("processing", {}), topology),
            service_id=_require(slice_doc, "service_id", "slice"),
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
            pre_seeded_cache=bool(catalogue_doc.get("pre_seeded", True)),
            link_accurate_pulls=bool(catalogue_doc.get("link_accurate_pulls", False)),
            tasks=tasks,
            workload_target=_require(workload, "target", "workload"),
            operations=list(workload.get("operations", ["create"])),
            prepopulate=int(workload.get("prepopulate", 5)),
        )
    except ConfigInvalidError:
        raise
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
    try:
        doc = yaml.safe_load(_read(path))
    except yaml.YAMLError as exc:
        raise ConfigInvalidError(f"unparseable topology file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalidError("topology file must be a mapping")
    return doc.get("topology", doc)


def load_scenario(path: str, topology_path: "str | None" = None) -> ScenarioConfig:
    override = load_topology_doc(topology_path) if topology_path else None
    return parse_scenario(_read(path), override)


def calibrated_text() -> str:
    return resources.files("edgeslice.data").joinpath("reference_calibrated.yaml").read_text()


def reference_calibrated(topology_path: "str | None" = None) -> ScenarioConfig:
    """The shipped calibration reproducing the reference latency means."""
    override = load_topology_doc(topology_path) if topology_path else None
    return parse_scenario(calibrated_text(), override)
