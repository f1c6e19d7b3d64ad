"""Scenario configuration: topology, slice profile, tasks and workload.

Scenarios are YAML documents (see data/reference_calibrated.yaml). The packaged
reference-calibrated scenario carries link delays and per-node processing times
solved so the closed-form round trips reproduce the reference means.

A document is read through one key table, ``_KEYS``; a key it leaves out keeps
its ``ScenarioConfig`` or ``Link`` default (the quota's is ``DEFAULT_QUOTA``).
A scenario text is parsed and checked once per process, in a bounded cache
(``_loaded``, ``_parsed``); a file is read again on every load. Configs from
one text share only their immutable ``Topology`` and its routes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from importlib import resources

import yaml

from .errors import BadRequestError, ConfigInvalidError, ImageNotFoundError
from .images import ImageCatalogue, default_catalogue
from .netsim import Link, Node, NodeRole, Topology
from .offload import SyncMode, Task
from .primitives import Operation
from .resources import ResourcePath
from .slicing import (FUNCTION_BY_LOWER_NAME, LATENCY_CLASS_BY_VALUE, FunctionKind, LatencyClass,
                      SliceProfile, ordered)
from .worker import ResourceQuota

_ROLE_NAMES = {role.value: role for role in NodeRole}
_OP_NAMES = {op.name.lower(): op for op in Operation if op <= Operation.NOTIFY}  # the data plane

MODES = ("cloud", "edge")
DEFAULT_QUOTA = ResourceQuota(256_000_000, 0.25)

# libyaml's parser where PyYAML has it: the same documents, several times faster
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Every mapping of a scenario document: its keys and each key's YAML type,
# "required " first where the mapping must give the key. A type is a scalar
# (str, int, float, bool), a str naming a member of a ``_NAMES`` table, another
# mapping of this table, "list of T", or "mapping of T" for free keys
# (processing's node ids and role names).
_KEYS = {
    "document": {"scenario": "scenario", "topology": "required topology",
                 "processing": "mapping of costs", "slice": "required slice",
                 "catalogue": "catalogue", "tasks": "list of task", "workload": "required workload"},
    "scenario": {"name": "str", "seed": "int", "requests": "int", "payload_bytes": "int",
                 "modes": "list of str"},
    "topology": {"nodes": "required list of node", "links": "required list of link"},
    "node": {"id": "required str", "role": "required role"},
    "link": {"a": "required str", "b": "required str", "delay_ms": "required float",
             "jitter_ms": "float", "bandwidth_bytes_per_s": "float"},
    "costs": dict.fromkeys(_OP_NAMES, "float"),
    "slice": {"service_id": "required str", "functions": "required list of function",
              "latency_class": "latency class", "sync_mode": "sync mode", "start_delay_ms": "float",
              "capacity_bytes": "int", "quota_memory_bytes": "int", "quota_cpu_share": "float"},
    "catalogue": {"images": "list of str", "pre_seeded": "bool"},
    "task": {"id": "required str", "root": "required str", "service": "required str"},
    "workload": {"target": "required str", "operations": "list of str", "prepopulate": "int"},
}
_SCALARS = {"str": (str,), "int": (int,), "float": (int, float, str), "bool": (bool,)}
_NAMES = {"role": _ROLE_NAMES, "function": FUNCTION_BY_LOWER_NAME, "latency class": LATENCY_CLASS_BY_VALUE,
          "sync mode": {m.value: m for m in SyncMode}}


def _check(value, kind: str, path: str):
    """``value`` read as a ``kind`` of the key table, at key path ``path``: new
    mappings and lists, with floats as floats and names as their members."""
    scalar = "str" if kind in _NAMES else kind
    if scalar in _SCALARS:
        if type(value) not in _SCALARS[scalar]:
            article = "an" if scalar == "int" else "a"
            raise ConfigInvalidError(f"{path} must be {article} {scalar}, not {type(value).__name__}")
        if kind in _NAMES:
            if value not in _NAMES[kind]:
                raise ConfigInvalidError(f"{path}: unknown {kind} {value!r}")
            return _NAMES[kind][value]
        if kind != "float":
            return value
        try:  # an int, a float or a numeric string: YAML 1.1 reads 100e6 as a string
            return float(value)
        except (ValueError, OverflowError):
            raise ConfigInvalidError(f"{path} must be a float, not {value!r}") from None
    if kind.startswith("list of "):
        if type(value) is not list:
            raise ConfigInvalidError(f"{path} must be a list, not {type(value).__name__}")
        return [_check(item, kind[8:], f"{path}[{i}]") for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{path} must be a mapping")
    prefix = f"{path}." if path else ""
    if kind.startswith("mapping of "):
        return {key: _check(item, kind[11:], f"{prefix}{key}")
                for key, item in value.items() if item is not None}
    keys = _KEYS[kind]
    for key in value:
        if key not in keys:
            raise ConfigInvalidError(f"unknown key {prefix}{key}")
    checked = {}
    for key, key_kind in keys.items():
        item = value.get(key)  # a null value reads as absent
        if item is not None:
            checked[key] = _check(item, key_kind.removeprefix("required "), prefix + key)
        elif key_kind.startswith("required "):
            raise ConfigInvalidError(f"missing key {prefix}{key}")
        elif key_kind in _KEYS or key_kind.startswith("mapping of "):
            checked[key] = _check({}, key_kind, prefix + key)  # an absent section reads as empty
    return checked


def _load_mapping(text: str, what: str, document: str) -> dict:
    try:
        doc = yaml.load(text, Loader=LOADER)
    except yaml.YAMLError as exc:
        raise ConfigInvalidError(f"unparseable {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalidError(f"{document} must be a mapping")
    return doc


@dataclass(kw_only=True)
class ScenarioConfig:
    name: str = "scenario"
    topology: Topology
    processing: dict[str, dict[Operation, float]]  # node id -> op -> ms
    service_id: str
    functions: frozenset[FunctionKind]
    sync_mode: SyncMode = SyncMode.EAGER
    tasks: list[Task] = field(default_factory=list)
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
    quota: ResourceQuota = DEFAULT_QUOTA
    catalogue: ImageCatalogue = field(default_factory=default_catalogue)
    pre_seeded_cache: bool = True

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
        if self.prepopulate < 0:
            raise ConfigInvalidError("prepopulate must be >= 0")
        if self.capacity_bytes <= 0:
            raise ConfigInvalidError("capacity_bytes must be positive")
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
        if not self.modes or not self.operations:
            raise ConfigInvalidError("a scenario needs at least one mode and one workload operation")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigInvalidError(f"unknown mode {mode!r}")
        for op in self.operations:
            if op not in ("create", "retrieve"):
                raise ConfigInvalidError(f"unsupported workload operation {op!r}")
        for what, listed in (("mode", self.modes), ("workload operation", self.operations)):
            repeated = [value for i, value in enumerate(listed) if value in listed[:i]]
            if repeated:
                raise ConfigInvalidError(f"{what} {repeated[0]!r} is listed more than once")
        if not self.topology.is_connected():
            raise ConfigInvalidError("topology must be connected")
        if len(self.topology.by_role(NodeRole.CLOUD)) != 1:
            raise ConfigInvalidError("topology needs exactly one cloud node")
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


def _parse_processing(doc: dict, topology: Topology) -> dict[str, dict[Operation, float]]:
    """Role-level defaults overlaid with per-node entries, whatever their
    order in the document."""
    table: dict[str, dict[Operation, float]] = {n: {} for n in topology.nodes}
    for key, costs in sorted(doc.items(), key=lambda entry: entry[0] not in _ROLE_NAMES):
        if key in _ROLE_NAMES:
            nodes = topology.by_role(_ROLE_NAMES[key])
        elif key in table:
            nodes = [key]
        else:
            raise ConfigInvalidError(f"processing.{key} names no node or role")
        for node in nodes:
            table[node].update({_OP_NAMES[op]: ms for op, ms in costs.items()})
    return table


# the config fields that keys of the slice, catalogue and workload name otherwise
_FIELDS = {"quota_memory_bytes": "max_memory_bytes", "quota_cpu_share": "max_cpu_share",
           "images": "catalogue", "pre_seeded": "pre_seeded_cache", "target": "workload_target"}


def _build_scenario(doc: dict, topology: Topology) -> ScenarioConfig:
    """A config on ``topology`` from a checked document, passed only the keys
    the document gives. The document is only read, and the config holds none
    of its lists or dicts."""
    fields = {_FIELDS[key] if key in _FIELDS else key: value.copy() if type(value) is list else value
              for section in ("scenario", "slice", "catalogue", "workload")
              for key, value in doc[section].items()}
    fields["functions"] = frozenset(fields["functions"])
    quota = {name: fields.pop(name) for name in ("max_memory_bytes", "max_cpu_share") if name in fields}
    try:
        if quota:
            fields["quota"] = replace(DEFAULT_QUOTA, **quota)
        if "catalogue" in fields:
            fields["catalogue"] = ImageCatalogue.load("\n".join(fields["catalogue"]))
    except BadRequestError as exc:
        raise ConfigInvalidError(f"bad slice quota or catalogue: {exc}") from exc
    if "tasks" in doc:
        fields["tasks"] = [Task(t["id"], t["root"], t["service"]) for t in doc["tasks"]]
    return ScenarioConfig(
        topology=topology, processing=_parse_processing(doc["processing"], topology), **fields
    )


def _topology(doc: dict) -> Topology:
    return Topology([Node(**node) for node in doc["nodes"]], [Link(**link) for link in doc["links"]])


# Both caches hold the texts read last; a text refused is refused on every call.
@functools.lru_cache(maxsize=16)
def _loaded(text: str) -> dict:
    """A scenario text as YAML reads it; it is only read from here on."""
    return _load_mapping(text, "scenario", "scenario document")


@functools.lru_cache(maxsize=16)
def _parsed(text: str) -> tuple[dict, Topology]:
    """A scenario text's checked document and the topology built from it."""
    doc = _check(_loaded(text), "document", "")
    return doc, _topology(doc["topology"])


def parse_scenario(text: str, topology_override: "dict | None" = None) -> ScenarioConfig:
    """A fresh config. A topology override replaces the text's own section
    before the document is checked, on every call."""
    if topology_override is None:
        return _build_scenario(*_parsed(text))
    doc = _check({**_loaded(text), "topology": topology_override}, "document", "")
    return _build_scenario(doc, _topology(doc["topology"]))


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
    doc = doc["topology"] if "topology" in doc else doc
    if not isinstance(doc, dict):  # a null section would read as no override at all
        raise ConfigInvalidError("topology must be a mapping")
    return doc


def load_scenario(path: str, topology_path: "str | None" = None) -> ScenarioConfig:
    """Read on every call, so that an edited file is parsed again."""
    override = load_topology_doc(topology_path) if topology_path else None
    return parse_scenario(_read(path), override)


@functools.cache
def calibrated_text() -> str:
    return resources.files("edgeslice.data").joinpath("reference_calibrated.yaml").read_text()


def reference_calibrated(topology_path: "str | None" = None) -> ScenarioConfig:
    """The shipped calibration reproducing the reference latency means, read
    from the package once per process."""
    override = load_topology_doc(topology_path) if topology_path else None
    return parse_scenario(calibrated_text(), override)
