"""Service function kinds, slice profiles, plans and instances."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .codec import encode_body, read_line
from .errors import BadRequestError

BASE_PORT = 62590


class FunctionKind(Enum):
    """Common service functions a slice can be composed of.

    Declaration order fixes the port plan: port = 62590 + ordinal.
    """

    REGISTRATION = 0
    RETRIEVE = 1
    SUBSCRIPTION = 2
    NOTIFICATION = 3
    DATA_MANAGEMENT = 4
    DISCOVERY = 5

    # as ResourceKind: members compare by identity, so hash by identity, in C
    __hash__ = object.__hash__


class _ByName(dict):
    """Members by the name a body or a scenario spells. A name that names
    none is the sender's fault, so it raises ``BadRequestError``."""

    def __init__(self, what: str, members: dict):
        super().__init__(members)
        self.what = what

    def __missing__(self, name: str):
        raise BadRequestError(f"unknown {self.what} {name!r}")


# an enum's ``.name``, ``.value`` and ``FunctionKind[name]`` are Python-level
# calls; a read of these tables is a dict read
_ORDER = {f: f.value for f in FunctionKind}
FUNCTION_NAMES = {f: f.name for f in FunctionKind}
FUNCTION_BY_NAME = _ByName("function", {f.name: f for f in FunctionKind})
_LOWER_NAMES = {f: f.name.lower() for f in FunctionKind}


def port_for(function: FunctionKind) -> int:
    return BASE_PORT + _ORDER[function]


FUNCTION_BY_LOWER_NAME = _ByName("function kind", {f.name.lower(): f for f in FunctionKind})


def function_from_name(name: str) -> FunctionKind:
    return FUNCTION_BY_LOWER_NAME[name.lower()]


def ordered(functions: "frozenset[FunctionKind] | set[FunctionKind]") -> list[FunctionKind]:
    return sorted(functions, key=_ORDER.__getitem__)


class LatencyClass(Enum):
    NORMAL = "normal"
    MISSION_CRITICAL = "mission_critical"

    __hash__ = object.__hash__


class SliceState(Enum):
    INSTANTIATING = "instantiating"
    ACTIVE = "active"


class PlanDecision(Enum):
    FAST_PATH_OFFLOAD_ONLY = "fast_path_offload_only"
    INSTANTIATE_THEN_OFFLOAD = "instantiate_then_offload"

    __hash__ = object.__hash__


VALUES = {m: m.value for kind in (LatencyClass, PlanDecision) for m in kind}
LATENCY_CLASS_BY_VALUE = _ByName("latency class", {m.value: m for m in LatencyClass})


@dataclass(frozen=True)
class SliceProfile:
    """The function set and latency class one service demands; a
    SERVICE_REQUEST's body, on the wire one line of ``_KEYS``."""

    service_id: str
    required_functions: frozenset[FunctionKind]
    latency_class: LatencyClass = LatencyClass.NORMAL
    _KEYS = ("svc", "fn", "lc")

    def __post_init__(self):
        if not self.required_functions:
            raise BadRequestError("a slice profile requires at least one function")

    def to_bytes(self) -> bytes:
        names = ",".join(map(_LOWER_NAMES.__getitem__, ordered(self.required_functions)))
        return encode_body(zip(self._KEYS, (self.service_id, names, VALUES[self.latency_class])))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SliceProfile":
        service_id, names, latency_class = read_line(data, cls._KEYS, cls._KEYS)
        return cls(service_id, frozenset(map(function_from_name, names.split(","))),
                   LATENCY_CLASS_BY_VALUE[latency_class])


@dataclass(frozen=True)
class SlicingPlan:
    """Outcome of matching a service request against the running slices."""

    decision: PlanDecision
    target_slice: str
    missing_functions: frozenset[FunctionKind]  # empty on the fast path


@dataclass
class SliceInstance:
    """A running slice on one edge worker."""

    slice_id: str
    edge_node: str
    running_functions: dict[FunctionKind, int] = field(default_factory=dict)
    state: SliceState = SliceState.INSTANTIATING
