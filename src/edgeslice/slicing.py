"""Service function kinds, slice profiles, plans and instances."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

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


_ORDER = {f: f.value for f in FunctionKind}  # a dict read is cheaper than ``.value``


def port_for(function: FunctionKind) -> int:
    return BASE_PORT + _ORDER[function]


_FUNCTION_NAMES = {f.name.lower(): f for f in FunctionKind}


def function_from_name(name: str) -> FunctionKind:
    try:
        return _FUNCTION_NAMES[name.lower()]
    except KeyError:
        raise BadRequestError(f"unknown function kind {name!r}") from None


def ordered(functions: "frozenset[FunctionKind] | set[FunctionKind]") -> list[FunctionKind]:
    return sorted(functions, key=_ORDER.__getitem__)


class LatencyClass(Enum):
    NORMAL = "normal"
    MISSION_CRITICAL = "mission_critical"


class SliceState(Enum):
    INSTANTIATING = "instantiating"
    ACTIVE = "active"
    TERMINATING = "terminating"


class PlanDecision(Enum):
    FAST_PATH_OFFLOAD_ONLY = "fast_path_offload_only"
    INSTANTIATE_THEN_OFFLOAD = "instantiate_then_offload"


@dataclass(frozen=True)
class SliceProfile:
    """The function set and latency class one service demands."""

    service_id: str
    required_functions: frozenset[FunctionKind]
    latency_class: LatencyClass = LatencyClass.NORMAL

    def __post_init__(self):
        if not self.required_functions:
            raise BadRequestError("a slice profile requires at least one function")

    def to_pairs(self) -> tuple[tuple[str, str], ...]:
        return (
            ("svc", self.service_id),
            ("fn", ",".join(f.name.lower() for f in ordered(self.required_functions))),
            ("lc", self.latency_class.value),
        )

    @classmethod
    def from_pairs(cls, pairs: "Iterable[tuple[str, str]]") -> "SliceProfile":
        rec = dict(pairs)
        try:
            return cls(
                service_id=rec["svc"],
                required_functions=frozenset(function_from_name(n) for n in rec["fn"].split(",")),
                latency_class=LatencyClass(rec["lc"]),
            )
        except (KeyError, ValueError) as exc:
            raise BadRequestError(f"malformed slice profile: {exc!r}") from None


@dataclass(frozen=True)
class SlicingPlan:
    """Outcome of matching a service request against the running slices."""

    decision: PlanDecision
    target_slice: str
    missing_functions: frozenset[FunctionKind]

    def __post_init__(self):
        fast = self.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY
        if fast != (not self.missing_functions):
            raise BadRequestError("fast path plans must have no missing functions")

    def to_pairs(self) -> tuple[tuple[str, str], ...]:
        return (
            ("dec", self.decision.value),
            ("slc", self.target_slice),
            ("mf", ",".join(f.name.lower() for f in ordered(self.missing_functions))),
        )

    @classmethod
    def from_pairs(cls, pairs: "Iterable[tuple[str, str]]") -> "SlicingPlan":
        rec = dict(pairs)
        try:
            return cls(
                decision=PlanDecision(rec["dec"]),
                target_slice=rec["slc"],
                missing_functions=frozenset(
                    function_from_name(n) for n in rec["mf"].split(",") if n
                ),
            )
        except (KeyError, ValueError) as exc:
            raise BadRequestError(f"malformed slicing plan: {exc!r}") from None


@dataclass
class SliceInstance:
    """A running slice on one edge worker."""

    slice_id: str
    edge_node: str
    running_functions: dict[FunctionKind, int] = field(default_factory=dict)
    state: SliceState = SliceState.INSTANTIATING
