"""Edge worker: hosts function instances and gates the data plane.

Every incoming primitive maps to one service function; the worker only
executes it while that function is running, otherwise it answers
FunctionNotEnabled. Function starts, stops, crashes and respawns are
explicit lifecycle transitions with virtual-time durations.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable

from .codec import decode_b64, decode_body, decode_labels, decode_target, encode_body, encode_resource
from .errors import (
    AlreadyRunningError,
    BadRequestError,
    EdgeSliceError,
    ImageNotCachedError,
    NotFoundError,
    NotRunningError,
    WorkerQuotaExceededError,
)
from .images import FunctionImage, WorkerCache
from .netsim import is_full_trace
from .primitives import (
    OPERATION_NAMES,
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    error_response,
)
from .resources import ChangeEvent, ResourceKind, ResourcePath, ResourceTree
from .slicing import FUNCTION_NAMES, FunctionKind, port_for


@dataclass(frozen=True)
class ResourceQuota:
    max_memory_bytes: int
    max_cpu_share: float

    def __post_init__(self):
        if self.max_memory_bytes <= 0:
            raise BadRequestError("memory quota must be positive")
        if not 0 < self.max_cpu_share <= 1:
            raise BadRequestError("cpu share must be in (0, 1]")


class InstanceState(Enum):
    STARTING = "starting"
    RUNNING = "running"
    CRASHED = "crashed"
    STOPPED = "stopped"


@dataclass
class FunctionInstance:
    function: FunctionKind
    port: int
    state: InstanceState
    quota: ResourceQuota
    started_at: float | None = None


_MEMORY = attrgetter("quota.max_memory_bytes")  # of a FunctionInstance

# Create routing depends on the created kind; everything else on the target.
_CREATE_FUNCTION = {
    ResourceKind.CSE_BASE: FunctionKind.REGISTRATION,
    ResourceKind.AE: FunctionKind.REGISTRATION,
    ResourceKind.CONTAINER: FunctionKind.REGISTRATION,
    ResourceKind.CONTENT_INSTANCE: FunctionKind.DATA_MANAGEMENT,
    ResourceKind.SUBSCRIPTION: FunctionKind.SUBSCRIPTION,
}


class EdgeWorker:
    """Container-runner owning one service-layer tree.

    ``processing_ms`` maps data-plane operations to the virtual time the
    serving function consumes; the caller schedules the response that far
    in the future. ``log`` holds lifecycle transitions and refused
    dispatches; at ``trace="full"`` also every executed dispatch.
    """

    def __init__(
        self,
        node_id: str,
        tree: ResourceTree,
        *,
        capacity_bytes: int,
        start_delay_ms: float = 250.0,
        clock: Callable[[], float] | None = None,
        processing_ms: dict[Operation, float] | None = None,
        trace: str = "control",
    ):
        self.node_id = node_id
        self.tree = tree
        self.capacity_bytes = capacity_bytes
        self.start_delay_ms = start_delay_ms
        self._clock = clock or (lambda: 0.0)
        self.processing_ms = dict(processing_ms or {})
        self.cache = WorkerCache(worker=node_id)
        self.functions: dict[FunctionKind, FunctionInstance] = {}
        self.log: list[dict] = []
        self._log_executed = is_full_trace(trace)

    def _log(self, action: str, **fields) -> None:
        self.log.append({"ts": self._clock(), "action": action, **fields})

    # --- lifecycle ---

    def reserved_memory(self) -> int:
        return sum(map(_MEMORY, self.functions.values()))

    def begin_start(self, image: FunctionImage, quota: ResourceQuota) -> FunctionInstance:
        """Admit a function start; it becomes running after start_delay_ms."""
        if not self.cache.has(image):
            raise ImageNotCachedError(
                f"image {image.image_id!r} is not cached on {self.node_id!r}"
            )
        if image.function in self.functions:
            raise AlreadyRunningError(
                f"{image.function.name} already hosted on {self.node_id!r}"
            )
        if self.reserved_memory() + quota.max_memory_bytes > self.capacity_bytes:
            raise WorkerQuotaExceededError(
                f"{self.node_id!r} cannot reserve {quota.max_memory_bytes} more bytes"
            )
        instance = FunctionInstance(
            function=image.function,
            port=port_for(image.function),
            state=InstanceState.STARTING,
            quota=quota,
        )
        self.functions[image.function] = instance
        # a dict literal: ``_log``'s keyword arguments cost a dict more
        self.log.append({"ts": self._clock(), "action": "start_begin",
                         "function": FUNCTION_NAMES[image.function], "port": instance.port})
        return instance

    def complete_start(self, function: FunctionKind) -> FunctionInstance:
        instance = self.functions[function]
        instance.state = InstanceState.RUNNING
        instance.started_at = self._clock()
        self.log.append({"ts": instance.started_at, "action": "start_complete",
                         "function": FUNCTION_NAMES[function], "port": instance.port})
        return instance

    def stop_function(self, function: FunctionKind) -> None:
        if function not in self.functions:
            raise NotRunningError(f"{function.name} is not hosted on {self.node_id!r}")
        del self.functions[function]
        self._log("stop", function=function.name)

    def begin_crash(self, function: FunctionKind) -> float:
        """Crash one function; returns the respawn duration.

        The instance passes through crashed straight into a fresh start; the
        caller schedules complete_start after the returned duration. Other
        functions are untouched.
        """
        instance = self.functions.get(function)
        if instance is None or instance.state is not InstanceState.RUNNING:
            raise NotRunningError(f"{function.name} is not running on {self.node_id!r}")
        instance.state = InstanceState.CRASHED
        self._log("crash", function=function.name)
        instance.state = InstanceState.STARTING
        instance.started_at = None
        self._log("respawn_begin", function=function.name)
        return self.start_delay_ms

    def enabled(self, function: FunctionKind) -> bool:
        instance = self.functions.get(function)
        return instance is not None and instance.state is InstanceState.RUNNING

    def running_functions(self) -> dict[FunctionKind, int]:
        return {
            fn: inst.port
            for fn, inst in self.functions.items()
            if inst.state is InstanceState.RUNNING
        }

    # --- data plane ---

    def required_function(self, req: RequestPrimitive) -> FunctionKind:
        """Which service function gates this primitive."""
        op = req.operation
        if op is Operation.CREATE:
            kind = req.resource_kind
            if kind is None:
                raise BadRequestError("create requires a resource kind")
            return _CREATE_FUNCTION[kind]
        if op is Operation.RETRIEVE:
            return FunctionKind.RETRIEVE
        if op is Operation.NOTIFY:
            return FunctionKind.NOTIFICATION
        if op in (Operation.UPDATE, Operation.DELETE):
            try:
                target = self.tree.resolve(ResourcePath.parse(req.to))
            except NotFoundError:
                return FunctionKind.DATA_MANAGEMENT
            if target.kind is ResourceKind.SUBSCRIPTION:
                return FunctionKind.SUBSCRIPTION
            return FunctionKind.DATA_MANAGEMENT
        raise BadRequestError(f"{op.name} is not a data-plane operation")

    def dispatch(
        self, req: RequestPrimitive
    ) -> tuple[ResponsePrimitive, list[ChangeEvent], float]:
        """Gate and execute one primitive against the local tree.

        Returns the response, the change events the execution produced, and
        the processing time the serving function consumed.
        """
        try:
            function = self.required_function(req)
        except BadRequestError as exc:
            self._log("dispatch", op=req.operation.name, status="bad_request")
            return error_response(req.request_id, exc), [], 0.0
        if not self.enabled(function):
            self._log(
                "dispatch", op=req.operation.name, function=function.name, status="gated"
            )
            return (
                ResponsePrimitive(req.request_id, StatusCode.FUNCTION_NOT_ENABLED),
                [],
                0.0,
            )
        try:
            response = self._execute(req)
        except EdgeSliceError as exc:
            response = error_response(req.request_id, exc)
        events = self.tree.drain_events()
        if self._log_executed:
            self._log("dispatch", op=OPERATION_NAMES[req.operation], function=FUNCTION_NAMES[function],
                      status=int(response.status), to=req.to)
        return response, events, self.processing_ms.get(req.operation, 0.0)

    def _execute(self, req: RequestPrimitive) -> ResponsePrimitive:
        op = req.operation
        if op is Operation.CREATE:
            return self._execute_create(req)
        if op is Operation.RETRIEVE:
            path = ResourcePath.parse(req.to)
            resource = self.tree.resolve(path)
            record = encode_resource(resource, self.tree.path_of(resource))
            return ResponsePrimitive(req.request_id, StatusCode.OK, record)
        if op is Operation.UPDATE:
            return self._execute_update(req)
        if op is Operation.DELETE:
            count = self.tree.delete(ResourcePath.parse(req.to))
            body = encode_body([("count", str(count))])
            return ResponsePrimitive(req.request_id, StatusCode.OK, body)
        if op is Operation.NOTIFY:
            return ResponsePrimitive(req.request_id, StatusCode.OK)
        raise BadRequestError(f"unsupported operation {op.name}")

    def _execute_create(self, req: RequestPrimitive) -> ResponsePrimitive:
        if req.content is None:
            raise BadRequestError("create requires a resource representation")
        rec = decode_body(req.content)
        self.tree.create(
            ResourcePath.parse(req.to),
            req.resource_kind,  # type: ignore[arg-type]
            rec.get("nm"),
            content=decode_b64(rec["pc"]) if "pc" in rec else None,
            notification_target=decode_target(rec["nt"]) if "nt" in rec else None,
            labels=decode_labels(rec["lb"]) if rec.get("lb") else None,
        )
        event = self.tree.last_event  # create's: the node it made, as it made it
        record = encode_resource(event.resource, event.path)
        return ResponsePrimitive(req.request_id, StatusCode.CREATED, record)

    def _execute_update(self, req: RequestPrimitive) -> ResponsePrimitive:
        path = ResourcePath.parse(req.to)
        patch = decode_body(req.content)
        current = self.tree.resolve(path)
        if "ty" in patch and patch["ty"] != str(current.kind.value):
            raise BadRequestError("resource kind cannot be changed")
        if "pc" in patch:
            raise BadRequestError("content cannot be updated")
        labels = None
        if "lb" in patch:
            labels = decode_labels(patch["lb"]) if patch["lb"] else ()
        updated = self.tree.update(
            path,
            name=patch.get("nm"),
            labels=labels,
            notification_target=decode_target(patch["nt"]) if "nt" in patch else None,
        )
        record = encode_resource(updated, self.tree.path_of(updated))
        return ResponsePrimitive(req.request_id, StatusCode.OK, record)
