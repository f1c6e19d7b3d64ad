"""Slice orchestration: request matching, edge selection, the slice registry.

The cloud-side management entities and the edge-resident request handler
collapse into one orchestrator object with two views: the registry (what is
actually running, per worker) and the handler view (what the request matcher
believes is running). A service request only takes the fast path when the
handler view already covers its profile.

The orchestrator only decides and records. Pulling and starting the missing
functions, with rollback on failure, is the edge node's job, and termination
is the cloud node's; both live in ``system``.
"""
from __future__ import annotations

from typing import Callable

from .errors import NoEdgeAvailableError, NoRouteError, UnknownSliceError
from .netsim import NodeRole, Topology
from .slicing import (
    FUNCTION_NAMES,
    VALUES,
    FunctionKind,
    PlanDecision,
    SliceInstance,
    SliceProfile,
    SliceState,
    SlicingPlan,
    ordered,
)


class SliceOrchestrator:
    def __init__(self, topology: Topology, *, clock: Callable[[], float] | None = None):
        self.topology = topology
        self._clock = clock or (lambda: 0.0)
        self.registry: dict[str, SliceInstance] = {}
        # the handler view: per edge, the functions the request matcher counts as running
        self._matcher_view: dict[str, set[FunctionKind]] = {}
        self.decision_log: list[dict] = []

    # --- naming ---

    @staticmethod
    def slice_id_for(edge: str) -> str:
        return f"slice-{edge}"

    @staticmethod
    def edge_of(slice_id: str) -> str:
        if not slice_id.startswith("slice-"):
            raise UnknownSliceError(f"malformed slice id {slice_id!r}")
        return slice_id[len("slice-"):]

    # --- decisions ---

    def select_edge_node(self, device: str) -> str:
        """Closest edge by one-way delay; ties by load, then node id."""
        candidates = []
        for edge in self.topology.by_role(NodeRole.EDGE_WORKER):
            try:
                delay = self.topology.path_delay_ms(device, edge)
            except NoRouteError:
                continue
            load = sum(
                1
                for inst in self.registry.values()
                if inst.edge_node == edge and inst.state is SliceState.ACTIVE
            )
            candidates.append((delay, load, edge))
        if not candidates:
            raise NoEdgeAvailableError(f"no edge worker reachable from {device!r}")
        return min(candidates)[2]

    def handle_service_request(self, device: str, profile: SliceProfile) -> SlicingPlan:
        """Pure decision for ``device``'s request of ``profile``: fast path
        iff the selected edge already covers the profile with an active slice."""
        edge = self.select_edge_node(device)
        slice_id = self.slice_id_for(edge)
        instance = self.registry.get(slice_id)
        view = self._matcher_view.get(edge, set())
        required = profile.required_functions
        if (
            instance is not None
            and instance.state is SliceState.ACTIVE
            and required <= view
        ):
            plan = SlicingPlan(PlanDecision.FAST_PATH_OFFLOAD_ONLY, slice_id, frozenset())
        else:
            plan = SlicingPlan(
                PlanDecision.INSTANTIATE_THEN_OFFLOAD,
                slice_id,
                frozenset(required - view),
            )
        self.decision_log.append(
            {
                "ts": self._clock(),
                "service": profile.service_id,
                "device": device,
                "edge": edge,
                "latency_class": VALUES[profile.latency_class],
                "decision": VALUES[plan.decision],
                "missing": [FUNCTION_NAMES[f] for f in ordered(plan.missing_functions)],
            }
        )
        return plan

    # --- instantiation records ---

    def ensure_instance(self, slice_id: str, edge: str) -> SliceInstance:
        instance = self.registry.get(slice_id)
        if instance is None:
            instance = SliceInstance(slice_id=slice_id, edge_node=edge)
            self.registry[slice_id] = instance
        return instance

    def mark_active(self, slice_id: str, started: dict[FunctionKind, int]) -> SliceInstance:
        instance = self.registry.get(slice_id)
        if instance is None:
            raise UnknownSliceError(slice_id)
        instance.running_functions.update(started)
        instance.state = SliceState.ACTIVE
        return instance

    def record_slice_functions(
        self, slice_id: str, newly_started: "set[FunctionKind] | frozenset[FunctionKind]"
    ) -> SliceInstance:
        """Step the handler view forward so identical requests fast-path."""
        instance = self.registry.get(slice_id)
        if instance is None:
            raise UnknownSliceError(slice_id)
        self._matcher_view.setdefault(instance.edge_node, set()).update(newly_started)
        return instance

    # --- teardown ---

    def forget_slice(self, slice_id: str) -> None:
        """Drop registry and handler-view entries (worker already stopped)."""
        instance = self.registry.pop(slice_id, None)
        if instance is not None:
            self._matcher_view.pop(instance.edge_node, None)
