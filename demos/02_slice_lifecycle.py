#!/usr/bin/env python3
"""Walkthrough: slicing decisions and the function lifecycle on a worker.

A first service request instantiates exactly the missing functions; an
identical repeat takes the fast path. Crashing one microservice leaves the
others serving.
"""
from edgeslice import (
    EdgeWorker,
    FunctionKind,
    LatencyClass,
    ManualClock,
    Operation,
    RequestPrimitive,
    ResourceKind,
    ResourceTree,
    ServiceRequest,
    SliceOrchestrator,
    SliceProfile,
    default_catalogue,
)
from edgeslice.netsim import Link, Node, NodeRole, Topology

MB = 1_000_000

topology = Topology(
    [
        Node("sensor", NodeRole.DEVICE),
        Node("gateway", NodeRole.EDGE_WORKER),
        Node("cloud", NodeRole.CLOUD),
    ],
    [Link("sensor", "gateway", 1.0), Link("gateway", "cloud", 12.0)],
)
clock = ManualClock()
catalogue = default_catalogue()
orchestrator = SliceOrchestrator(topology, catalogue, clock=clock)
worker = EdgeWorker(
    "gateway", ResourceTree("MN-CSE", clock), capacity_bytes=4000 * MB, clock=clock
)
worker.cache.seed(catalogue)

profile = SliceProfile(
    "temperature-logging",
    frozenset({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT}),
    LatencyClass.NORMAL,
)
request = ServiceRequest("sensor", "temperature-logging", profile)

print("== first request: nothing runs yet ==")
plan = orchestrator.handle_service_request(request)
print("decision:", plan.decision.value)
print("missing:", sorted(f.name for f in plan.missing_functions))

instance, elapsed = orchestrator.instantiate_slice(
    plan, "gateway", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
)
orchestrator.record_slice_functions(plan.target_slice, plan.missing_functions)
print(f"instantiated in {elapsed:.0f} ms of virtual time (3 container starts)")
print("ports:", {f.name: p for f, p in sorted(instance.running_functions.items(), key=lambda kv: kv[1])})

print("\n== identical repeat: fast path, no new starts ==")
again = orchestrator.handle_service_request(request)
print("decision:", again.decision.value, "| missing:", set(again.missing_functions) or "none")

print("\n== the worker gates whatever its slice does not run ==")
sub_create = RequestPrimitive(
    operation=Operation.CREATE,
    to="MN-CSE",
    originator="sensor",
    request_id="r-sub",
    resource_kind=ResourceKind.SUBSCRIPTION,
    content=b"nm=watch;nt=cloud%7CIN-CSE/mirror",
)
response, _, _ = worker.dispatch(sub_create)
print("subscription create on a slice without SUBSCRIPTION ->", int(response.status))

print("\n== crash one microservice; the rest keep serving ==")
worker.dispatch(
    RequestPrimitive(Operation.CREATE, "MN-CSE", "sensor", "r-ae", ResourceKind.AE, b"nm=app")
)
duration = worker.begin_crash(FunctionKind.DATA_MANAGEMENT)
print(f"DATA_MANAGEMENT crashed; respawn takes {duration:.0f} ms")
ok, _, _ = worker.dispatch(RequestPrimitive(Operation.RETRIEVE, "MN-CSE/app", "sensor", "r-get"))
print("retrieve during the respawn ->", int(ok.status))
gated, _, _ = worker.dispatch(
    RequestPrimitive(Operation.DELETE, "MN-CSE/app", "sensor", "r-del")
)
print("delete (data management) during the respawn ->", int(gated.status))
clock.advance(duration)
worker.complete_start(FunctionKind.DATA_MANAGEMENT)
back, _, _ = worker.dispatch(
    RequestPrimitive(Operation.DELETE, "MN-CSE/app", "sensor", "r-del2")
)
print("after respawn ->", int(back.status))
