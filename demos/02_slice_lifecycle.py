#!/usr/bin/env python3
"""Walkthrough: slicing decisions and the function lifecycle on a worker.

A first service request instantiates exactly the missing functions on the
edge gateway; an identical repeat takes the fast path. Both travel over the
simulated network between device, edge and cloud. Crashing one
microservice leaves the others serving.
"""
from dataclasses import replace

from edgeslice import (
    FunctionKind,
    Operation,
    RequestPrimitive,
    ResourceKind,
    System,
    reference_calibrated,
)

config = replace(
    reference_calibrated(),
    functions=frozenset(
        {FunctionKind.REGISTRATION, FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT}
    ),
)
system = System(config, "edge", seed=42)
edge = system.edge_for(system.device_id)
worker = system.edges[edge].worker
orchestrator = system.cloud.orchestrator


def starts() -> int:
    return sum(1 for entry in worker.log if entry["action"] == "start_begin")


print("== first request: nothing runs yet ==")
system.prepare()
decision = orchestrator.decision_log[-1]
print("decision:", decision["decision"])
print("missing:", decision["missing"])
print(f"ready after {system.sim.now:.1f} ms of virtual time ({starts()} container starts)")
instance = orchestrator.registry[orchestrator.slice_id_for(edge)]
print("ports:", {f.name: p for f, p in sorted(instance.running_functions.items(), key=lambda kv: kv[1])})

print("\n== identical repeat: fast path, no new starts ==")
before = starts()
system.prepare()
decision = orchestrator.decision_log[-1]
print("decision:", decision["decision"], "| missing:", decision["missing"] or "none")
print("new container starts:", starts() - before)

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
worker.complete_start(FunctionKind.DATA_MANAGEMENT)
back, _, _ = worker.dispatch(
    RequestPrimitive(Operation.DELETE, "MN-CSE/app", "sensor", "r-del2")
)
print("after respawn ->", int(back.status))
