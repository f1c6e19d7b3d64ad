#!/usr/bin/env python3
"""Walkthrough: exporting a cloud task, grafting it onto an edge tree, and
keeping the retained mirror synchronized (eager and lazy flavours)."""
from edgeslice import (
    OffloadCoordinator,
    ResourceKind,
    ResourcePath,
    ResourceTree,
    Simulator,
    SyncMode,
    Task,
    import_bundle,
    make_bundle,
    subtrees_converged,
)
from edgeslice.offload import EdgeSyncInfo, create_sync_subscriptions, process_edge_events

P = ResourcePath.parse
sim = Simulator()  # one virtual clock for both trees, advanced by hand here

# cloud side: the car task lives under IN-CSE/Cars/CarA
cloud = ResourceTree("IN-CSE", sim.time)
cloud.create(P("IN-CSE"), ResourceKind.CONTAINER, "Cars")
cloud.create(P("IN-CSE/Cars"), ResourceKind.CONTAINER, "CarA")
cloud.create(P("IN-CSE/Cars/CarA"), ResourceKind.CONTAINER, "location")
cloud.create(P("IN-CSE/Cars/CarA/location"), ResourceKind.CONTENT_INSTANCE, "p0",
             content=b"lat=37.541,lon=126.986")
cloud.drain_events()

coordinator = OffloadCoordinator(cloud, sim.time)
task = Task("task-carA", "IN-CSE/Cars/CarA", "road-warning")

print("== export: the task subtree becomes an ordered bundle ==")
bundle = coordinator.export_task(task)
for line in bundle.encode().splitlines():
    print("  ", line)

print("\n== import: same grouping segments, new label, fresh ids ==")
edge = ResourceTree("MN-CSE", sim.time)
edge_root = import_bundle(edge, bundle)
print("grafted at:", edge_root)

print("\n== eager sync: every container gets a sync subscription ==")
# the edge subscribes under every container; the cloud records the binding
info = EdgeSyncInfo(task.task_id, edge_root, P(task.root), "cloud")
subs = create_sync_subscriptions(edge, info)
edge.drain_events()
coordinator.register_binding(task, SyncMode.EAGER, "gateway", edge_root)
print(f"{subs} subscriptions created; targets point at the mirror paths")

sim.now += 5.0
edge.create(P("MN-CSE/Cars/CarA/location"), ResourceKind.CONTENT_INSTANCE, "p1",
            content=b"lat=37.544,lon=126.990")
for notify in process_edge_events(edge, edge.drain_events(), [info]):
    print("  notify:", notify.body.change, notify.body.changed_path, "->", notify.target_path)
    print("  applied on mirror:", coordinator.apply_notification(notify))
    cloud.drain_events()
print("mirror converged:", subtrees_converged(cloud, P(task.root), edge, edge_root))

print("\n== cloud writes into an offloaded subtree are refused ==")
try:
    cloud.create(P("IN-CSE/Cars/CarA/location"), ResourceKind.CONTENT_INSTANCE, "px",
                 content=b"stale")
except Exception as exc:
    print("conflict:", exc)

print("\n== termination settles the binding and reopens the mirror ==")
snapshot = make_bundle(edge, edge_root, task.task_id, sim.now)
synced = coordinator.finalize(task.task_id, snapshot)
print(f"final sync touched {synced} resources (already converged)")

print("\n== the lazy flavour redirects reads instead ==")
task_b = Task("task-carB", "IN-CSE/Cars/CarB", "road-warning")
cloud.create(P("IN-CSE/Cars"), ResourceKind.CONTAINER, "CarB")
cloud.create(P("IN-CSE/Cars/CarB"), ResourceKind.CONTAINER, "location")
cloud.create(P("IN-CSE/Cars/CarB/location"), ResourceKind.CONTENT_INSTANCE, "q0", content=b"old")
cloud.drain_events()
bundle_b = coordinator.export_task(task_b)
edge_root_b = import_bundle(edge, bundle_b)
coordinator.register_binding(task_b, SyncMode.LAZY, "gateway", edge_root_b)
sim.now += 5.0
edge.create(P("MN-CSE/Cars/CarB/location"), ResourceKind.CONTENT_INSTANCE, "q1", content=b"fresh")
edge.drain_events()
hit = coordinator.redirect_for(P("IN-CSE/Cars/CarB/location/la"))
binding_b, remapped = hit
served = edge.resolve(remapped)
print("cloud retrieve of .../CarB/location/la redirects to", remapped)
print("application sees:", served.content.decode(), "(the mirror still holds only 'old')")
synced = coordinator.finalize(task_b.task_id, make_bundle(edge, edge_root_b, "task-carB", sim.now))
print(f"finalize synced {synced} resource(s); mirror now matches the edge")
