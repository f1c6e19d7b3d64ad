#!/usr/bin/env python3
"""Walkthrough: the service-layer resource tree.

Builds a gateway tree, stores sensed values as immutable content instances,
resolves the virtual latest-instance path, and watches a container through
a subscription.
"""
from edgeslice import (
    ManualClock,
    ResourceKind,
    ResourcePath,
    ResourceTree,
    match_subscriptions,
)

clock = ManualClock()
tree = ResourceTree("MN-CSE", clock)
root = ResourcePath.parse("MN-CSE")

print("== growing the tree ==")
tree.create(root, ResourceKind.AE, "thermostat-app")
tree.create(root.child("thermostat-app"), ResourceKind.CONTAINER, "temperature")
temperature = root.child("thermostat-app").child("temperature")
print("containers:", temperature)

print("\n== sensed values become content instances ==")
for hour, reading in enumerate([b"21.5C", b"21.7C", b"22.1C"]):
    clock.advance(60.0)
    path = tree.create(
        temperature, ResourceKind.CONTENT_INSTANCE, f"t{hour}", content=reading
    )
    print(f"  stored {reading.decode():>6} at {path} (t={clock():.0f} ms)")

latest = tree.resolve(ResourcePath.parse("MN-CSE/thermostat-app/temperature/la"))
print("latest via /la:", latest.name, "=", latest.content.decode())

print("\n== instances are write-once ==")
try:
    tree.update(temperature.child("t2"), labels=["edited"])
except Exception as exc:
    print("update rejected:", exc)

print("\n== subscriptions observe a container's children ==")
tree.create(
    temperature,
    ResourceKind.SUBSCRIPTION,
    "watcher",
    notification_target=("monitoring-app", "APP/alerts"),
)
tree.drain_events()
clock.advance(60.0)
tree.create(temperature, ResourceKind.CONTENT_INSTANCE, "t3", content=b"23.0C")
for event in tree.drain_events():
    for notify in match_subscriptions(tree, event):
        print(
            f"  notify -> node={notify.target_node} path={notify.target_path}"
            f" change={notify.change} value={notify.resource.content.decode()}"
        )

print("\n== the whole tree round-trips through its textual form ==")
dump = tree.serialize()
print(f"serialized to {len(dump)} bytes; first record line:")
print(" ", dump.splitlines()[1])
restored = ResourceTree.deserialize(dump)
print("deep-equal after restore:", restored.serialize() == dump)
