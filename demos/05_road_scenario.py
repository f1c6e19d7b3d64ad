#!/usr/bin/env python3
"""Walkthrough: the crosswalk road scenario, end to end over the simulator.

A car entering the smart city requests the warning service; the cloud slices
the needed functions onto the gateway, offloads the car and pedestrian tasks,
and the car's retrieves are then served next to the road.
"""
from edgeslice import run_road_scenario
from edgeslice.bench import mean_rtt
from edgeslice.resources import ResourcePath

report = run_road_scenario(seed=42)

print("== assertion report ==")
for name, passed, detail in report.assertions:
    mark = "ok " if passed else "FAIL"
    line = f"  [{mark}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)

print("\n== final edge tree (gateway) ==")
tree = report.system.edges["edge0"].worker.tree


def show(path, depth=0):
    node = tree.resolve(path)
    extra = ""
    if node.content is not None:
        extra = f"  [{node.content.decode(errors='replace')[:24]}]"
    print("    " + "  " * depth + f"{node.name}{extra}")
    for child in tree.children(node.id):
        show(path.child(child.name), depth + 1)


show(ResourcePath.parse("MN-CSE"))

edge_mean = mean_rtt(report.samples, "edge", "retrieve")
cloud_mean = mean_rtt(report.samples, "cloud", "retrieve")
print(f"\npedestrian-location retrieves: edge {edge_mean:.2f} ms vs cloud {cloud_mean:.2f} ms")
print("verdict:", "all assertions hold" if report.ok else "ASSERTIONS FAILED")
