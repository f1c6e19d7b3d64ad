"""Benchmarks: the cloud-vs-edge latency runs, slice preparation timing and
the road scenario. Every runner returns its samples, the road scenario's in
a ``RoadReport``; a mean or a ratio is a ``mean_rtt`` call where it is printed.

Each measured mode runs in its own freshly-built simulated deployment; a
fixed seed derivation keeps multi-mode runs reproducible.
"""
from __future__ import annotations

import statistics
from dataclasses import replace
from typing import NamedTuple

from .errors import ConfigInvalidError, EdgeSliceError
from .netsim import LatencySample
from .offload import Task, subtrees_converged
from .resources import ResourceKind, ResourcePath
from .scenario import ScenarioConfig, reference_calibrated
from .system import System

MODE_SEED_OFFSET = {"cloud": 0, "edge": 1_000_003}


def derive_seed(seed: int, mode: str, repetition: int = 0) -> int:
    if mode not in MODE_SEED_OFFSET:
        raise ConfigInvalidError(f"unknown mode {mode!r}")
    return seed + MODE_SEED_OFFSET[mode] + 7 * repetition


def build_system(config: ScenarioConfig, mode: str, seed: int, repetition: int = 0) -> System:
    return System(config, mode, derive_seed(seed, mode, repetition))


def run_benchmark(config: ScenarioConfig, operation: str) -> list[LatencySample]:
    """Full pipeline per mode of the config: service preparation (edge),
    then the config's requests, sequential and measured at the device."""
    samples: list[LatencySample] = []
    for mode in config.modes:
        system = build_system(config, mode, config.seed)
        system.prepare()
        samples.extend(system.run_workload(operation, config.requests))
    return samples


def mean_rtt(samples: list[LatencySample], mode: str, operation: str) -> float:
    values = [s.rtt_ms for s in samples if s.mode == mode and s.operation == operation]
    if not values:
        raise ConfigInvalidError(f"no samples for mode={mode} operation={operation}")
    return statistics.fmean(values)


def preparation_time_ms(system: System) -> float:
    """First service-request arrival at an edge to the latest offload import,
    read from the control-plane milestones of the trace."""
    arrivals = [e["ts"] for e in system.sim.trace if e["kind"] == "service_request_arrival"]
    imports = [e["ts"] for e in system.sim.trace if e["kind"] == "offload_import_complete"]
    if not arrivals or not imports:
        raise ConfigInvalidError("preparation trace incomplete")
    return imports[-1] - arrivals[0]


def run_preparation_timing(config: ScenarioConfig, repetitions: int) -> list[LatencySample]:
    """Service-request arrival to offload-import completion, fresh deployment
    per repetition, with the config's image-cache seeding."""
    if repetitions <= 0:
        raise ConfigInvalidError("repetitions must be positive")
    samples = []
    for rep in range(repetitions):
        system = build_system(config, "edge", config.seed, repetition=rep)
        system.prepare()
        samples.append(
            LatencySample(
                scenario=config.name,
                mode="edge",
                operation="prepare",
                request_index=rep,
                rtt_ms=preparation_time_ms(system),
            )
        )
    return samples


# --- the crosswalk road scenario ---

#: retrieves the car makes of the pedestrian's position, on each path
ROAD_RETRIEVES = 20


class RoadReport(NamedTuple):
    assertions: list[tuple[str, bool, str]]
    samples: list[LatencySample]
    system: System  # final deployment state, for inspection

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.assertions)


def road_config() -> ScenarioConfig:
    """Calibrated network, two cloud tasks (a car and a pedestrian)."""
    config = reference_calibrated()
    return replace(
        config,
        name="road-scenario",
        tasks=[
            Task("task-carA", "IN-CSE/Cars/CarA", "road-warning"),
            Task("task-citizenA", "IN-CSE/Pedestrians/CitizenA", "road-warning"),
        ],
        workload_target="IN-CSE/Cars/CarA/location",
        populate=[
            ("IN-CSE/Cars/CarA/location", 2),
            ("IN-CSE/Pedestrians/CitizenA/location", 3),
        ],
    )


def run_road_scenario(seed: "int | None" = None) -> RoadReport:
    """The crosswalk walkthrough; ``seed`` defaults to the road config's."""
    assertions: list[tuple[str, bool, str]] = []
    config = road_config()
    system = build_system(config, "edge", config.seed if seed is None else seed)
    edge = system.edges[system.edge_for(system.device_id)]

    # task C: CitizenB already lives on the edge gateway
    tree = edge.worker.tree
    root = ResourcePath("MN-CSE")
    tree.create(root, ResourceKind.CONTAINER, "Pedestrians")
    tree.create(root.child("Pedestrians"), ResourceKind.CONTAINER, "CitizenB")
    citizen_b = root.child("Pedestrians").child("CitizenB")
    tree.create(citizen_b, ResourceKind.CONTAINER, "location")
    tree.create(
        citizen_b.child("location"),
        ResourceKind.CONTENT_INSTANCE,
        "b0",
        content=b"crosswalk-west",
    )
    tree.drain_events()

    def resolves(path: str) -> bool:
        try:
            tree.resolve(ResourcePath.parse(path))
            return True
        except EdgeSliceError:  # ``NotFoundError`` from ``resolve``, ``BadRequestError`` from ``parse``
            return False

    assertions.append((
        "pre-offload: CitizenB location on edge",
        resolves("MN-CSE/Pedestrians/CitizenB/location"),
        "",
    ))

    system.prepare()

    assertions.append(("post-offload: CarA grafted", resolves("MN-CSE/Cars/CarA"), ""))
    assertions.append(("post-offload: CitizenA grafted", resolves("MN-CSE/Pedestrians/CitizenA"), ""))
    assertions.append((
        "edge holds CarA, CitizenA and CitizenB side by side",
        all(
            resolves(p)
            for p in (
                "MN-CSE/Cars/CarA/location",
                "MN-CSE/Pedestrians/CitizenA/location",
                "MN-CSE/Pedestrians/CitizenB/location",
            )
        ),
        "",
    ))
    for task_id, cloud_root, edge_root in (
        ("task-carA", "IN-CSE/Cars/CarA", "MN-CSE/Cars/CarA"),
        ("task-citizenA", "IN-CSE/Pedestrians/CitizenA", "MN-CSE/Pedestrians/CitizenA"),
    ):
        assertions.append((
            f"{task_id} isomorphic to its cloud source",
            subtrees_converged(
                system.cloud.tree,
                ResourcePath.parse(cloud_root),
                tree,
                ResourcePath.parse(edge_root),
            ),
            "",
        ))

    # the car fetches pedestrian positions: edge-served vs cloud-served
    edge_samples = system.run_workload(
        "retrieve",
        ROAD_RETRIEVES,
        record_as="edge",
        target="MN-CSE/Pedestrians/CitizenA/location",
        server=edge.node_id,
    )
    cloud_samples = system.run_workload(
        "retrieve",
        ROAD_RETRIEVES,
        record_as="cloud",
        target="IN-CSE/Pedestrians/CitizenA/location",
        server=system.cloud_id,
    )
    assertions.append((
        "every edge retrieve beats the cloud path",
        all(
            e.rtt_ms < c.rtt_ms for e, c in zip(edge_samples, cloud_samples)
        ),
        f"edge mean {mean_rtt(edge_samples, 'edge', 'retrieve'):.3f} ms vs "
        f"cloud mean {mean_rtt(cloud_samples, 'cloud', 'retrieve'):.3f} ms",
    ))

    # the car reports its own position at the edge; eager sync mirrors it
    creates = system.run_workload(
        "create", 5, record_as="edge", target="MN-CSE/Cars/CarA/location", server=edge.node_id
    )
    system.run_until_idle()
    assertions.append((
        "CarA mirror converged after quiescence",
        subtrees_converged(
            system.cloud.tree,
            ResourcePath.parse("IN-CSE/Cars/CarA"),
            tree,
            ResourcePath.parse("MN-CSE/Cars/CarA"),
        ),
        "",
    ))
    return RoadReport(assertions, edge_samples + cloud_samples + creates, system)
