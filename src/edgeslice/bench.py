"""Benchmarks: the cloud-vs-edge latency comparison and the road scenario.

Each measured mode runs in its own freshly-built simulated deployment; a
fixed seed derivation keeps multi-mode runs reproducible.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

from .errors import ConfigInvalidError, EdgeSliceError
from .netsim import LatencySample
from .offload import subtrees_converged
from .resources import ResourceKind, ResourcePath
from .scenario import ScenarioConfig, TaskSpec, reference_calibrated
from .system import System

MODE_SEED_OFFSET = {"cloud": 0, "edge": 1_000_003}


def derive_seed(seed: int, mode: str, repetition: int = 0) -> int:
    if mode not in MODE_SEED_OFFSET:
        raise ConfigInvalidError(f"unknown mode {mode!r}")
    return seed + MODE_SEED_OFFSET[mode] + 7 * repetition


def build_system(config: ScenarioConfig, mode: str, seed: int, repetition: int = 0,
                 trace: str = "control") -> System:
    return System(config, mode, derive_seed(seed, mode, repetition), trace)


def run_benchmark(
    config: ScenarioConfig,
    operation: str,
    modes: "list[str] | None" = None,
    requests: "int | None" = None,
    seed: "int | None" = None,
) -> list[LatencySample]:
    """Full pipeline per mode: service preparation (edge), then N sequential
    data-plane requests measured at the device."""
    modes = modes or config.modes
    requests = requests if requests is not None else config.requests
    seed = seed if seed is not None else config.seed
    if requests <= 0:
        raise ConfigInvalidError("requests must be positive")
    samples: list[LatencySample] = []
    for mode in modes:
        system = build_system(config, mode, seed)
        system.prepare()
        samples.extend(system.run_workload(operation, requests))
    return samples


def mean_rtt(samples: list[LatencySample], mode: str, operation: str) -> float:
    values = [s.rtt_ms for s in samples if s.mode == mode and s.operation == operation]
    if not values:
        raise ConfigInvalidError(f"no samples for mode={mode} operation={operation}")
    return statistics.fmean(values)


@dataclass(frozen=True)
class RetrievalComparison:
    samples: list[LatencySample]
    cloud_mean_ms: float
    edge_mean_ms: float

    @property
    def ratio(self) -> float:
        return self.cloud_mean_ms / self.edge_mean_ms


def run_retrieval_comparison(
    config: ScenarioConfig,
    requests: "int | None" = None,
    seed: "int | None" = None,
) -> RetrievalComparison:
    samples = run_benchmark(config, "retrieve", ["cloud", "edge"], requests, seed)
    return RetrievalComparison(
        samples=samples,
        cloud_mean_ms=mean_rtt(samples, "cloud", "retrieve"),
        edge_mean_ms=mean_rtt(samples, "edge", "retrieve"),
    )


@dataclass(frozen=True)
class PreparationTiming:
    samples: list[LatencySample]
    mean_ms: float


def preparation_time_ms(system: System) -> float:
    """First service-request arrival at an edge to the latest offload import,
    read from the control-plane milestones that every trace level records."""
    arrivals = [e["ts"] for e in system.sim.trace if e["kind"] == "service_request_arrival"]
    imports = [e["ts"] for e in system.sim.trace if e["kind"] == "offload_import_complete"]
    if not arrivals or not imports:
        raise ConfigInvalidError("preparation trace incomplete")
    return imports[-1] - arrivals[0]


def run_preparation_timing(
    config: ScenarioConfig,
    repetitions: int = 10,
    seed: "int | None" = None,
    cold_cache: "bool | None" = None,
) -> PreparationTiming:
    """Service-request arrival to offload-import completion, fresh deployment
    per repetition. ``cold_cache`` overrides the scenario's cache seeding."""
    if repetitions <= 0:
        raise ConfigInvalidError("repetitions must be positive")
    seed = seed if seed is not None else config.seed
    if cold_cache is not None:
        config = replace(config, pre_seeded_cache=not cold_cache)
    samples = []
    for rep in range(repetitions):
        system = build_system(config, "edge", seed, repetition=rep)
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
    return PreparationTiming(
        samples=samples, mean_ms=statistics.fmean(s.rtt_ms for s in samples)
    )


# --- the crosswalk road scenario ---


@dataclass
class RoadReport:
    assertions: list[tuple[str, bool, str]] = field(default_factory=list)
    samples: list[LatencySample] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)
    system: "System | None" = None  # final deployment state, for inspection

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append((name, bool(passed), detail))

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
            TaskSpec("task-carA", "IN-CSE/Cars/CarA", "road-warning"),
            TaskSpec("task-citizenA", "IN-CSE/Pedestrians/CitizenA", "road-warning"),
        ],
        workload_target="IN-CSE/Cars/CarA/location",
        populate=[
            ("IN-CSE/Cars/CarA/location", 2),
            ("IN-CSE/Pedestrians/CitizenA/location", 3),
        ],
    )


def run_road_scenario(seed: int = 42, retrieves: int = 20) -> RoadReport:
    report = RoadReport()
    config = road_config()
    system = build_system(config, "edge", seed, trace="full")
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

    report.check(
        "pre-offload: CitizenB location on edge",
        resolves("MN-CSE/Pedestrians/CitizenB/location"),
    )

    system.prepare()

    report.check("post-offload: CarA grafted", resolves("MN-CSE/Cars/CarA"))
    report.check("post-offload: CitizenA grafted", resolves("MN-CSE/Pedestrians/CitizenA"))
    report.check(
        "edge holds CarA, CitizenA and CitizenB side by side",
        all(
            resolves(p)
            for p in (
                "MN-CSE/Cars/CarA/location",
                "MN-CSE/Pedestrians/CitizenA/location",
                "MN-CSE/Pedestrians/CitizenB/location",
            )
        ),
    )
    for task_id, cloud_root, edge_root in (
        ("task-carA", "IN-CSE/Cars/CarA", "MN-CSE/Cars/CarA"),
        ("task-citizenA", "IN-CSE/Pedestrians/CitizenA", "MN-CSE/Pedestrians/CitizenA"),
    ):
        report.check(
            f"{task_id} isomorphic to its cloud source",
            subtrees_converged(
                system.cloud.tree,
                ResourcePath.parse(cloud_root),
                tree,
                ResourcePath.parse(edge_root),
            ),
        )

    # the car fetches pedestrian positions: edge-served vs cloud-served
    edge_samples = system.run_workload(
        "retrieve",
        retrieves,
        record_as="edge",
        target="MN-CSE/Pedestrians/CitizenA/location",
        server=edge.node_id,
    )
    cloud_samples = system.run_workload(
        "retrieve",
        retrieves,
        record_as="cloud",
        target="IN-CSE/Pedestrians/CitizenA/location",
        server=system.cloud_id,
    )
    report.check(
        "every edge retrieve beats the cloud path",
        all(
            e.rtt_ms < c.rtt_ms for e, c in zip(edge_samples, cloud_samples)
        ),
        f"edge mean {statistics.fmean(s.rtt_ms for s in edge_samples):.3f} ms vs "
        f"cloud mean {statistics.fmean(s.rtt_ms for s in cloud_samples):.3f} ms",
    )

    # the car reports its own position at the edge; eager sync mirrors it
    system.run_workload(
        "create", 5, record_as="edge", target="MN-CSE/Cars/CarA/location", server=edge.node_id
    )
    system.run_until_idle()
    report.check(
        "CarA mirror converged after quiescence",
        subtrees_converged(
            system.cloud.tree,
            ResourcePath.parse("IN-CSE/Cars/CarA"),
            tree,
            ResourcePath.parse("MN-CSE/Cars/CarA"),
        ),
    )

    report.samples = list(system.samples)
    report.trace = list(system.sim.trace)
    report.system = system
    return report
