"""The four workloads of the edgeslice host-time benchmark.

Each workload repeats one fixed *round* until the run's time is up. A round
builds fresh deployments from the scenario, drives them through the public
API (``bench.build_system``, ``System.prepare``, ``System.run_workload``,
``report.emit_results``) and checks the virtual-time output it produced. The
round is fixed, so its virtual output is the same in every round and on every
commit; only the host time it takes may change.

Load is closed-loop from the one simulated device: ``run_workload`` issues
the next request only when the previous reply has arrived.
"""
from __future__ import annotations

import hashlib
import math
import os
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter_ns
from typing import Callable

from edgeslice import bench, report, scenario
from edgeslice.errors import ConfigInvalidError
from edgeslice.netsim import LatencySample
from edgeslice.offload import subtrees_converged
from edgeslice.primitives import Operation
from edgeslice.resources import ResourcePath

#: ``Simulator.run_until_idle`` caps one call, and so one ``run_workload``
#: or ``prepare``, at this many events.
EVENT_CAP = 1_000_000

MODES = ("cloud", "edge")

#: Closed forms of the calibrated scenario (zero jitter), from the comment in
#: its YAML: every sample of a stream equals the one value.
CALIBRATED_RTT_MS = {
    ("cloud", "create"): 8.5,
    ("edge", "create"): 6.1,
    ("cloud", "retrieve"): 67.42,
    ("edge", "retrieve"): 37.32,
}
#: Cold-cache preparation on the calibrated scenario: four 1.2 ms control
#: hops between edge and cloud, then five functions, each a 400 MB pull at
#: 100 MB/s (4,000 ms) followed by a 250 ms start.
CALIBRATED_COLD_PREPARE_MS = 4 * 1.2 + 5 * (4000.0 + 250.0)
RTT_TOLERANCE_MS = 1e-9

PREPARE_INSTANCES = 200  # content instances in the task subtree of prepare-cold


@dataclass
class Phases:
    """Host time of one round, split into set-up and measured phases.

    With a tracer, each phase is also a root span of the trace.
    """

    tracer: object = None
    setup_ns: int = 0
    measured_ns: int = 0

    @contextmanager
    def phase(self, kind: str):
        root = self.tracer.root(f"root.{kind}") if self.tracer else nullcontext()
        start = perf_counter_ns()
        try:
            with root:
                yield
        finally:
            elapsed = perf_counter_ns() - start
            if kind == "setup":
                self.setup_ns += elapsed
            else:
                self.measured_ns += elapsed


@dataclass
class RoundResult:
    samples: list[LatencySample] = field(default_factory=list)
    op_ns: "list[int] | array" = field(default_factory=list)  # host time of each op
    attempted: int = 0
    failed: int = 0
    calls: list[tuple[int, int]] = field(default_factory=list)  # (ops, events) per simulator run
    counters: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    setup_ns: int = 0
    measured_ns: int = 0
    digest: str = ""  # set by summarize()

    def summarize(self) -> None:
        """Reduce the round to what the metrics need, so that a run's memory
        does not grow with its number of rounds."""
        self.digest = virtual_time_digest(self.samples)
        self.samples = []
        self.op_ns = array("q", self.op_ns)

    @property
    def ops(self) -> int:
        return len(self.op_ns)

    @property
    def events(self) -> int:
        return sum(events for _, events in self.calls)


def virtual_time_digest(samples: list[LatencySample]) -> str:
    """Hash of each sample's (mode, operation, request_index, rtt_ms %.6f)."""
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.mode},{s.operation},{s.request_index},{s.rtt_ms:.6f}\n".encode())
    return h.hexdigest()


@contextmanager
def counting_events(system, result: RoundResult, ops: int):
    """Record the events each ``run_until_idle`` call of ``system`` executes,
    beside the number of ops the call covers."""
    run = system.sim.run_until_idle

    def counted(max_events: int = EVENT_CAP) -> int:
        executed = run(max_events)
        result.calls.append((ops, executed))
        return executed

    system.sim.run_until_idle = counted
    try:
        yield
    finally:
        del system.sim.run_until_idle


def run_stream(system, result: RoundResult, operation: str, requests: int,
               target: "str | None" = None, server: "str | None" = None) -> list[LatencySample]:
    """One ``run_workload`` call, timed and checked for failures from outside.

    An op's host time is the interval between two successive ``issue`` calls
    of the device; the last op ends when ``run_workload`` returns. The
    response callback each ``issue`` receives is wrapped to count replies
    that are not OK; requests never answered count as failed too.
    """
    device = system.devices[system.device_id]
    forward = device.issue
    issued: list[int] = []
    replies = {True: 0, False: 0}

    def issue(req, server, size, on_response):
        issued.append(perf_counter_ns())

        def on_reply(response):
            replies[response.ok] += 1
            on_response(response)

        forward(req, server, size, on_reply)

    device.issue = issue
    try:
        with counting_events(system, result, requests):
            samples = system.run_workload(operation, requests, target=target, server=server)
    finally:
        done = perf_counter_ns()
        del device.issue
    ends = issued[1:] + [done]
    result.op_ns.extend(end - start for start, end in zip(issued, ends))
    result.attempted += len(issued)
    result.failed += len(issued) - replies[True]
    if len(samples) != requests:
        result.problems.append(
            f"{system.mode} {operation}: {len(samples)} samples for {requests} requests"
        )
    result.samples.extend(samples)
    return samples


def layer_counters(system) -> Counter:
    """Counters the package keeps, summed over the deployment's nodes."""
    edges = list(system.edges.values())
    channels = [system.cloud.channel] + [edge.channel for edge in edges]
    workers = [system.cloud.service] + [edge.worker for edge in edges]
    stats = [b.stats for b in system.cloud.coordinator.bindings.values()]
    log = [entry for w in workers for entry in w.log]
    return Counter({
        "notify.sent": sum(c.sent for c in channels),
        "notify.retries": sum(c.retries for c in channels),
        "notify.dropped": sum(c.dropped for c in channels),
        "offload.sync.applied": sum(s.notifications_applied for s in stats),
        "offload.sync.duplicates": sum(s.duplicates for s in stats),
        "offload.sync.stale_dropped": sum(s.stale_dropped for s in stats),
        "offload.sync.redirects_served": sum(s.redirects_served for s in stats),
        "worker.dispatch.gated": sum(1 for e in log if e.get("status") == "gated"),
        "worker.log_entries": len(log),
        "netsim.trace_entries": len(system.sim.trace),
    })


def check_rtts(samples: list[LatencySample], bounds: Callable) -> list[str]:
    """Every sample lies within ``bounds(sample) -> (low, high)``."""
    problems = []
    for s in samples:
        low, high = bounds(s)
        if not low - RTT_TOLERANCE_MS <= s.rtt_ms <= high + RTT_TOLERANCE_MS:
            problems.append(
                f"{s.mode} {s.operation} #{s.request_index}: rtt {s.rtt_ms!r} ms"
                f" outside [{low!r}, {high!r}]"
            )
            break
    return problems


def calibrated_bounds(sample: LatencySample) -> tuple[float, float]:
    expected = CALIBRATED_RTT_MS[(sample.mode, sample.operation)]
    return expected, expected


def route_bounds(system, legs: list[tuple[str, str]], processing_ms: float):
    """Closed-form RTT range over message legs: every hop adds its delay and
    transfer time, plus seeded jitter between 0 and the link's jitter."""
    size = system.config.payload_bytes
    low = high = processing_ms
    for src, dst in legs:
        path = system.network.route(src, dst)
        for a, b in zip(path, path[1:]):
            link = system.network.link(a, b)
            hop = link.delay_ms + size / link.bandwidth_bytes_per_s * 1000.0
            low += hop
            high += hop + link.jitter_ms
    return low, high


@dataclass(frozen=True)
class Workload:
    name: str
    load: Callable  # () -> ScenarioConfig
    default_seed: int
    requests: int  # requests per stream, or preparations per round
    tail_percentile: int  # the op-time percentile reported as op_host_us_tail
    golden_digest: str  # virtual-time digest of one round at the default seed
    run_round: Callable  # (workload, seed, requests, phases, out_dir) -> RoundResult
    ops_per_sim_run: "int | None" = None  # ops one run_until_idle covers; None: a stream


# --- data-plane rounds ---


def data_round(wl: Workload, seed: int, requests: int, phases: Phases, out_dir: str,
               streams: Callable, check: Callable) -> RoundResult:
    """Per mode: set up a deployment, then run its streams.

    Set-up is the scenario load, ``System`` construction with the cloud-tree
    populate and, in edge mode, ``prepare()``. The measured phase is the
    streams plus ``emit_results`` writing the round's samples, as the CLI
    does.
    """
    result = RoundResult()
    with phases.phase("setup"):
        config = wl.load()
    for mode in MODES:
        with phases.phase("setup"):
            system = bench.build_system(config, mode, seed)
            system.prepare()
        before = layer_counters(system)
        with phases.phase("measured"):
            for operation, target, server in streams(system):
                run_stream(system, result, operation, requests, target, server)
        result.counters.update(layer_counters(system) - before)
        result.problems.extend(check(system, result.samples))
    with phases.phase("measured"):
        report.emit_results(result.samples, out_dir)
    return result


def _one_stream(operation: str):
    return lambda system: [(operation, None, None)]


def _calibrated_check(system, samples) -> list[str]:
    return check_rtts([s for s in samples if s.mode == system.mode], calibrated_bounds)


def _eager_check(system, samples) -> list[str]:
    problems = _calibrated_check(system, samples)
    if system.mode == "edge":
        task_root = ResourcePath.parse(system.config.tasks[0].root)
        edge_root = ResourcePath("MN-CSE", task_root.segments)
        edge_tree = system.edges[system.edge_for(system.device_id)].worker.tree
        if not subtrees_converged(system.cloud.tree, task_root, edge_tree, edge_root):
            problems.append("edge subtree and cloud mirror did not converge")
    return problems


def create_eager_round(wl, seed, requests, phases, out_dir):
    return data_round(wl, seed, requests, phases, out_dir, _one_stream("create"), _eager_check)


def retrieve_la_round(wl, seed, requests, phases, out_dir):
    return data_round(
        wl, seed, requests, phases, out_dir, _one_stream("retrieve"), _calibrated_check
    )


def _campus_streams(system):
    # creates go to the mode's own server; retrieves are addressed to the
    # cloud path, which an edge deployment's lazy binding redirects
    return [
        ("create", None, None),
        ("retrieve", system.config.workload_target, system.cloud_id),
    ]


def _campus_check(system, samples) -> list[str]:
    device, cloud = system.device_id, system.cloud_id
    edge = system.edge_for(device)
    processing = system.config.processing_for
    legs = {
        ("cloud", "create"): ([(device, cloud), (cloud, device)], cloud),
        ("cloud", "retrieve"): ([(device, cloud), (cloud, device)], cloud),
        ("edge", "create"): ([(device, edge), (edge, device)], edge),
        ("edge", "retrieve"): (
            [(device, cloud), (cloud, edge), (edge, cloud), (cloud, device)], edge
        ),
    }
    cache = {}

    def bounds(sample):
        key = (sample.mode, sample.operation)
        if key not in cache:
            route, server = legs[key]
            operation = Operation[sample.operation.upper()]
            cache[key] = route_bounds(system, route, processing(server)[operation])
        return cache[key]

    return check_rtts([s for s in samples if s.mode == system.mode], bounds)


def campus_lazy_round(wl, seed, requests, phases, out_dir):
    return data_round(wl, seed, requests, phases, out_dir, _campus_streams, _campus_check)


# --- preparation rounds ---


def prepare_cold_round(wl: Workload, seed: int, requests: int, phases: Phases,
                       out_dir: str) -> RoundResult:
    """``requests`` preparations, each a fresh edge deployment with empty
    image caches, as ``run_preparation_timing(..., cold_cache=True)`` runs
    them. An op is one ``build_system`` + ``prepare()`` call."""
    result = RoundResult()
    with phases.phase("setup"):
        config = replace(wl.load(), pre_seeded_cache=False, prepopulate=PREPARE_INSTANCES)
    system = None
    with phases.phase("measured"):
        for rep in range(requests):
            start = perf_counter_ns()
            system = bench.build_system(config, "edge", seed, repetition=rep)
            with counting_events(system, result, 1):
                try:
                    system.prepare()
                except ConfigInvalidError:
                    result.failed += 1
                    continue
                finally:
                    result.attempted += 1
                    result.op_ns.append(perf_counter_ns() - start)
            result.samples.append(
                LatencySample(config.name, "edge", "prepare", rep, bench.preparation_time_ms(system))
            )
            # a few microseconds against a preparation of milliseconds; taken
            # here so that only one deployment is alive at a time
            result.counters.update(layer_counters(system))
        report.emit_results(result.samples, out_dir)
    expected = CALIBRATED_COLD_PREPARE_MS
    result.problems.extend(check_rtts(result.samples, lambda s: (expected, expected)))
    if system is not None:
        task_root = ResourcePath.parse(config.tasks[0].root)
        edge_tree = system.edges[system.edge_for(system.device_id)].worker.tree
        edge_root = ResourcePath("MN-CSE", task_root.segments)
        if not subtrees_converged(system.cloud.tree, task_root, edge_tree, edge_root):
            result.problems.append("imported subtree differs from its cloud source")
    return result


def _calibrated() -> "scenario.ScenarioConfig":
    # looked up at call time, so a traced run sees the wrapped loader
    return scenario.reference_calibrated()


def _campus() -> "scenario.ScenarioConfig":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return scenario.load_scenario(os.path.join(root, "scenarios", "jittery_campus.yaml"))


# Why each workload exists is recorded beside its name in BENCHMARK.json.
# Run lengths are fixed: per-op cost grows with the container, so a different
# length measures a different thing, and the golden digests depend on it.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="create-eager",
            load=_calibrated,
            default_seed=42,
            requests=800,
            tail_percentile=99,
            golden_digest="35ac3494a834355dbd4b7c491ed39b19c47025fb65e9f0baa12876ad88127dd0",
            run_round=create_eager_round,
        ),
        Workload(
            name="retrieve-la",
            load=_calibrated,
            default_seed=42,
            requests=2000,
            tail_percentile=99,
            golden_digest="01f5ec90d4f3f1ed0eabb29f5386ee77c1f683876087e1a5d790c15ee1f8b314",
            run_round=retrieve_la_round,
        ),
        Workload(
            name="campus-lazy",
            load=_campus,
            default_seed=7,
            requests=400,
            tail_percentile=99,
            golden_digest="82dbf81e4fd8b736cd4070ec29c49059360117b8e770cc86173040d4ea3e11f2",
            run_round=campus_lazy_round,
        ),
        Workload(
            name="prepare-cold",
            load=_calibrated,
            default_seed=42,
            requests=50,
            tail_percentile=80,
            golden_digest="e1ce15ca635983c334360de86f8a3aea7878d94170a961f73d61ea4c59d10ab8",
            run_round=prepare_cold_round,
            ops_per_sim_run=1,
        ),
    )
}


def tail_rank(count: int, percentile: int) -> int:
    """1-based nearest rank of ``percentile`` among ``count`` values."""
    return max(1, math.ceil(percentile / 100 * count))
