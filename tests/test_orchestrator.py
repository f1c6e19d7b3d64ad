import itertools
import random

import pytest

from edgeslice.errors import (
    BadRequestError,
    NoEdgeAvailableError,
    UnknownSliceError,
    WorkerQuotaExceededError,
)
from edgeslice.images import default_catalogue
from edgeslice.netsim import Link, Node, NodeRole, Topology
from edgeslice.orchestrator import ServiceRequest, SliceOrchestrator
from edgeslice.resources import ManualClock, ResourceTree
from edgeslice.slicing import (
    FunctionKind,
    LatencyClass,
    PlanDecision,
    SliceInstance,
    SliceProfile,
    SliceState,
)
from edgeslice.worker import EdgeWorker, ResourceQuota

MB = 1_000_000
CORE_FUNCTIONS = [
    FunctionKind.REGISTRATION,
    FunctionKind.RETRIEVE,
    FunctionKind.SUBSCRIPTION,
    FunctionKind.NOTIFICATION,
]


def star_topology(edge_delays: dict[str, float]) -> Topology:
    nodes = [Node("dev0", NodeRole.DEVICE), Node("cloud", NodeRole.CLOUD)]
    links = []
    for edge, delay in edge_delays.items():
        nodes.append(Node(edge, NodeRole.EDGE_WORKER))
        links.append(Link("dev0", edge, delay_ms=delay))
        links.append(Link(edge, "cloud", delay_ms=15.0))
    return Topology(nodes, links)


def make_orchestrator(edge_delays=None, clock=None):
    topology = star_topology(edge_delays or {"edge0": 1.0})
    return SliceOrchestrator(topology, default_catalogue(), clock=clock or ManualClock())


def profile(functions, service="svc"):
    return SliceProfile(service, frozenset(functions), LatencyClass.NORMAL)


def make_worker(clock, capacity=4000 * MB, node="edge0"):
    tree = ResourceTree("MN-CSE", clock)
    worker = EdgeWorker(node, tree, capacity_bytes=capacity, clock=clock)
    return worker


class TestSelectEdge:
    def test_single_edge(self):
        orch = make_orchestrator({"edge0": 3.0})
        assert orch.select_edge_node("dev0") == "edge0"

    def test_min_delay_wins(self):
        orch = make_orchestrator({"edgeA": 5.0, "edgeB": 1.0})
        assert orch.select_edge_node("dev0") == "edgeB"

    def test_load_breaks_delay_ties(self):
        orch = make_orchestrator({"edgeA": 2.0, "edgeB": 2.0})
        for i in range(3):
            orch.registry[f"s{i}"] = SliceInstance(
                slice_id=f"s{i}", edge_node="edgeA", state=SliceState.ACTIVE
            )
        orch.registry["s9"] = SliceInstance(
            slice_id="s9", edge_node="edgeB", state=SliceState.ACTIVE
        )
        assert orch.select_edge_node("dev0") == "edgeB"

    def test_id_breaks_full_ties(self):
        orch = make_orchestrator({"edgeB": 2.0, "edgeA": 2.0})
        assert orch.select_edge_node("dev0") == "edgeA"

    def test_no_edges(self):
        topology = Topology([Node("dev0", NodeRole.DEVICE)], [])
        orch = SliceOrchestrator(topology, default_catalogue())
        with pytest.raises(NoEdgeAvailableError):
            orch.select_edge_node("dev0")

    def test_lexicographic_order_on_random_topologies(self):
        rng = random.Random(5)
        for trial in range(25):
            delays = {f"e{i}": float(rng.randint(1, 4)) for i in range(rng.randint(2, 6))}
            orch = make_orchestrator(delays)
            loads = {}
            for edge in delays:
                loads[edge] = rng.randint(0, 3)
                for i in range(loads[edge]):
                    key = f"{edge}-s{i}"
                    orch.registry[key] = SliceInstance(
                        slice_id=key, edge_node=edge, state=SliceState.ACTIVE
                    )
            expected = min((delays[e], loads[e], e) for e in delays)[2]
            assert orch.select_edge_node("dev0") == expected


class TestDecisions:
    def test_fresh_edge_instantiates_everything(self):
        orch = make_orchestrator()
        wanted = {FunctionKind.REGISTRATION, FunctionKind.RETRIEVE}
        plan = orch.handle_service_request(ServiceRequest("dev0", "svc", profile(wanted)))
        assert plan.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD
        assert plan.missing_functions == frozenset(wanted)
        assert orch.registry == {}  # pure decision

    def test_identical_repeat_takes_fast_path(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        req = ServiceRequest("dev0", "svc", profile({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE}))
        plan = orch.handle_service_request(req)
        orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        again = orch.handle_service_request(req)
        assert again.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY
        assert again.missing_functions == frozenset()

    def test_missing_set_is_exact_difference_for_all_profile_pairs(self):
        """2^4 running sets x (2^4 - 1) request sets over the four core
        functions; the oracle is plain set difference."""
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(CORE_FUNCTIONS, k)
                for k in range(len(CORE_FUNCTIONS) + 1)
            )
        )
        for running in subsets:
            for wanted in subsets:
                if not wanted:
                    continue
                orch = make_orchestrator()
                if running:
                    orch.ensure_instance("slice-edge0", "edge0")
                    orch.mark_active("slice-edge0", {f: 0 for f in running})
                    orch.record_slice_functions("slice-edge0", set(running))
                plan = orch.handle_service_request(
                    ServiceRequest("dev0", "svc", profile(set(wanted)))
                )
                expected_missing = frozenset(wanted) - frozenset(running)
                assert plan.missing_functions == expected_missing
                expected_fast = not expected_missing and bool(running)
                assert (plan.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY) == expected_fast


class TestInstantiation:
    def test_warm_cache_elapsed_is_start_delays(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        plan = orch.handle_service_request(
            ServiceRequest(
                "dev0", "svc", profile({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE})
            )
        )
        instance, elapsed = orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        assert elapsed == 2 * worker.start_delay_ms
        assert instance.state is SliceState.ACTIVE
        assert sorted(instance.running_functions.values()) == [62590, 62591]

    def test_cold_cache_adds_pull_time(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)  # cold cache
        plan = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile({FunctionKind.SUBSCRIPTION}))
        )
        _, elapsed = orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        # 400 MB at 100 MB/s -> 4 s, plus one container start
        assert elapsed == 4000.0 + worker.start_delay_ms

    def test_fast_path_plan_refuses_instantiation(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        req = ServiceRequest("dev0", "svc", profile({FunctionKind.RETRIEVE}))
        plan = orch.handle_service_request(req)
        orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        fast = orch.handle_service_request(req)
        with pytest.raises(BadRequestError):
            orch.instantiate_slice(
                fast, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
            )

    def test_partial_failure_rolls_back(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock, capacity=300 * MB)
        worker.cache.seed(default_catalogue())
        quota = ResourceQuota(max_memory_bytes=200 * MB, max_cpu_share=0.5)
        plan = orch.handle_service_request(
            ServiceRequest(
                "dev0", "svc", profile({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE})
            )
        )
        with pytest.raises(WorkerQuotaExceededError):
            orch.instantiate_slice(
                plan,
                "edge0",
                worker=worker,
                clock=clock,
                pull_bandwidth_bytes_per_s=100 * MB,
                quota=quota,
            )
        assert worker.functions == {}
        assert orch.registry == {}

    def test_missing_image_propagates(self):
        from edgeslice.errors import ImageNotFoundError
        from edgeslice.images import FunctionImage, ImageCatalogue

        clock = ManualClock()
        thin_catalogue = ImageCatalogue(
            [
                FunctionImage(f"img-{fn.name.lower()}", fn, "1.0.0", 400 * MB)
                for fn in FunctionKind
                if fn is not FunctionKind.DISCOVERY
            ]
        )
        orch = SliceOrchestrator(star_topology({"edge0": 1.0}), thin_catalogue, clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(thin_catalogue)
        plan = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile({FunctionKind.DISCOVERY}))
        )
        with pytest.raises(ImageNotFoundError):
            orch.instantiate_slice(
                plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
            )
        assert orch.registry == {}

    def test_registry_matches_worker_at_quiescence(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        plan = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile(set(CORE_FUNCTIONS)))
        )
        instance, _ = orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        assert instance.running_functions == worker.running_functions()


class TestRecord:
    def test_record_extends_running_set(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        first = orch.handle_service_request(
            ServiceRequest(
                "dev0", "svc1", profile({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE})
            )
        )
        orch.instantiate_slice(
            first, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        orch.record_slice_functions(first.target_slice, first.missing_functions)
        second = orch.handle_service_request(
            ServiceRequest("dev0", "svc2", profile(set(CORE_FUNCTIONS), service="svc2"))
        )
        assert second.missing_functions == frozenset(
            {FunctionKind.SUBSCRIPTION, FunctionKind.NOTIFICATION}
        )
        instance, _ = orch.instantiate_slice(
            second,
            "edge0",
            worker=worker,
            clock=clock,
            pull_bandwidth_bytes_per_s=100 * MB,
        )
        orch.record_slice_functions(second.target_slice, second.missing_functions)
        assert len(instance.running_functions) == 4

    def test_record_empty_is_noop(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        plan = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile({FunctionKind.RETRIEVE}))
        )
        orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        before = orch.handler_view("edge0")
        orch.record_slice_functions(plan.target_slice, set())
        assert orch.handler_view("edge0") == before

    def test_record_unknown_slice(self):
        orch = make_orchestrator()
        with pytest.raises(UnknownSliceError):
            orch.record_slice_functions("slice-ghost", {FunctionKind.RETRIEVE})

    def test_record_then_request_flips_decision(self):
        """Replay oracle: the two-call sequence flips the decision bit."""
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        req = ServiceRequest("dev0", "svc", profile({FunctionKind.NOTIFICATION}))
        plan = orch.handle_service_request(req)
        orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        assert (
            orch.handle_service_request(req).decision
            is PlanDecision.INSTANTIATE_THEN_OFFLOAD
        )
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        assert (
            orch.handle_service_request(req).decision
            is PlanDecision.FAST_PATH_OFFLOAD_ONLY
        )


class TestDecisionSoundness:
    def test_fast_path_implies_coverage_by_actual_running_set(self):
        """Property: whenever the decision is the fast path, every required
        function is actually running on the target slice at decision time."""
        rng = random.Random(31)
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        for step in range(60):
            wanted = frozenset(
                rng.sample(CORE_FUNCTIONS, rng.randint(1, len(CORE_FUNCTIONS)))
            )
            req = ServiceRequest("dev0", f"svc{step % 3}", profile(wanted))
            plan = orch.handle_service_request(req)
            if plan.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY:
                instance = orch.registry[plan.target_slice]
                assert instance.state is SliceState.ACTIVE
                assert wanted <= set(instance.running_functions)
                assert wanted <= worker.running_functions().keys()
            else:
                orch.instantiate_slice(
                    plan,
                    "edge0",
                    worker=worker,
                    clock=clock,
                    pull_bandwidth_bytes_per_s=100 * MB,
                )
                # the handler view only advances when the recording step runs
                if rng.random() < 0.7:
                    orch.record_slice_functions(plan.target_slice, plan.missing_functions)


class TestFastPathIdempotence:
    def test_no_double_starts_across_repeated_requests(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        req = ServiceRequest("dev0", "svc", profile(set(CORE_FUNCTIONS)))
        for _ in range(4):
            plan = orch.handle_service_request(req)
            if plan.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD:
                orch.instantiate_slice(
                    plan,
                    "edge0",
                    worker=worker,
                    clock=clock,
                    pull_bandwidth_bytes_per_s=100 * MB,
                )
                orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        starts = [e for e in worker.log if e["action"] == "start_begin"]
        per_function = {}
        for entry in starts:
            per_function[entry["function"]] = per_function.get(entry["function"], 0) + 1
        assert all(count == 1 for count in per_function.values())
        assert len(starts) == len(CORE_FUNCTIONS)


class TestTerminate:
    def test_terminate_unknown(self):
        orch = make_orchestrator()
        with pytest.raises(UnknownSliceError):
            orch.terminate_slice("slice-ghost", worker=make_worker(ManualClock()))

    def test_terminate_stops_functions_and_reports(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        plan = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile({FunctionKind.RETRIEVE}))
        )
        orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        report = orch.terminate_slice(
            plan.target_slice, worker=worker, finalize=lambda edge: 5
        )
        assert report["synced_resources"] == 5
        assert worker.functions == {}
        assert orch.registry == {}
        # a fresh identical request instantiates again
        plan2 = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile({FunctionKind.RETRIEVE}))
        )
        assert plan2.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD

    def test_terminate_without_tasks_reports_zero(self):
        clock = ManualClock()
        orch = make_orchestrator(clock=clock)
        worker = make_worker(clock)
        worker.cache.seed(default_catalogue())
        plan = orch.handle_service_request(
            ServiceRequest("dev0", "svc", profile({FunctionKind.RETRIEVE}))
        )
        orch.instantiate_slice(
            plan, "edge0", worker=worker, clock=clock, pull_bandwidth_bytes_per_s=100 * MB
        )
        report = orch.terminate_slice(plan.target_slice, worker=worker)
        assert report["synced_resources"] == 0
