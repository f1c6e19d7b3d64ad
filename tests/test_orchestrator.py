import itertools
import random

import pytest

from edgeslice.errors import NoEdgeAvailableError, UnknownSliceError
from edgeslice.netsim import Link, Node, NodeRole, Topology
from edgeslice.orchestrator import SliceOrchestrator
from edgeslice.slicing import (
    FunctionKind,
    LatencyClass,
    PlanDecision,
    SliceInstance,
    SliceProfile,
    SliceState,
    port_for,
)

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


def make_orchestrator(edge_delays=None):
    return SliceOrchestrator(star_topology(edge_delays or {"edge0": 1.0}))


def profile(functions, service="svc"):
    return SliceProfile(service, frozenset(functions), LatencyClass.NORMAL)


def activate(orch, plan, edge="edge0") -> SliceInstance:
    """The cloud's bookkeeping once the edge reports the plan's missing
    functions started: the slice exists and is active with them."""
    orch.ensure_instance(plan.target_slice, edge)
    return orch.mark_active(
        plan.target_slice, {fn: port_for(fn) for fn in plan.missing_functions}
    )


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
        orch = SliceOrchestrator(topology)
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
        plan = orch.handle_service_request("dev0", profile(wanted))
        assert plan.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD
        assert plan.missing_functions == frozenset(wanted)
        assert orch.registry == {}  # pure decision

    def test_identical_repeat_takes_fast_path(self):
        orch = make_orchestrator()
        requested = profile({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE})
        plan = orch.handle_service_request("dev0", requested)
        activate(orch, plan)
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        again = orch.handle_service_request("dev0", requested)
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
                plan = orch.handle_service_request("dev0", profile(set(wanted)))
                expected_missing = frozenset(wanted) - frozenset(running)
                assert plan.missing_functions == expected_missing
                expected_fast = not expected_missing and bool(running)
                assert (plan.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY) == expected_fast


class TestRecord:
    def test_record_extends_running_set(self):
        orch = make_orchestrator()
        first = orch.handle_service_request(
            "dev0", profile({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE}, service="svc1"))
        activate(orch, first)
        orch.record_slice_functions(first.target_slice, first.missing_functions)
        second = orch.handle_service_request("dev0", profile(set(CORE_FUNCTIONS), service="svc2"))
        assert second.missing_functions == frozenset(
            {FunctionKind.SUBSCRIPTION, FunctionKind.NOTIFICATION}
        )
        instance = activate(orch, second)
        orch.record_slice_functions(second.target_slice, second.missing_functions)
        assert len(instance.running_functions) == 4

    def test_record_empty_is_noop(self):
        orch = make_orchestrator()
        plan = orch.handle_service_request("dev0", profile({FunctionKind.RETRIEVE}))
        activate(orch, plan)
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        wider = profile({FunctionKind.RETRIEVE, FunctionKind.DISCOVERY})
        before = orch.handle_service_request("dev0", wider)
        orch.record_slice_functions(plan.target_slice, set())
        assert orch.handle_service_request("dev0", wider) == before
        assert before.missing_functions == frozenset({FunctionKind.DISCOVERY})

    def test_record_unknown_slice(self):
        orch = make_orchestrator()
        with pytest.raises(UnknownSliceError):
            orch.record_slice_functions("slice-ghost", {FunctionKind.RETRIEVE})

    def test_record_then_request_flips_decision(self):
        """Replay oracle: the two-call sequence flips the decision bit."""
        orch = make_orchestrator()
        requested = profile({FunctionKind.NOTIFICATION})
        plan = orch.handle_service_request("dev0", requested)
        activate(orch, plan)
        assert (
            orch.handle_service_request("dev0", requested).decision
            is PlanDecision.INSTANTIATE_THEN_OFFLOAD
        )
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        assert (
            orch.handle_service_request("dev0", requested).decision
            is PlanDecision.FAST_PATH_OFFLOAD_ONLY
        )


class TestForget:
    def test_forget_drops_slice_and_handler_view(self):
        orch = make_orchestrator()
        requested = profile({FunctionKind.RETRIEVE})
        plan = orch.handle_service_request("dev0", requested)
        activate(orch, plan)
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        orch.forget_slice(plan.target_slice)
        assert orch.registry == {}
        # a fresh identical request instantiates again
        again = orch.handle_service_request("dev0", requested)
        assert again.decision is PlanDecision.INSTANTIATE_THEN_OFFLOAD
        assert again.missing_functions == frozenset({FunctionKind.RETRIEVE})

    def test_forget_unknown_slice_leaves_others(self):
        orch = make_orchestrator()
        plan = orch.handle_service_request("dev0", profile({FunctionKind.RETRIEVE}))
        activate(orch, plan)
        orch.record_slice_functions(plan.target_slice, plan.missing_functions)
        orch.forget_slice("slice-ghost")
        assert set(orch.registry) == {plan.target_slice}
        again = orch.handle_service_request("dev0", profile({FunctionKind.RETRIEVE}))
        assert again.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY


class TestDecisionSoundness:
    def test_fast_path_implies_coverage_by_actual_running_set(self):
        """Property: whenever the decision is the fast path, every required
        function is actually running on the target slice at decision time."""
        rng = random.Random(31)
        orch = make_orchestrator()
        for step in range(60):
            wanted = frozenset(
                rng.sample(CORE_FUNCTIONS, rng.randint(1, len(CORE_FUNCTIONS)))
            )
            requested = profile(wanted, service=f"svc{step % 3}")
            plan = orch.handle_service_request("dev0", requested)
            if plan.decision is PlanDecision.FAST_PATH_OFFLOAD_ONLY:
                instance = orch.registry[plan.target_slice]
                assert instance.state is SliceState.ACTIVE
                assert wanted <= set(instance.running_functions)
            else:
                activate(orch, plan)
                # the handler view only advances when the recording step runs
                if rng.random() < 0.7:
                    orch.record_slice_functions(plan.target_slice, plan.missing_functions)
