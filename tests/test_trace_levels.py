"""The simulator trace and the worker logs over the length of a run.

The simulator trace holds the control-plane milestones and every worker log
the worker lifecycle and refused dispatches, so their lengths do not grow
with the number of data-plane requests: they are the same after N and after
10N requests, while the messages sent and the dispatches executed, counted
here at their source, grow with the run.
"""
import pytest

from edgeslice.bench import build_system, road_config, run_road_scenario
from edgeslice.netsim import Network
from edgeslice.primitives import StatusCode
from edgeslice.scenario import reference_calibrated
from edgeslice.worker import EdgeWorker
from util import tap

N = 5
RUNS = [(mode, operation) for mode in ("cloud", "edge") for operation in ("create", "retrieve")]


def lengths(system) -> tuple[int, list[int]]:
    workers = [system.cloud.service] + [edge.worker for edge in system.edges.values()]
    return len(system.sim.trace), [len(worker.log) for worker in workers]


@pytest.fixture
def counts(monkeypatch) -> dict[str, int]:
    """Messages sent and dispatches executed, counted at their source."""
    counts = {"messages": 0, "executed": 0}
    send, dispatch = Network.send, EdgeWorker.dispatch

    def counted_send(self, *args):
        counts["messages"] += 1
        return send(self, *args)

    def counted_dispatch(self, req):
        result = dispatch(self, req)
        assert result[0].status in (StatusCode.OK, StatusCode.CREATED)  # none refused
        counts["executed"] += 1
        return result

    monkeypatch.setattr(Network, "send", counted_send)
    monkeypatch.setattr(EdgeWorker, "dispatch", counted_dispatch)
    return counts


@pytest.mark.parametrize("mode,operation", RUNS)
def test_the_control_trace_is_flat_in_the_run_length(mode, operation, counts):
    system = build_system(reference_calibrated(), mode, 3)
    system.prepare()
    system.run_workload(operation, N)
    after_n = lengths(system)
    system.run_workload(operation, 9 * N, record_as="later")  # new names for its creates
    assert counts["messages"] > 10 * N and counts["executed"] >= 10 * N
    assert lengths(system) == after_n


@pytest.mark.parametrize("mode,operation", RUNS)
def test_the_taps_see_every_message_and_every_dispatch(mode, operation, counts):
    """The taps that message- and dispatch-level tests read, set on one
    system's network and workers, miss nothing counted at the source."""
    system = build_system(reference_calibrated(), mode, 3)
    sent = tap(system.network, "send", lambda args, arrival: arrival)
    workers = [system.cloud.service] + [edge.worker for edge in system.edges.values()]
    dispatched = [tap(worker, "dispatch", lambda args, result: result[0].status) for worker in workers]
    system.prepare()
    system.run_workload(operation, N)
    assert len(sent) == counts["messages"] >= 2 * N  # each request and its reply, at least
    assert sum(map(len, dispatched)) == counts["executed"] >= N


def test_a_control_trace_keeps_the_preparation_milestones():
    config = reference_calibrated()
    system = build_system(config, "edge", 3)
    system.prepare()
    kinds = [entry["kind"] for entry in system.sim.trace]
    assert kinds == (["service_request_arrival"] + ["offload_import_complete"] * len(config.tasks)
                     + ["service_ready"])


def test_the_road_scenario_s_trace_holds_only_its_control_milestones():
    kinds = [entry["kind"] for entry in run_road_scenario(42).system.sim.trace]
    assert kinds == (["service_request_arrival"] + ["offload_import_complete"] * len(road_config().tasks)
                     + ["service_ready"])
