"""Trace levels over the length of a run.

At the default level, ``control``, the simulator trace and every worker log
hold the control-plane milestones and the worker lifecycle only, so their
lengths do not grow with the number of data-plane requests: they are the
same after N and after 10N requests. At ``full`` they grow by exactly two
trace entries per message (its send and its delivery) and one log entry per
executed dispatch, counted here apart from the trace itself.
"""
import pytest

from edgeslice.bench import build_system
from edgeslice.netsim import Network
from edgeslice.primitives import StatusCode
from edgeslice.scenario import reference_calibrated
from edgeslice.worker import EdgeWorker

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
def test_the_full_trace_grows_by_two_per_message_and_one_per_dispatch(mode, operation, counts):
    system = build_system(reference_calibrated(), mode, 3, trace="full")
    system.prepare()
    system.run_workload(operation, N)
    (trace, logs), before = lengths(system), dict(counts)
    system.run_workload(operation, 9 * N, record_as="later")  # new names for its creates
    grown_trace, grown_logs = lengths(system)
    messages = counts["messages"] - before["messages"]
    assert messages >= 2 * 9 * N
    assert grown_trace - trace == 2 * messages
    assert sum(grown_logs) - sum(logs) == counts["executed"] - before["executed"] >= 9 * N


def test_a_control_trace_keeps_the_preparation_milestones():
    config = reference_calibrated()
    system = build_system(config, "edge", 3)
    system.prepare()
    kinds = [entry["kind"] for entry in system.sim.trace]
    assert kinds == (["service_request_arrival"] + ["offload_import_complete"] * len(config.tasks)
                     + ["service_ready"])
