"""Integration tests over the wire: every exchange is a primitive routed
through the simulated network, as an object or as its encoding."""
import base64
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeslice import netsim
from edgeslice import system as system_module
from edgeslice.bench import build_system, derive_seed, road_config
from edgeslice.codec import FieldBody, encode_b64, encode_body
from edgeslice.errors import BadRequestError, ConfigInvalidError, NotFoundError, SimulationLimitError
from edgeslice.netsim import Network
from edgeslice.notify import NotifyBody
from edgeslice.offload import (SYNC_SUB_NAME, BundleRecord, BundleTransfer, OffloadBundle, SyncMode,
                               make_bundle, subtrees_converged)
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    ResourceView,
    ResponsePrimitive,
    StatusCode,
    decode_resource,
    encode_fieldline,
    read_body,
)
from edgeslice.resources import ResourceKind, ResourcePath, ResourceTree
from edgeslice.scenario import TaskSpec, load_scenario, reference_calibrated
from edgeslice.slicing import (FunctionKind, PlanDecision, SliceProfile, SliceState, SlicingPlan,
                               port_for)
from edgeslice.worker import ResourceQuota

from dataclasses import replace

import bundle_oracle
from util import populate_cloud_tree, trees_equal
from wire_samples import CAMPUS

# before the wire check of conftest.py wraps it for each test
UNCHECKED_SEND = Network.send

# a worker with room for one function at this quota, not two
MB = 1_000_000
ONE_FUNCTION_ROOM = {
    "capacity_bytes": 300 * MB,
    "quota": ResourceQuota(max_memory_bytes=200 * MB, max_cpu_share=0.5),
}


@pytest.fixture(scope="module")
def config():
    return reference_calibrated()


def admin(system, op, to, pairs, on_response=None, rqi="adm-1"):
    """Send one control primitive from the device and run to idle."""
    device = system.devices[system.device_id]
    responses = []
    req = RequestPrimitive(
        operation=op,
        to=to,
        originator=device.node_id,
        request_id=rqi,
        content=encode_fieldline(pairs).encode("ascii"),
    )
    device.issue(req, to, 0, on_response or responses.append)
    system.run_until_idle()
    return responses


def fields(response: ResponsePrimitive) -> dict[str, str]:
    """A control reply's one-line body, read as its receiver reads it."""
    return read_body(response.content, FieldBody).fields


def running(worker) -> dict[FunctionKind, int]:
    """The ports of the worker's running functions, by function."""
    return {fn: inst.port for fn, inst in worker.functions.items() if worker.enabled(fn)}


class TestPreparation:
    def test_edge_prepare_starts_profile_and_offloads(self, config):
        system = build_system(config, "edge", 42)
        ready = system.prepare()
        meta = fields(ready)
        assert meta["edge"] == "edge0"
        assert "MN-CSE/Pedestrians/CitizenB" in meta["roots"]
        worker = system.edges["edge0"].worker
        assert set(running(worker)) == config.functions
        # one eager binding is registered cloud-side
        binding = system.cloud.coordinator.bindings["task-citizenB"]
        assert binding.mode is SyncMode.EAGER
        assert str(binding.edge_root) == "MN-CSE/Pedestrians/CitizenB"

    def test_registry_matches_worker_after_prepare(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        instance = system.cloud.orchestrator.registry["slice-edge0"]
        assert instance.running_functions == running(system.edges["edge0"].worker)

    def test_partial_failure_rolls_back(self):
        """The second start exceeds the worker's capacity: the edge stops
        what it started and the cloud drops the slice it created."""
        config = replace(reference_calibrated(), **ONE_FUNCTION_ROOM)
        system = build_system(config, "edge", 42)
        with pytest.raises(ConfigInvalidError, match="^service preparation failed: 4000 'edge0' cannot reserve "
                                                     "200000000 more bytes$"):
            system.prepare()
        assert system.edges["edge0"].worker.functions == {}
        assert system.cloud.orchestrator.registry == {}
        responses = admin(
            system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")]
        )
        assert responses[0].status is StatusCode.NOT_FOUND

    def test_failure_on_an_active_slice_keeps_what_runs(self):
        """A later request whose extra function does not fit leaves the
        slice active with the functions it already ran."""
        config = replace(
            reference_calibrated(), functions=frozenset({FunctionKind.RETRIEVE}), **ONE_FUNCTION_ROOM
        )
        system = build_system(config, "edge", 42)
        system.prepare()
        wider = SliceProfile(
            config.service_id,
            frozenset({FunctionKind.RETRIEVE, FunctionKind.REGISTRATION}),
            config.latency_class,
        )
        device = system.devices[system.device_id]
        responses = []
        req = RequestPrimitive(
            Operation.SERVICE_REQUEST, system.cloud_id, device.node_id, "sr-wide",
            content=FieldBody.line(*wider.to_pairs()),
        )
        device.issue(req, "edge0", 0, responses.append)
        system.run_until_idle()
        assert responses[0].status is StatusCode.BAD_REQUEST
        instance = system.cloud.orchestrator.registry["slice-edge0"]
        assert instance.state is SliceState.ACTIVE
        ports = running(system.edges["edge0"].worker)
        assert instance.running_functions == ports
        assert set(ports) == {FunctionKind.RETRIEVE}

    def test_a_cold_deployment_holds_at_most_one_tracked_object_per_record(self, config):
        """An edge deployment's tracked objects after a cold prepare(), at
        two task sizes: each further record may add one, its edge node. Two
        sizes on one interpreter, so the count does not depend on timing."""
        def held(cold) -> int:
            gc.collect()
            before = len(gc.get_objects())
            system = build_system(cold, "edge", 42)
            system.prepare()
            gc.collect()
            return len(gc.get_objects()) - before

        sizes = [replace(config, pre_seeded_cache=False, prepopulate=n) for n in (100, 200)]
        for cold in sizes:  # fills the cloud template cache and the other one-off caches
            held(cold)
        small, large = (held(cold) for cold in sizes)
        assert large - small <= 100, (small, large)

    def test_second_request_is_fast_path_with_no_new_starts(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        worker = system.edges["edge0"].worker
        starts_before = [e for e in worker.log if e["action"] == "start_begin"]
        system.prepare()
        starts_after = [e for e in worker.log if e["action"] == "start_begin"]
        assert len(starts_before) == len(config.functions)
        assert len(starts_after) == len(starts_before)
        decisions = [d["decision"] for d in system.cloud.orchestrator.decision_log]
        assert decisions == ["instantiate_then_offload", "fast_path_offload_only"]


def start_times(worker, action: str) -> list[float]:
    return [e["ts"] for e in worker.log if e["action"] == action]


class TestInstantiationTiming:
    def test_warm_cache_elapsed_is_start_delays(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        worker = system.edges["edge0"].worker
        begins = start_times(worker, "start_begin")
        completes = start_times(worker, "start_complete")
        assert len(begins) == len(completes) == len(config.functions)
        # one start after another, with nothing to pull in between
        assert begins[1:] == completes[:-1]
        assert completes[-1] - begins[0] == len(config.functions) * config.start_delay_ms
        instance = system.cloud.orchestrator.registry["slice-edge0"]
        assert instance.state is SliceState.ACTIVE
        assert instance.running_functions == {fn: port_for(fn) for fn in config.functions}

    def test_cold_cache_adds_pull_time(self, config):
        finished = {}
        for warm in (True, False):
            system = build_system(replace(config, pre_seeded_cache=warm), "edge", 42)
            system.prepare()
            worker = system.edges["edge0"].worker
            begins = start_times(worker, "start_begin")
            completes = start_times(worker, "start_complete")
            finished[warm] = completes[-1]
        # 400 MB at 100 MB/s -> 4 s pulled before each start
        pulls = len(config.functions) * 4000.0
        assert finished[False] - finished[True] == pytest.approx(pulls, abs=1e-6)
        # the cold run came last: each later start waits for its own pull
        gaps = [begin - complete for begin, complete in zip(begins[1:], completes)]
        assert gaps == [pytest.approx(4000.0, abs=1e-6)] * (len(config.functions) - 1)


class TestFastPathIdempotence:
    def test_no_double_starts_across_repeated_requests(self, config):
        system = build_system(config, "edge", 42)
        for _ in range(4):
            system.prepare()
        starts = [e["function"] for e in system.edges["edge0"].worker.log if e["action"] == "start_begin"]
        assert sorted(starts) == sorted(fn.name for fn in config.functions)
        decisions = [d["decision"] for d in system.cloud.orchestrator.decision_log]
        assert decisions == ["instantiate_then_offload"] + ["fast_path_offload_only"] * 3


class TestGatingOverTheWire:
    def test_minimal_slice_rejects_subscription_and_notify(self):
        config = replace(
            reference_calibrated(),
            functions=frozenset({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE}),
            sync_mode=SyncMode.LAZY,  # eager would need notification support
        )
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        responses = []
        sub_req = RequestPrimitive(
            operation=Operation.CREATE,
            to="MN-CSE/Pedestrians/CitizenB/location",
            originator=device.node_id,
            request_id="sub-1",
            resource_kind=ResourceKind.SUBSCRIPTION,
            content=encode_fieldline(
                [("nm", "watch"), ("nt", f"{device.node_id}|DEV/inbox")]
            ).encode("ascii"),
        )
        device.issue(sub_req, "edge0", 400, responses.append)
        notify_req = RequestPrimitive(
            operation=Operation.NOTIFY,
            to="MN-CSE/Pedestrians/CitizenB/location",
            originator=device.node_id,
            request_id="ntf-1",
            content=b"ev=created;pt=x\nty=4;nm=n;ct=0.0;lt=0.0",
        )
        device.issue(notify_req, "edge0", 400, responses.append)
        retrieve = RequestPrimitive(
            Operation.RETRIEVE,
            "MN-CSE/Pedestrians/CitizenB/location/la",
            device.node_id,
            "ret-1",
        )
        device.issue(retrieve, "edge0", 400, responses.append)
        system.run_until_idle()
        assert [int(r.status) for r in responses] == [4005, 4005, 2000]


class TestDeviceSubscriptions:
    def test_device_receives_notifications_from_its_subscription(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        acks = []
        sub_req = RequestPrimitive(
            operation=Operation.CREATE,
            to="MN-CSE/Pedestrians/CitizenB/location",
            originator=device.node_id,
            request_id="sub-dev",
            resource_kind=ResourceKind.SUBSCRIPTION,
            content=encode_fieldline(
                [("nm", "devwatch"), ("nt", f"{device.node_id}|DEV/inbox")]
            ).encode("ascii"),
        )
        device.issue(sub_req, "edge0", 400, acks.append)
        system.run_until_idle()
        assert acks[0].status is StatusCode.CREATED
        system.run_workload("create", 3)
        assert device.notifications_received == 3


class TestAdminProtocol:
    def test_crash_respawn_over_the_wire(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        worker = system.edges["edge0"].worker
        responses = admin(
            system, Operation.CRASH, "edge0", [("fn", "SUBSCRIPTION")], rqi="crash-1"
        )
        assert responses[0].status is StatusCode.OK
        # after idle, the respawn has completed
        assert worker.enabled(FunctionKind.SUBSCRIPTION)
        actions = [e["action"] for e in worker.log if e.get("function") == "SUBSCRIPTION"]
        assert "crash" in actions and actions[-1] == "start_complete"

    def test_stop_and_start_function(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        worker = system.edges["edge0"].worker
        responses = admin(
            system, Operation.STOP_FUNCTION, "edge0", [("fn", "RETRIEVE")], rqi="stop-1"
        )
        assert responses[0].status is StatusCode.OK
        assert not worker.enabled(FunctionKind.RETRIEVE)
        responses = admin(
            system,
            Operation.START_FUNCTION,
            "edge0",
            [("img", "img-retrieve"), ("mem", "1000000"), ("cpu", "0.1")],
            rqi="start-1",
        )
        assert responses[0].status is StatusCode.OK
        body = fields(responses[0])
        assert body["port"] == "62591"
        assert worker.enabled(FunctionKind.RETRIEVE)

    def test_crash_isolates_other_functions(self, config):
        # seed fixed: retrieve latencies with and without the crash must match
        crashed = build_system(config, "edge", 42)
        crashed.prepare()
        admin(crashed, Operation.CRASH, "edge0", [("fn", "SUBSCRIPTION")], rqi="c2")
        control = build_system(config, "edge", 42)
        control.prepare()
        with_crash = [s.rtt_ms for s in crashed.run_workload("retrieve", 5)]
        without = [s.rtt_ms for s in control.run_workload("retrieve", 5)]
        assert with_crash == without


class TestOneStartPath:
    """Instantiate, START_FUNCTION and a crash's respawn run the notification
    function through one start path: each logs its ``start_complete`` one
    start delay after the start began, and resumes the edge's notification
    channel, which then sends what waited in it."""

    @staticmethod
    def starts(worker) -> list[tuple[str, float]]:
        return [(e["action"], e["ts"]) for e in worker.log
                if e.get("function") == "NOTIFICATION" and e["action"] != "stop"]

    @staticmethod
    def create_on_edge(system, rqi="mid-1"):
        """Issue one eager create at the edge without running the simulator."""
        body = encode_body([("nm", rqi), ("pc", encode_b64(b"v"))])
        req = RequestPrimitive(Operation.CREATE, "MN-CSE/Pedestrians/CitizenB/location", system.device_id,
                               rqi, resource_kind=ResourceKind.CONTENT_INSTANCE, content=body)
        system.devices[system.device_id].issue(req, "edge0", 400, lambda resp: None)

    @pytest.mark.parametrize("step", ["instantiate", "start", "respawn"])
    def test_each_start_completes_through_one_step(self, config, step):
        system = build_system(config, "edge", 42)
        edge = system.edges["edge0"]
        system.prepare()
        began = "start_begin"
        if step == "start":
            admin(system, Operation.STOP_FUNCTION, "edge0", [("fn", "NOTIFICATION")], rqi="stop-1")
            self.create_on_edge(system)
            system.run_until_idle()
            assert edge.channel.sent == 0  # its notification waits in the paused channel
            image = config.catalogue.lookup(FunctionKind.NOTIFICATION)
            admin(system, Operation.START_FUNCTION, "edge0",
                  [("img", image.image_id), ("mem", "1000000"), ("cpu", "0.1")], rqi="start-1")
        elif step == "respawn":
            began = "respawn_begin"
            # created as the crash is answered, before the respawn completes
            admin(system, Operation.CRASH, "edge0", [("fn", "NOTIFICATION")],
                  on_response=lambda resp: self.create_on_edge(system))
        else:
            self.create_on_edge(system)
            system.run_until_idle()
        (first, begun_at), (last, done_at) = self.starts(edge.worker)[-2:]
        assert (first, last) == (began, "start_complete")
        assert done_at - begun_at == config.start_delay_ms
        assert edge.channel.sent == 1 and edge.channel.idle
        assert system.cloud.coordinator.bindings["task-citizenB"].stats.notifications_applied == 1


def test_a_second_create_stream_names_its_creates_anew(config, monkeypatch):
    """``run_workload`` names creates from a count kept per deployment, so a
    second stream's creates do not collide with the first's."""
    system = build_system(config, "edge", 42)
    system.prepare()
    device = system.devices[system.device_id]
    replies, issue = [], device.issue

    def recorded(req, server, size, on_response):
        issue(req, server, size, lambda resp: (replies.append(resp.status), on_response(resp)))

    monkeypatch.setattr(device, "issue", recorded)
    system.run_workload("create", 3)
    system.run_workload("create", 5)
    assert replies == [StatusCode.CREATED] * 8
    assert system.cloud.coordinator.bindings["task-citizenB"].stats.notifications_applied == 8


class TestLazyRedirectOverTheWire:
    def test_cloud_serves_edge_data_while_bound(self, config):
        config = replace(config, sync_mode=SyncMode.LAZY)
        system = build_system(config, "edge", 42)
        system.prepare()
        system.run_workload("create", 4)  # new instances only on the edge
        device = system.devices[system.device_id]
        responses = []
        req = RequestPrimitive(
            Operation.RETRIEVE,
            "IN-CSE/Pedestrians/CitizenB/location/la",
            device.node_id,
            "red-1",
        )
        device.issue(req, system.cloud_id, 400, responses.append)
        system.run_until_idle()
        assert responses[0].status is StatusCode.OK
        view = decode_resource(responses[0].content)
        assert view.path.startswith("MN-CSE/")  # served by the edge tree
        assert view.name == "medge00003"
        binding = system.cloud.coordinator.bindings["task-citizenB"]
        assert binding.stats.redirects_served == 1

    def test_untouched_paths_still_served_by_cloud(self, config):
        config = replace(config, sync_mode=SyncMode.LAZY)
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        responses = []
        system.cloud.tree.create(
            ResourcePath.parse("IN-CSE"), ResourceKind.CONTAINER, "Other"
        )
        system.cloud.tree.drain_events()
        req = RequestPrimitive(Operation.RETRIEVE, "IN-CSE/Other", device.node_id, "o-1")
        device.issue(req, system.cloud_id, 400, responses.append)
        system.run_until_idle()
        view = decode_resource(responses[0].content)
        assert view.path == "IN-CSE/Other"


def mirror_create_status(system) -> StatusCode:
    """The cloud's answer to a device's CREATE under the task's mirror."""
    req = RequestPrimitive(
        operation=Operation.CREATE,
        to="IN-CSE/Pedestrians/CitizenB/location",
        originator=system.device_id,
        request_id="wr-1",
        resource_kind=ResourceKind.CONTENT_INSTANCE,
        content=encode_fieldline(
            [("nm", "intruder"), ("pc", base64.b64encode(b"x").decode())]
        ).encode("ascii"),
    )
    return issue_and_run(system, req, system.cloud_id, 400)[0].status


class TestEdgeAuthorityOverTheWire:
    def test_cloud_mode_write_into_bound_subtree_conflicts(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        assert mirror_create_status(system) is StatusCode.CONFLICT

    def test_a_stale_replay_leaves_the_guard_in_place(self, config):
        """A replayed delete of a child the mirror no longer holds is dropped
        as stale, and the guard the replay lifted is back."""
        system = build_system(config, "edge", 42)
        system.prepare()
        gone = ResourceView(ResourceKind.CONTENT_INSTANCE, "ghost", 0.0, 0.0, content=b"x")
        body = NotifyBody("deleted", "MN-CSE/Pedestrians/CitizenB/location/ghost", gone)
        req = RequestPrimitive(Operation.NOTIFY, "IN-CSE/Pedestrians/CitizenB/location",
                               system.device_id, "ntf-stale", content=body)
        assert [r.status for r in issue_and_run(system, req, system.cloud_id)] == [StatusCode.OK]
        assert system.cloud.coordinator.bindings["task-citizenB"].stats.stale_dropped == 1
        assert system.cloud.tree.guard is system.cloud.coordinator._guard
        assert mirror_create_status(system) is StatusCode.CONFLICT

    def test_event_log_shows_no_foreign_mirror_mutations(self, config):
        """Replay the cloud service log: while the binding is open, no
        mutating dispatch inside the mirror subtree may have succeeded."""
        system = build_system(config, "edge", 42, trace="full")  # logs every dispatch
        system.prepare()
        device = system.devices[system.device_id]
        system.run_workload("create", 5)  # edge-side activity, synced eagerly
        for i, (kind, name) in enumerate(
            [(ResourceKind.CONTENT_INSTANCE, "x1"), (ResourceKind.CONTAINER, "x2")]
        ):
            pairs = [("nm", name)]
            if kind is ResourceKind.CONTENT_INSTANCE:
                pairs.append(("pc", base64.b64encode(b"v").decode()))
            req = RequestPrimitive(
                operation=Operation.CREATE,
                to="IN-CSE/Pedestrians/CitizenB/location",
                originator=device.node_id,
                request_id=f"forn-{i}",
                resource_kind=kind,
                content=encode_fieldline(pairs).encode("ascii"),
            )
            device.issue(req, system.cloud_id, 400, lambda resp: None)
        system.run_until_idle()
        mutating = {"CREATE", "UPDATE", "DELETE"}
        foreign = [
            (entry["op"], entry["status"])
            for entry in system.cloud.service.log
            if entry["action"] == "dispatch" and entry["to"] == "IN-CSE/Pedestrians/CitizenB/location"
        ]
        assert foreign == [("CREATE", 4009), ("CREATE", 4009)]  # the oracle sees both writes
        offending = [
            entry
            for entry in system.cloud.service.log
            if entry["action"] == "dispatch"
            and entry["op"] in mutating
            and entry["status"] in (2000, 2001)
            and entry.get("to", "").startswith("IN-CSE/Pedestrians/CitizenB")
        ]
        assert offending == []
        # while the sync engine itself did advance the mirror
        latest = system.cloud.tree.latest_instance(
            system.cloud.tree.resolve(
                ResourcePath.parse("IN-CSE/Pedestrians/CitizenB/location")
            )
        )
        assert latest.name == "medge00004"


CLOUD_TASK_ROOT = ResourcePath.parse("IN-CSE/Pedestrians/CitizenB")
EDGE_TASK_ROOT = ResourcePath.parse("MN-CSE/Pedestrians/CitizenB")


def task_records(tree: ResourceTree, root: ResourcePath) -> tuple:
    """The records of the task subtree's bundle, which name no cse label."""
    return make_bundle(tree, root, "t", 0.0).records


class TestTerminationOverTheWire:
    def test_terminate_finalizes_lazy_binding_and_stops_functions(self, config):
        config = replace(config, sync_mode=SyncMode.LAZY)
        system = build_system(config, "edge", 42)
        system.prepare()
        system.run_workload("create", 5)
        edge_tree = system.edges["edge0"].worker.tree
        before = task_records(edge_tree, EDGE_TASK_ROOT)
        responses = admin(
            system,
            Operation.SLICE_TERMINATE,
            system.cloud_id,
            [("slc", "slice-edge0")],
            rqi="term-1",
        )
        assert responses[0].status is StatusCode.OK
        body = fields(responses[0])
        assert body["synced"] == "5"
        assert system.edges["edge0"].worker.functions == {}
        assert system.cloud.orchestrator.registry == {}
        assert system.cloud.coordinator.bindings == {}
        # the mirror holds what the edge held; the edge holds the task no more
        assert task_records(system.cloud.tree, CLOUD_TASK_ROOT) == before
        with pytest.raises(NotFoundError):
            edge_tree.resolve(EDGE_TASK_ROOT)
        # a fresh identical request instantiates again
        system.send_service_request()
        system.run_until_idle()
        decisions = [d["decision"] for d in system.cloud.orchestrator.decision_log]
        assert decisions == ["instantiate_then_offload"] * 2
        assert set(running(system.edges["edge0"].worker)) == config.functions

    @pytest.mark.parametrize("mode", [SyncMode.LAZY, SyncMode.EAGER], ids=["lazy", "eager"])
    def test_a_terminated_task_is_offloaded_again(self, config, mode):
        system = build_system(replace(config, sync_mode=mode), "edge", 42)
        system.prepare()
        system.run_workload("create", 3)
        assert admin(system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")])[0].ok
        system.prepare()
        edge_tree = system.edges["edge0"].worker.tree
        grouping = edge_tree.resolve(EDGE_TASK_ROOT.parent())
        assert [c.name for c in edge_tree.children(grouping.id)] == ["CitizenB"]
        assert task_records(edge_tree, EDGE_TASK_ROOT) == task_records(
            system.cloud.tree, CLOUD_TASK_ROOT
        )
        assert len(task_records(edge_tree, EDGE_TASK_ROOT)) == 2 + config.prepopulate + 3
        binding = system.cloud.coordinator.bindings["task-citizenB"]
        assert binding.mode is mode and binding.edge_root == EDGE_TASK_ROOT
        system.run_workload("create", 2, record_as="again")
        assert len(task_records(edge_tree, EDGE_TASK_ROOT)) == 2 + config.prepopulate + 5
        if mode is SyncMode.EAGER:
            assert subtrees_converged(system.cloud.tree, CLOUD_TASK_ROOT, edge_tree, EDGE_TASK_ROOT)

    @pytest.mark.parametrize("extra", [
        lambda records: BundleRecord(0, ResourceKind.CONTENT_INSTANCE, "la", 1.0, b"x"),
        lambda records: records[-1],  # a second child of its parent under its name
    ], ids=["reserved-name", "repeated-name"])
    def test_a_snapshot_the_mirror_refuses_is_answered_and_merges_nothing(self, config, monkeypatch,
                                                                          extra):
        """A finalize reply whose snapshot holds a record that no route may
        add is refused before the merge: the terminate gets one non-OK reply,
        the mirror is untouched and its binding stays open."""
        system = build_system(replace(config, sync_mode=SyncMode.LAZY), "edge", 42)
        system.prepare()
        system.run_workload("create", 2)

        def snapshot_with_extra(*args):
            bundle = make_bundle(*args)
            return replace(bundle, records=bundle.records + (extra(bundle.records),))

        monkeypatch.setattr(system_module, "make_bundle", snapshot_with_extra)
        before = system.cloud.tree.serialize()
        responses = admin(system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")])
        assert [r.ok for r in responses] == [False]
        assert system.cloud.tree.serialize() == before
        assert system.cloud.coordinator.bindings["task-citizenB"].mode is SyncMode.LAZY
        # the guard the merge lifted is back
        assert system.cloud.tree.guard is system.cloud.coordinator._guard
        assert mirror_create_status(system) is StatusCode.CONFLICT

    def test_an_eager_slice_without_the_notification_function_terminates(self):
        """Its edge could send no change, so the task is bound lazily, and
        the downgrade is logged: no change queues a notification, and the
        terminate's snapshot settles the mirror."""
        campus = replace(load_scenario(CAMPUS), sync_mode=SyncMode.EAGER)
        system = build_system(campus, "edge", campus.seed)
        system.prepare()
        edge_id = system.edge_for(system.device_id)
        edge = system.edges[edge_id]
        binding = system.cloud.coordinator.bindings[campus.tasks[0].task_id]
        assert binding.mode is SyncMode.LAZY and edge.sync_infos == []
        assert [e["edge"] for e in system.sim.trace if e["kind"] == "sync_downgraded"] == [edge_id]
        system.run_workload("create", 3)
        assert not edge.channel._queue and edge.channel.idle
        task_root = ResourcePath.parse(campus.tasks[0].root)
        before = task_records(edge.worker.tree, ResourcePath("MN-CSE", task_root.segments))
        responses = admin(system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", f"slice-{edge_id}")])
        assert [r.status for r in responses] == [StatusCode.OK]
        assert fields(responses[0])["synced"] == "3"
        assert task_records(system.cloud.tree, task_root) == before
        assert (edge.channel.sent, edge.channel.dropped) == (0, 0) and edge.channel.idle

    def test_a_terminate_discards_what_a_stopped_notification_function_left_queued(self, config):
        """An eager binding whose edge stops the notification function: each
        create's notification waits in the paused channel. The finalize
        snapshot supersedes them: the terminate is answered, the mirror holds
        the creates, and none of the notifications goes out later."""
        system = build_system(config, "edge", 42)
        system.prepare()
        edge = system.edges["edge0"]
        assert system.cloud.coordinator.bindings["task-citizenB"].mode is SyncMode.EAGER
        admin(system, Operation.STOP_FUNCTION, "edge0", [("fn", "NOTIFICATION")], rqi="stop-1")
        system.run_workload("create", 3)
        assert len(edge.channel._queue) == 3 and edge.channel.sent == 0
        before = task_records(edge.worker.tree, EDGE_TASK_ROOT)
        responses = admin(system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")])
        assert [r.status for r in responses] == [StatusCode.OK]
        assert fields(responses[0])["synced"] == "3"
        assert task_records(system.cloud.tree, CLOUD_TASK_ROOT) == before
        assert not edge.channel._queue
        edge.channel.resume()  # as if the notification function started now
        system.run_until_idle()
        assert (edge.channel.sent, edge.channel.dropped) == (0, 0) and edge.channel.idle

    def test_terminate_without_tasks_reports_zero(self, config):
        system = build_system(replace(config, tasks=[]), "edge", 42)
        system.prepare()
        responses = admin(
            system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")]
        )
        assert responses[0].status is StatusCode.OK
        body = fields(responses[0])
        assert body["synced"] == "0"
        assert system.edges["edge0"].worker.functions == {}

    def test_terminate_unknown_slice_not_found(self, config):
        system = build_system(config, "edge", 42)
        responses = admin(
            system,
            Operation.SLICE_TERMINATE,
            system.cloud_id,
            [("slc", "slice-ghost")],
            rqi="term-2",
        )
        assert responses[0].status is StatusCode.NOT_FOUND


class TestBoundedSyncState:
    """A long eager run keeps as much sync state as a short one: every
    binding's fields and every notification queue are the same size after
    N creates and after 10N."""

    @staticmethod
    def sync_state(system) -> dict:
        bindings = {task: {name: len(value) if isinstance(value, (set, list, dict)) else 1
                           for name, value in vars(binding).items()}
                    for task, binding in system.cloud.coordinator.bindings.items()}
        queues = {node.node_id: len(node.channel._queue) for node in (system.cloud, *system.edges.values())}
        return {"bindings": bindings, "queues": queues}

    @pytest.mark.parametrize("scenario", [reference_calibrated, lambda: load_scenario(CAMPUS)],
                             ids=["calibrated", "campus"])
    def test_sync_state_stays_flat_as_creates_go_on(self, scenario):
        config = replace(scenario(), sync_mode=SyncMode.EAGER)
        system = build_system(config, "edge", config.seed)
        system.prepare()
        system.run_workload("create", 100)
        after_n = self.sync_state(system)
        assert after_n["bindings"]
        system.run_workload("create", 900)
        assert self.sync_state(system) == after_n


class TestOffloadRequestEndpoint:
    def test_offload_request_binds_task(self, config):
        # request offload without the slicing pipeline (functions via admin)
        system = build_system(config, "edge", 42)
        responses = admin(
            system,
            Operation.OFFLOAD_REQUEST,
            system.cloud_id,
            [("task", "task-citizenB"), ("edge", "edge0")],
            rqi="off-1",
        )
        assert responses[0].status is StatusCode.OK
        assert "task-citizenB" in system.cloud.coordinator.bindings
        edge_tree = system.edges["edge0"].worker.tree
        assert edge_tree.resolve(ResourcePath.parse("MN-CSE/Pedestrians/CitizenB"))

    def test_offload_request_unknown_task(self, config):
        system = build_system(config, "edge", 42)
        responses = admin(
            system,
            Operation.OFFLOAD_REQUEST,
            system.cloud_id,
            [("task", "ghost"), ("edge", "edge0")],
            rqi="off-2",
        )
        assert responses[0].status is StatusCode.NOT_FOUND


class TestOffloadFailure:
    def test_graft_conflict_fails_preparation_cleanly(self, config):
        system = build_system(config, "edge", 42)
        tree = system.edges["edge0"].worker.tree
        tree.create(ResourcePath.parse("MN-CSE"), ResourceKind.CONTAINER, "Pedestrians")
        tree.create(
            ResourcePath.parse("MN-CSE/Pedestrians"), ResourceKind.CONTAINER, "CitizenB"
        )
        tree.drain_events()
        with pytest.raises(ConfigInvalidError, match="^service preparation failed: 4009 offload of 'task-citizenB' "
                                                     "failed with 4009$"):
            system.prepare()
        assert system.cloud.coordinator.bindings == {}

    def test_a_refused_export_names_its_cause(self, config):
        """The task root is gone from the cloud, so its export raises and the
        cloud answers with the error's text, which the failure repeats."""
        system = build_system(config, "edge", 42)
        system.cloud.tree.delete(CLOUD_TASK_ROOT)
        system.cloud.tree.drain_events()
        with pytest.raises(ConfigInvalidError, match="^service preparation failed: 4004 no resource at "
                                                     "IN-CSE/Pedestrians/CitizenB$"):
            system.prepare()

    def test_a_refused_eager_bundle_leaves_the_edge_tree_unchanged(self, config):
        """A container of the task already has a child named as its sync
        subscription: the edge refuses the bundle before the import, so a
        second preparation is refused for the same reason, not because the
        first left the task on the edge tree."""
        system = build_system(config, "edge", 42)
        location = ResourcePath.parse("IN-CSE/Pedestrians/CitizenB/location")
        system.cloud.tree.create(location, ResourceKind.CONTENT_INSTANCE, SYNC_SUB_NAME, content=b"x")
        system.cloud.tree.drain_events()
        edge = system.edges["edge0"]
        before = edge.worker.tree.serialize()
        replies = []
        for _ in range(2):
            system.send_service_request(on_ready=replies.append)
            system.run_until_idle()
            assert edge.worker.tree.serialize() == before
            assert edge.sync_infos == [] and system.cloud.coordinator.bindings == {}
        assert [r.status for r in replies] == [StatusCode.CONFLICT] * 2
        assert fields(replies[0])["err"] == fields(replies[1])["err"] == (
            "offload of 'task-citizenB' failed with 4000")

    def test_idempotent_reinstantiation_after_lost_record(self, config):
        """A plan listing already-running functions must not double-start."""
        system = build_system(config, "edge", 42)
        system.prepare()
        orch = system.cloud.orchestrator
        # simulate a stale handler view: the worker still runs everything
        orch._matcher_view["edge0"].discard(FunctionKind.RETRIEVE)
        system.prepare()
        worker = system.edges["edge0"].worker
        starts = [e for e in worker.log if e["action"] == "start_begin"]
        assert len(starts) == len(config.functions)  # still one start per function


class TestSliceRecord:
    """The cloud's answers to an edge's ``SLICE_RECORD``, seen at the wire."""

    @staticmethod
    def prepare_with_records(system, monkeypatch, records):
        """Run one preparation in which the edge sends ``records(body)`` for
        each record it means to send, and return the device's replies and
        the statuses with which the cloud answered the records, in order."""
        send_control = system_module.EdgeNode.send_control

        def send(self, to, op, body, rqi=""):
            for sent in records(body) if op is Operation.SLICE_RECORD else [body]:
                send_control(self, to, op, sent, rqi)

        monkeypatch.setattr(system_module.EdgeNode, "send_control", send)
        record_ids, answers = set(), []
        network_send = Network.send

        def tap(network, frm, to, payload, size_bytes):
            if isinstance(payload, RequestPrimitive) and payload.operation is Operation.SLICE_RECORD:
                record_ids.add(payload.request_id)
            elif isinstance(payload, ResponsePrimitive) and payload.request_id in record_ids:
                answers.append(payload.status)
            return network_send(network, frm, to, payload, size_bytes)

        monkeypatch.setattr(Network, "send", tap)
        replies = []
        system.send_service_request(on_ready=replies.append)
        system.run_until_idle()
        return replies, answers

    def test_a_repeated_record_is_answered_not_found_and_prepares_once(self, config, monkeypatch):
        system = build_system(config, "edge", 42)
        replies, answers = self.prepare_with_records(system, monkeypatch, lambda body: [body, body])
        assert [r.status for r in replies] == [StatusCode.OK]
        assert answers == [StatusCode.OK, StatusCode.NOT_FOUND]
        assert "task-citizenB" in system.cloud.coordinator.bindings

    def test_an_unreadable_record_is_refused_and_the_preparation_waits_on(self, config, monkeypatch):
        system = build_system(config, "edge", 42)
        replies, answers = self.prepare_with_records(
            system, monkeypatch, lambda body: [FieldBody.line(("ctx", body.fields["ctx"])), body]
        )
        assert answers == [StatusCode.BAD_REQUEST, StatusCode.OK]
        assert [r.status for r in replies] == [StatusCode.OK]
        assert "task-citizenB" in system.cloud.coordinator.bindings


class TestModeValidation:
    def test_unknown_mode_rejected(self, config):
        with pytest.raises(ConfigInvalidError):
            build_system(config, "fog", 42)


class TestReducedCatalogue:
    def test_cloud_serves_everything_even_with_a_thin_catalogue(self):
        from edgeslice.images import FunctionImage, ImageCatalogue

        thin = ImageCatalogue(
            [
                FunctionImage("img-r", FunctionKind.RETRIEVE, "1.0.0", 150_000_000),
                FunctionImage("img-d", FunctionKind.DATA_MANAGEMENT, "1.0.0", 400_000_000),
            ]
        )
        config = replace(
            reference_calibrated(),
            catalogue=thin,
            functions=frozenset({FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT}),
            sync_mode=SyncMode.LAZY,
        )
        cloud_samples = build_system(config, "cloud", 42).run_workload("create", 3)
        assert all(s.rtt_ms == pytest.approx(8.5, rel=1e-9) for s in cloud_samples)
        edge_system = build_system(config, "edge", 42)
        edge_system.prepare()
        edge_samples = edge_system.run_workload("retrieve", 3)
        assert all(s.rtt_ms == pytest.approx(37.32, rel=1e-9) for s in edge_samples)


EDGE_CONTROL = [
    Operation.SLICE_INSTANTIATE,
    Operation.BUNDLE_TRANSFER,
    Operation.SYNC_FINALIZE,
    Operation.START_FUNCTION,
    Operation.STOP_FUNCTION,
    Operation.CRASH,
]
CLOUD_CONTROL = [
    Operation.SERVICE_REQUEST,
    Operation.SLICE_RECORD,
    Operation.OFFLOAD_REQUEST,
    Operation.SLICE_TERMINATE,
]


class TestMalformedMessages:
    def test_undecodable_payloads_are_dropped_and_counted(self, config):
        system = build_system(config, "edge", 42)
        device = system.device_id
        system.network.send(device, system.cloud_id, b"op=1\nto=\xff", 0)
        system.network.send(device, "edge0", b"rqi=r\nrsc=x", 0)
        system.run_until_idle()
        assert system.cloud.malformed_dropped == 1
        assert system.edges["edge0"].malformed_dropped == 1
        # the deployment keeps working
        assert system.prepare().ok
        assert len(system.run_workload("create", 2)) == 2

    @pytest.mark.parametrize("body", [b"", b"x=1"], ids=["empty", "x=1"])
    @pytest.mark.parametrize(
        "op, at_cloud",
        [pytest.param(op, False, id=f"edge-{op.name}") for op in EDGE_CONTROL]
        + [pytest.param(op, True, id=f"cloud-{op.name}") for op in CLOUD_CONTROL],
    )
    def test_unreadable_control_body_is_answered_with_bad_request(self, config, op, at_cloud, body):
        system = build_system(config, "edge", 42)
        device = system.devices[system.device_id]
        to = system.cloud_id if at_cloud else "edge0"
        responses = []
        req = RequestPrimitive(op, to, device.node_id, "bad-1", content=body)
        device.issue(req, to, 0, responses.append)
        system.run_until_idle()
        assert [r.status for r in responses] == [StatusCode.BAD_REQUEST]
        assert responses[0].request_id == "bad-1"

    @pytest.mark.parametrize(
        "body",
        [
            b"x=1",
            b"ev=created;pt=MN-CSE/Pedestrians/CitizenB/x\nty=9;nm=x",
            b"ev=created;pt=MN-CSE/Pedestrians/CitizenB/x\nty=4;nm=x;ct=nan;lt=0.0;pc=AA%3D%3D",
        ],
        ids=["no-head", "bad-record", "nan-time"],
    )
    def test_unreadable_notify_at_the_cloud_is_answered_with_bad_request(self, config, body):
        system = build_system(config, "edge", 42)
        system.prepare()  # binds the mirror, so a readable head reaches the record
        device = system.devices[system.device_id]
        responses = []
        req = RequestPrimitive(
            Operation.NOTIFY, "IN-CSE/Pedestrians/CitizenB", device.node_id, "bad-n", content=body
        )
        device.issue(req, system.cloud_id, 0, responses.append)
        system.run_until_idle()
        assert [r.status for r in responses] == [StatusCode.BAD_REQUEST]
        assert responses[0].request_id == "bad-n"
        with pytest.raises(NotFoundError):  # nothing was grafted into the mirror
            system.cloud.tree.resolve(ResourcePath.parse("IN-CSE/Pedestrians/CitizenB/x"))

    @pytest.mark.parametrize(
        "root, status",
        [("MN-CSE/nope", StatusCode.NOT_FOUND), ("MN-CSE", StatusCode.BAD_REQUEST)],
        ids=["missing", "not-a-task-root"],
    )
    def test_finalize_of_a_root_the_edge_cannot_export_is_answered(self, config, root, status):
        system = build_system(config, "edge", 42)
        system.prepare()
        responses = admin(
            system, Operation.SYNC_FINALIZE, "edge0", [("task", "t"), ("root", root)], rqi="fin-1"
        )
        assert [r.status for r in responses] == [status]
        assert system.edges["edge0"].sync_infos  # the edge's binding is untouched


# --- every package error a request raises is answered -----------------------


def issue_and_run(system, req, server, size=0) -> list[ResponsePrimitive]:
    """Send ``req`` from the device to ``server``, run to idle and return
    the device's replies."""
    replies = []
    system.devices[system.device_id].issue(req, server, size, replies.append)
    system.run_until_idle()
    return replies


def retrieve_of_no_path(config, monkeypatch):
    """A cloud-mode retrieve of ``to=""``, whose path does not parse."""
    system = build_system(config, "cloud", 42)
    req = RequestPrimitive(Operation.RETRIEVE, "", system.device_id, "rq-a")
    return issue_and_run(system, req, system.cloud_id, config.payload_bytes), [StatusCode.BAD_REQUEST]


def unreadable_service_request_through_the_edge(config, monkeypatch):
    """A service request with no readable profile, sent through the edge as
    a device sends one: the cloud answers the device, not the edge."""
    system = build_system(config, "edge", 42)
    req = RequestPrimitive(Operation.SERVICE_REQUEST, system.cloud_id, system.device_id, "sr-b",
                           content=FieldBody.line(("svc", "road-warning")))
    replies = issue_and_run(system, req, system.edge_for(system.device_id))
    return replies, [StatusCode.BAD_REQUEST]


def offload_to_a_node_that_is_no_edge_worker(config, monkeypatch):
    """An offload request naming a node the topology lacks: refused before
    the task is exported, where the bundle's send once raised."""
    system = build_system(config, "edge", 42)
    exported = []
    monkeypatch.setattr(system.cloud.coordinator, "export_task", exported.append)
    replies = admin(system, Operation.OFFLOAD_REQUEST, system.cloud_id,
                    [("task", "task-citizenB"), ("edge", "edge-ghost")])
    assert exported == []  # nothing was exported
    return replies, [StatusCode.NOT_FOUND]


def service_request_after_its_task_root_was_deleted(config, monkeypatch):
    """A device deletes the task root at the cloud; the preparation's export
    of that task then fails, and the device hears so."""
    system = build_system(config, "edge", 42)
    delete = RequestPrimitive(Operation.DELETE, config.tasks[0].root, system.device_id, "del-d")
    assert issue_and_run(system, delete, system.cloud_id, config.payload_bytes)[0].ok
    replies = []
    system.send_service_request(on_ready=replies.append)
    system.run_until_idle()
    with pytest.raises(ConfigInvalidError):
        system.prepare()
    return replies, [StatusCode.NOT_FOUND]


def record_of_a_slice_the_registry_lacks(config, monkeypatch):
    """The edge's record names a slice the cloud does not know, then the
    true record follows: the first is refused and the preparation, which
    waited on, completes on the second."""
    system = build_system(config, "edge", 42)

    def ghost_then_true(body):
        ghost = tuple((k, "slice-ghost" if k == "slc" else v) for k, v in body.lines[0])
        return [FieldBody((ghost,)), body]

    replies, answers = TestSliceRecord.prepare_with_records(system, monkeypatch, ghost_then_true)
    assert [r.status for r in replies] == [StatusCode.OK]
    return answers, [StatusCode.NOT_FOUND, StatusCode.OK]


def second_finalize_of_a_root_while_a_notification_is_in_flight(config, monkeypatch):
    """Two finalizes of one task root arrive while an edge create's notify
    is in flight, so both wait for the channel: the first snapshot removes
    the root, and the second finds it gone."""
    system = build_system(config, "edge", 42)
    system.prepare()
    device = system.devices[system.device_id]
    body = encode_body([("nm", "x1"), ("pc", encode_b64(b"hi"))])
    create = RequestPrimitive(Operation.CREATE, "MN-CSE/Pedestrians/CitizenB", device.node_id, "c-f",
                              resource_kind=ResourceKind.CONTENT_INSTANCE, content=body)
    created, finalized = [], []
    device.issue(create, "edge0", config.payload_bytes, created.append)
    finalize = FieldBody.line(("task", "task-citizenB"), ("root", "MN-CSE/Pedestrians/CitizenB"))

    def finalize_twice():
        for rqi in ("fin-1", "fin-2"):
            req = RequestPrimitive(Operation.SYNC_FINALIZE, "edge0", device.node_id, rqi, content=finalize)
            device.issue(req, "edge0", 0, finalized.append)

    system.sim.schedule(1.0, finalize_twice)  # after the create's arrival, before its notify's answer
    system.run_until_idle()
    assert [r.status for r in created] == [StatusCode.CREATED]
    return finalized, [StatusCode.OK, StatusCode.NOT_FOUND]


@pytest.mark.parametrize("case", [
    retrieve_of_no_path,
    unreadable_service_request_through_the_edge,
    offload_to_a_node_that_is_no_edge_worker,
    service_request_after_its_task_root_was_deleted,
    record_of_a_slice_the_registry_lacks,
    second_finalize_of_a_root_while_a_notification_is_in_flight,
], ids=lambda case: case.__name__)
def test_a_request_whose_handler_raises_gets_one_answer(config, monkeypatch, case):
    """Each of these once let a package error escape ``run_until_idle`` or
    answered the wrong node. Now the run ends and the requester gets one
    reply, with the status ``error_response`` maps the error to. A case
    returns the requester's replies (or, for records, their statuses)."""
    replies, expected = case(config, monkeypatch)
    assert [getattr(r, "status", r) for r in replies] == expected


def test_an_export_that_fails_sends_no_bundle(config, monkeypatch):
    """A preparation exports every task before it sends a bundle, so when
    the second task's root is gone it sends none and answers 4004."""
    second = TaskSpec("task-citizenC", "IN-CSE/Pedestrians/CitizenC", config.tasks[0].service)
    system = build_system(replace(config, tasks=[config.tasks[0], second]), "edge", 42)
    delete = RequestPrimitive(Operation.DELETE, second.root, system.device_id, "del-c")
    assert issue_and_run(system, delete, system.cloud_id, config.payload_bytes)[0].ok
    sent = []
    monkeypatch.setattr(Network, "send", logged(Network.send, sent, 3))
    replies = []
    system.send_service_request(on_ready=replies.append)
    system.run_until_idle()
    assert [r.status for r in replies] == [StatusCode.NOT_FOUND]
    assert not [m for m in sent if getattr(m, "operation", None) is Operation.BUNDLE_TRANSFER]
    assert "offload_import_complete" not in [entry["kind"] for entry in system.sim.trace]


def valid_control_bodies(system) -> dict[Operation, tuple[str, bytes]]:
    """For each control op, the node that serves it and a body it reads, on
    a prepared deployment."""
    config = system.config
    task = config.tasks[0]
    plan = SlicingPlan(PlanDecision.INSTANTIATE_THEN_OFFLOAD, "slice-edge0",
                       frozenset({FunctionKind.RETRIEVE}))
    quota = (("mem", str(config.quota.max_memory_bytes)), ("cpu", repr(config.quota.max_cpu_share)))
    image = config.catalogue.lookup(FunctionKind.RETRIEVE)
    bundle = make_bundle(system.cloud.tree, ResourcePath.parse(task.root), task.task_id, 0.0)
    head = (("ctx", "c"), ("task", task.task_id), ("mode", "eager"), ("mirror", task.root),
            ("cloud", system.cloud_id))
    cloud, edge = system.cloud_id, "edge0"
    bodies = {
        Operation.SERVICE_REQUEST: (cloud, FieldBody.line(*config.profile().to_pairs())),
        Operation.SLICE_RECORD: (cloud, FieldBody.line(("ctx", "c"), ("slc", "slice-edge0"),
                                                        ("fn", "RETRIEVE:62591"))),
        Operation.OFFLOAD_REQUEST: (cloud, FieldBody.line(("task", task.task_id), ("edge", edge))),
        Operation.SLICE_TERMINATE: (cloud, FieldBody.line(("slc", "slice-edge0"))),
        Operation.SLICE_INSTANTIATE: (edge, FieldBody((plan.to_pairs(), (("ctx", "c"),) + quota,
                                                       image.pairs))),
        Operation.BUNDLE_TRANSFER: (edge, BundleTransfer(head, bundle)),
        Operation.SYNC_FINALIZE: (edge, FieldBody.line(("task", task.task_id),
                                                       ("root", "MN-CSE/Pedestrians/CitizenB"))),
        Operation.START_FUNCTION: (edge, FieldBody.line(("img", image.image_id), *quota)),
        Operation.STOP_FUNCTION: (edge, FieldBody.line(("fn", "RETRIEVE"))),
        Operation.CRASH: (edge, FieldBody.line(("fn", "RETRIEVE"))),
    }
    return {op: (to, body.to_bytes()) for op, (to, body) in bodies.items()}


# an edit replaces ``length`` bytes at a position (a fraction of the body's
# length) with up to two bytes, drawn mostly from the field syntax
EDITS = st.lists(
    st.tuples(
        st.floats(0, 1),
        st.integers(0, 2),
        st.lists(st.sampled_from(b";=,:%\n-0129aezAEZ\xff"), max_size=2).map(bytes),
    ),
    min_size=1,
    max_size=3,
)


def edited(body: bytes, edits) -> bytes:
    for at, length, new in edits:
        i = int(at * len(body))
        body = body[:i] + new + body[i + length:]
    return body


@pytest.mark.parametrize("op", CLOUD_CONTROL + EDGE_CONTROL, ids=lambda op: op.name)
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(edits=EDITS)
def test_an_edited_control_body_never_escapes_the_run(config, op, edits):
    """Each control op at the node that serves it, with a valid body under a
    few byte edits: the run ends, and every op but an instantiate, which
    answers with a record, gets one reply, a refusal with a mapped status
    unless the edits left a body that reads."""
    system = build_system(config, "edge", 42)
    system.prepare()
    to, body = valid_control_bodies(system)[op]
    req = RequestPrimitive(op, to, system.device_id, "fz-1", content=edited(body, edits))
    replies = issue_and_run(system, req, to)
    if op is not Operation.SLICE_INSTANTIATE:
        assert len(replies) == 1
        assert replies[0].ok or replies[0].status in (
            StatusCode.BAD_REQUEST, StatusCode.NOT_FOUND, StatusCode.CONFLICT)


def logged(fn, log, position):
    """``fn``, logging the argument at ``position`` of each call."""

    def call(*args):
        log.append(args[position])
        return fn(*args)

    return call


def eager_edits(config, before_replay=None):
    """A prepared eager deployment after three creates, then a container
    ``c1`` labelled ``a`` created under the task root and, in the same
    instant, renamed ``c2`` and relabelled ``b``: both reach the edge before
    the container's notification reaches the cloud. ``before_replay`` gets,
    for each replay, its change, the resource's name and labels, and the
    names of the edge's containers under the task root at that moment."""
    system = build_system(config, "edge", 42)
    system.prepare()
    system.run_workload("create", 3)
    edge_tree = system.edges["edge0"].worker.tree
    if before_replay is not None:
        apply = system.cloud.coordinator.apply_notification

        def recorded(notify):
            root = edge_tree.resolve(EDGE_TASK_ROOT)
            names = [c.name for c in edge_tree.children(root.id) if c.name.startswith("c")]
            before_replay((notify.change, notify.resource.name, notify.resource.labels, names))
            return apply(notify)

        system.cloud.coordinator.apply_notification = recorded
    device = system.devices[system.device_id]
    replies = []
    create = RequestPrimitive(Operation.CREATE, str(EDGE_TASK_ROOT), device.node_id, "c-1",
                              resource_kind=ResourceKind.CONTAINER,
                              content=encode_body([("nm", "c1"), ("lb", "a")]))
    update = RequestPrimitive(Operation.UPDATE, str(EDGE_TASK_ROOT.child("c1")), device.node_id, "u-1",
                              content=encode_body([("nm", "c2"), ("lb", "b")]))
    for req in (create, update):
        device.issue(req, "edge0", config.payload_bytes, replies.append)
    system.run_until_idle()
    assert {r.request_id: r.status for r in replies} == {"c-1": StatusCode.CREATED, "u-1": StatusCode.OK}
    return system


class TestMessagesAsObjects:
    def test_only_data_plane_messages_are_encoded_on_their_way(self, config, monkeypatch):
        """Control messages travel as objects, their bodies as field pairs,
        the bundle as its records and the finalize reply as the bundle; each
        data-plane message on a device's access link is encoded once, by its
        sender. Only the terminate request that the test injects carries
        bytes."""
        encoded, payloads = [], []
        for cls in (RequestPrimitive, ResponsePrimitive):
            monkeypatch.setattr(cls, "encode", logged(cls.encode, encoded, 0))
        # without the wire check, which encodes every message
        monkeypatch.setattr(Network, "send", logged(UNCHECKED_SEND, payloads, 3))
        system = build_system(replace(config, sync_mode=SyncMode.LAZY), "edge", 42)
        system.prepare()
        system.run_workload("create", 3)
        system.run_workload("retrieve", 2)
        assert admin(system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")])[0].ok
        raw = [p for p in payloads if isinstance(p, bytes)]
        assert len(raw) == 10  # five data requests and their responses
        assert len(encoded) == len(raw)
        objects = [p for p in payloads if not isinstance(p, bytes)]
        injected = [m for m in objects if isinstance(m, RequestPrimitive) and m.request_id == "adm-1"]
        assert len(injected) == 1 and isinstance(injected[0].content, bytes)
        sent = [m for m in objects if m is not injected[0]]
        assert not [m for m in sent if isinstance(m.content, bytes)]
        assert {type(m.content) for m in sent} == {FieldBody, type(None), BundleTransfer, OffloadBundle}

    def test_eager_sync_between_the_edge_and_the_cloud_sends_objects(self, config, monkeypatch):
        """Each notification and its answer travel as objects, the
        notification's content as a ``NotifyBody``; only the device's
        messages are encoded."""
        payloads = []
        monkeypatch.setattr(Network, "send", logged(UNCHECKED_SEND, payloads, 3))
        system = build_system(config, "edge", 42)
        system.prepare()
        del payloads[:]
        system.run_workload("create", 3)
        assert sum(isinstance(p, bytes) for p in payloads) == 6  # three creates and their replies
        notifies = [p for p in payloads if getattr(p, "operation", None) is Operation.NOTIFY]
        assert len(notifies) == 3 and {type(n.content) for n in notifies} == {NotifyBody}
        answers = [p for p in payloads if isinstance(p, ResponsePrimitive)]
        assert [a.request_id for a in answers] == [n.request_id for n in notifies]

    def test_notifies_injected_as_bytes_leave_the_same_mirror(self, config, monkeypatch):
        """A notification that arrives as its ``encode()`` is decoded and
        replayed as the object would be, renames and labels included."""
        injected = []

        def notifies_as_bytes(self, frm, to, payload, size):
            if isinstance(payload, RequestPrimitive) and payload.operation is Operation.NOTIFY:
                injected.append(payload.request_id)
                payload = payload.encode()
            return send(self, frm, to, payload, size)

        as_objects = eager_edits(config)
        send = Network.send
        monkeypatch.setattr(Network, "send", notifies_as_bytes)
        as_bytes = eager_edits(config)
        assert len(injected) == 5  # three creates, a container, and its rename with its relabel
        assert as_bytes.cloud.tree.serialize() == as_objects.cloud.tree.serialize()
        edge_tree = as_bytes.edges["edge0"].worker.tree
        assert subtrees_converged(as_bytes.cloud.tree, CLOUD_TASK_ROOT, edge_tree, EDGE_TASK_ROOT)

    def test_a_rename_and_relabel_before_the_create_s_notify_lands_converge(self, config):
        """A notification carries the resource as it was at the change, so
        the create's replay grafts ``c1`` with its first label, and the
        update's replay renames and relabels it."""
        seen = []
        system = eager_edits(config, before_replay=seen.append)
        assert seen == [("created", "c1", ("a",), ["c2"]), ("updated", "c2", ("b",), ["c2"])]
        mirror = system.cloud.tree
        assert mirror.resolve(CLOUD_TASK_ROOT.child("c2")).labels == ("b",)
        with pytest.raises(NotFoundError):
            mirror.resolve(CLOUD_TASK_ROOT.child("c1"))
        edge_tree = system.edges["edge0"].worker.tree
        assert subtrees_converged(mirror, CLOUD_TASK_ROOT, edge_tree, EDGE_TASK_ROOT)

    def test_a_bundle_transfer_sent_as_bytes_is_imported(self, config):
        system = build_system(config, "edge", 42)
        device = system.devices[system.device_id]
        task_root = ResourcePath.parse("IN-CSE/Pedestrians/CitizenB")
        bundle = make_bundle(system.cloud.tree, task_root, "task-citizenB", 0.0)
        transfer = BundleTransfer((("task", "task-citizenB"), ("mode", "lazy")), bundle)
        req = RequestPrimitive(Operation.BUNDLE_TRANSFER, "edge0", device.node_id, "raw-1", content=transfer)
        responses = []
        device.pending["raw-1"] = responses.append
        system.network.send(device.node_id, "edge0", req.encode(), 0)
        system.run_until_idle()
        assert [r.status for r in responses] == [StatusCode.OK]
        edge_tree = system.edges["edge0"].worker.tree
        imported = make_bundle(edge_tree, ResourcePath("MN-CSE", task_root.segments), "t", 0.0)
        assert imported.records == bundle.records

    def test_a_bundle_transfer_with_a_forward_parent_index_is_unreadable(self, config):
        """Its body decodes to no bundle, so it is answered 4000 and the
        edge tree is not touched."""
        system = build_system(config, "edge", 42)
        device = system.devices[system.device_id]
        task_root = ResourcePath.parse("IN-CSE/Pedestrians/CitizenB")
        bundle = make_bundle(system.cloud.tree, task_root, "task-citizenB", 0.0)
        body = BundleTransfer((("task", "task-citizenB"), ("mode", "lazy")), bundle).to_bytes()
        first_child = b"\npi=0;"
        assert body.count(first_child) == 1 and len(bundle.records) > 2
        body = body.replace(first_child, b"\npi=2;")  # names the record after it
        req = RequestPrimitive(Operation.BUNDLE_TRANSFER, "edge0", device.node_id, "raw-2", content=body)
        responses = []
        device.pending["raw-2"] = responses.append
        edge_tree = system.edges["edge0"].worker.tree
        before = edge_tree.serialize()
        system.network.send(device.node_id, "edge0", req.encode(), 0)
        system.run_until_idle()
        assert [r.status for r in responses] == [StatusCode.BAD_REQUEST]
        assert b"parent index 2" in responses[0].content
        assert edge_tree.serialize() == before

    def test_a_bundle_transfer_carrying_a_subscription_is_refused(self, config):
        """A subscription record would be grafted with no notification
        target, and the next create under its container would fail while
        matching it. The import is refused as a whole, and the create after
        it is served."""
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        bundle = OffloadBundle("task-x", 0.0, "IN-CSE/Injected/box", (
            BundleRecord(-1, ResourceKind.CONTAINER, "box", 0.0),
            BundleRecord(0, ResourceKind.SUBSCRIPTION, "s", 0.0),
        ))
        body = BundleTransfer((("task", "task-x"), ("mode", "lazy")), bundle).to_bytes()
        req = RequestPrimitive(Operation.BUNDLE_TRANSFER, "edge0", device.node_id, "raw-3", content=body)
        responses = []
        device.pending["raw-3"] = responses.append
        edge_tree = system.edges["edge0"].worker.tree
        before = edge_tree.serialize()
        system.network.send(device.node_id, "edge0", req.encode(), 0)
        system.run_until_idle()
        assert [r.ok for r in responses] == [False]
        # malformed, not conflicting: the import refuses it with 4000
        assert [r.status for r in responses] == [StatusCode.BAD_REQUEST]
        assert b"notification target" in responses[0].content
        assert edge_tree.serialize() == before
        create = RequestPrimitive(Operation.CREATE, "MN-CSE/Injected/box", device.node_id, "raw-4",
                                  ResourceKind.CONTENT_INSTANCE, b"nm=c1;pc=AA%3D%3D")
        device.issue(create, "edge0", 0, responses.append)
        system.run_until_idle()
        assert [r.status for r in responses[1:]] == [StatusCode.NOT_FOUND]
        assert len(system.run_workload("create", 1)) == 1

    @pytest.mark.parametrize("root, record", [
        ("IN-CSE/Injected/ci", BundleRecord(-1, ResourceKind.CONTENT_INSTANCE, "ci", 0.0, b"x")),
        ("IN-CSE", BundleRecord(-1, ResourceKind.CONTAINER, "IN-CSE", 0.0)),
    ], ids=["instance", "cse-base"])
    def test_a_bundle_transfer_whose_task_root_is_no_ae_or_container_is_refused(self, config, root,
                                                                                 record):
        """An export roots a task only at an Ae or a Container below the cse
        base, and an import refuses any other root with 4000, before it
        looks at the edge tree."""
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        bundle = OffloadBundle("task-x", 0.0, root, (record,))
        body = BundleTransfer((("task", "task-x"), ("mode", "lazy")), bundle).to_bytes()
        req = RequestPrimitive(Operation.BUNDLE_TRANSFER, "edge0", device.node_id, "raw-5", content=body)
        responses = []
        device.pending["raw-5"] = responses.append
        edge_tree = system.edges["edge0"].worker.tree
        before = edge_tree.serialize()
        system.network.send(device.node_id, "edge0", req.encode(), 0)
        system.run_until_idle()
        assert [r.status for r in responses] == [StatusCode.BAD_REQUEST]
        assert edge_tree.serialize() == before


def populated_the_old_way(config) -> ResourceTree:
    tree = ResourceTree("IN-CSE")
    populate_cloud_tree(tree, config)
    return tree


def cloud_template(config) -> ResourceTree:
    """The cached tree that ``initial_cloud_tree`` copies for ``config``."""
    populate = config.populate or [(config.workload_target, config.prepopulate)]
    return system_module._cloud_template(
        tuple(spec.root for spec in config.tasks), tuple(populate), config.payload_bytes
    )


class TestInitialCloudTree:
    @pytest.mark.parametrize("variant", ["calibrated", "road", "many-instances"])
    def test_deployments_start_from_the_tree_the_old_populate_built(self, config, variant):
        config = {
            "calibrated": config,
            "road": road_config(),
            "many-instances": replace(config, prepopulate=40, payload_bytes=7),
        }[variant]
        oracle = populated_the_old_way(config)
        first, second = build_system(config, "edge", 1), build_system(config, "cloud", 2)
        for system in (first, second):
            assert system.cloud.tree.serialize() == oracle.serialize()
            assert trees_equal(system.cloud.tree, oracle)
            assert system.cloud.tree.guard == system.cloud.coordinator._guard
            assert system.cloud.tree.drain_events() == []
        assert first.cloud.tree is not second.cloud.tree
        # the next write on a deployment's tree gets the id and event id it
        # would get on a tree populated one create at a time
        created = []
        for tree in (first.cloud.tree, oracle):
            target = ResourcePath.parse(config.workload_target)
            tree.create(target, ResourceKind.CONTENT_INSTANCE, None, content=b"next")
            (event,) = tree.drain_events()
            created.append((event.event_id, event.resource.id, tree.serialize()))
        assert created[0] == created[1]

    def test_one_deployment_s_writes_do_not_reach_the_next(self, config):
        oracle = populated_the_old_way(config).serialize()
        template = cloud_template(config)

        def untouched() -> None:
            assert template.serialize() == oracle
            assert build_system(config, "edge", 42).cloud.tree.serialize() == oracle

        system = build_system(config, "edge", 42)
        tree = system.cloud.tree
        target = ResourcePath.parse(config.workload_target)
        assert tree.resolve(target.child("p0")) is template.resolve(target.child("p0"))
        assert tree.resolve(target) is not template.resolve(target)

        def labels_in_place() -> None:
            node = tree.resolve(target)
            with pytest.raises(AttributeError):  # labels are a tuple
                node.labels.append("in-place")
            node.labels += ("in-place",)

        writes = [
            lambda: tree.create(target, ResourceKind.CONTENT_INSTANCE, "extra", content=b"x"),
            lambda: tree.update(target, labels=["changed"]),
            labels_in_place,
            lambda: tree.delete(target.child("p1")),  # an instance shared with the template
            lambda: tree.delete(target),  # the container of the shared instances
            lambda: tree.update(target.parent(), name="Renamed"),
            lambda: tree.delete(target.parent().parent().child("Renamed")),
        ]
        for write in writes:
            write()
            untouched()
        # the shared instances stay write-once on every deployment
        shared = build_system(config, "edge", 42).cloud.tree
        with pytest.raises(BadRequestError, match="write-once"):
            shared.update(target.child("p0"), labels=["changed"])
        untouched()
        served = build_system(config, "cloud", 42)
        served.run_workload("create", 3)
        untouched()
        # a lazy finalize replaces the mirror's p0 with the edge's changed one
        lazy = build_system(replace(config, sync_mode=SyncMode.LAZY), "edge", 42)
        lazy.prepare()
        edge_tree = lazy.edges["edge0"].worker.tree
        edge_p0 = ResourcePath.parse(lazy.data_target()).child("p0")
        edge_tree.delete(edge_p0)
        edge_tree.create(edge_p0.parent(), ResourceKind.CONTENT_INSTANCE, "p0", content=b"changed")
        edge_tree.drain_events()
        assert admin(lazy, Operation.SLICE_TERMINATE, lazy.cloud_id, [("slc", "slice-edge0")])[0].ok
        assert lazy.cloud.tree.resolve(target.child("p0")).content == b"changed"
        untouched()

    @pytest.mark.parametrize(
        "change",
        [
            {"payload_bytes": 37},
            {"prepopulate": 6},
            {"populate": [("IN-CSE/Pedestrians/CitizenB/location", 2), ("IN-CSE/Other/box", 1)]},
            {"tasks": [TaskSpec("task-citizenB", "IN-CSE/Pedestrians/CitizenB", "road-warning"),
                       TaskSpec("task-carA", "IN-CSE/Cars/CarA", "road-warning")]},
        ],
        ids=["payload_bytes", "prepopulate", "populate", "task-root"],
    )
    def test_configs_that_differ_in_one_key_get_their_own_trees(self, config, change):
        base = build_system(config, "edge", 42).cloud.tree.serialize()
        changed = replace(config, **change)
        tree = build_system(changed, "edge", 42).cloud.tree
        assert tree.serialize() != base
        assert tree.serialize() == populated_the_old_way(changed).serialize()
        assert build_system(config, "edge", 42).cloud.tree.serialize() == base

    def test_deployments_of_one_config_ship_the_template_s_export(self, config, monkeypatch):
        """A deployment's cloud tree is a copy of the template that neither
        has changed, so its ``BUNDLE_TRANSFER`` carries the record tuple the
        template built. One whose tree gained a node under the task root
        before ``prepare`` ships records built afresh, as the oracle exports
        them."""
        sent = []
        monkeypatch.setattr(Network, "send", logged(UNCHECKED_SEND, sent, 3))
        root = ResourcePath.parse(config.tasks[0].root)

        def shipped(system) -> tuple:
            sent.clear()
            system.prepare()
            (transfer,) = [m.content for m in sent if isinstance(m.content, BundleTransfer)]
            return transfer.bundle.records

        first, second = (shipped(build_system(config, "edge", seed)) for seed in (1, 2))
        assert first is second
        changed = build_system(config, "edge", 3)
        changed.cloud.tree.create(root, ResourceKind.CONTAINER, "added")
        expected = bundle_oracle.make_bundle(changed.cloud.tree, root, "t", 0.0).records
        fresh = shipped(changed)
        assert fresh is not first and len(fresh) == len(first) + 1
        assert bundle_oracle.as_paths(OffloadBundle("t", 0.0, str(root), fresh)).records == expected
        assert shipped(build_system(config, "edge", 4)) is first

    def test_an_invalid_populate_path_raises_on_every_build(self, config):
        broken = replace(config, populate=[("MN-CSE/Elsewhere/box", 2)])
        for _ in range(2):
            with pytest.raises(NotFoundError):
                build_system(broken, "edge", 42)


class TestEventCap:
    def test_a_workload_may_run_past_the_default_cap(self, config, monkeypatch):
        system = build_system(config, "edge", 42)
        system.prepare()
        monkeypatch.setattr(netsim, "DEFAULT_MAX_EVENTS", 50)
        executed = []
        run = system.sim.run_until_idle
        monkeypatch.setattr(system.sim, "run_until_idle", lambda *args: executed.append(run(*args)))
        assert len(system.run_workload("create", 30)) == 30
        assert executed[0] > 50  # five events per edge create

    def test_direct_runs_keep_the_default_cap(self, config, monkeypatch):
        monkeypatch.setattr(netsim, "DEFAULT_MAX_EVENTS", 5)
        system = build_system(config, "edge", 42)
        with pytest.raises(SimulationLimitError, match="exceeded 5 events"):
            system.prepare()


def test_each_cloud_runs_its_own_copy_of_the_started_builtins():
    config = reference_calibrated()
    one, two = build_system(config, "cloud", 1), build_system(config, "cloud", 2)
    assert running(one.cloud.service) == {fn: port_for(fn) for fn in FunctionKind}
    assert one.cloud.service.log == []  # the start-up is not logged
    for fn in FunctionKind:
        mine, theirs = one.cloud.service.functions[fn], two.cloud.service.functions[fn]
        assert mine == theirs and mine is not theirs
        assert (mine.started_at, mine.quota) == (0.0, ResourceQuota(1, 1.0))
    one.cloud.service.stop_function(FunctionKind.RETRIEVE)
    assert two.cloud.service.enabled(FunctionKind.RETRIEVE)


def test_only_a_deployment_with_jitter_seeds_its_random_stream(monkeypatch):
    # the stream is seeded on its first draw, with the simulator's seed, so
    # the jittery_campus goldens (test_golden.py) still read the same draws
    seeded = []
    seed = random.Random.seed
    monkeypatch.setattr(random.Random, "seed", lambda self, *args: seeded.append(args) or seed(self, *args))
    system = build_system(reference_calibrated(), "edge", 42)
    system.prepare()
    system.run_workload("create", 3)
    system.run_workload("retrieve", 3)
    assert seeded == []
    system = build_system(load_scenario(CAMPUS), "edge", 42)
    system.prepare()
    system.run_workload("retrieve", 3)
    assert seeded == [(derive_seed(42, "edge"),)]


# --- a deployment frees itself ---


def _cold(config):
    return replace(config, pre_seeded_cache=False)


def _prepared(config):
    system = build_system(config, "edge", 42)
    system.prepare()
    return system


def _prepare_terminate_prepare():
    system = _prepared(_cold(reference_calibrated()))
    assert admin(system, Operation.SLICE_TERMINATE, system.cloud_id, [("slc", "slice-edge0")])[0].ok
    assert system.prepare().ok
    return system


def _streamed(system, operation, **addressing):
    system.run_workload(operation, 20, **addressing)
    return system


def _campus_redirected_retrieves():
    system = _prepared(load_scenario(CAMPUS))
    return _streamed(system, "retrieve", target=system.config.workload_target, server=system.cloud_id)


DEPLOYMENTS = {
    "cold-eager-calibrated": lambda: _prepared(_cold(reference_calibrated())),
    "cold-lazy-campus": lambda: _prepared(_cold(load_scenario(CAMPUS))),
    "prepare-terminate-prepare": _prepare_terminate_prepare,
    "eager-edge-creates": lambda: _streamed(_prepared(reference_calibrated()), "create"),
    "cloud-la-retrieves": lambda: _streamed(build_system(reference_calibrated(), "cloud", 42), "retrieve"),
    "campus-redirected-retrieves": _campus_redirected_retrieves,
}


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_a_dropped_deployment_is_freed_without_the_collector(deployment):
    """One strong path runs from a ``System`` down and nothing points back
    up, so the last reference to a deployment frees it at once: with the
    collector off, its weak reference dies as it is dropped, and a
    collection then finds nothing to free."""
    DEPLOYMENTS[deployment]()  # fills the per-process caches
    gc.collect()
    gc.disable()
    try:
        dropped = weakref.ref(DEPLOYMENTS[deployment]())
        alive, collected = dropped() is not None, gc.collect()
    finally:
        gc.enable()
    assert (alive, collected) == (False, 0)
