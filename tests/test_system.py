"""Integration tests over the wire: every exchange is a primitive routed
through the simulated network, as an object or as its encoding."""
import base64

import pytest

from edgeslice.bench import build_system
from edgeslice.errors import ConfigInvalidError
from edgeslice.netsim import Network
from edgeslice.offload import BundleTransfer, OffloadBundle, SyncMode, make_bundle, subtrees_converged
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    decode_fieldline,
    decode_resource,
    encode_fieldline,
)
from edgeslice.resources import ResourceKind, ResourcePath
from edgeslice.scenario import reference_calibrated
from edgeslice.slicing import FunctionKind

from dataclasses import replace

# before the wire check of conftest.py wraps it for each test
UNCHECKED_SEND = Network.send


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


class TestPreparation:
    def test_edge_prepare_starts_profile_and_offloads(self, config):
        system = build_system(config, "edge", 42)
        ready = system.prepare()
        meta = decode_fieldline((ready.content or b"").decode("ascii"))
        assert meta["edge"] == "edge0"
        assert "MN-CSE/Pedestrians/CitizenB" in meta["roots"]
        worker = system.edges["edge0"].worker
        assert set(worker.running_functions()) == config.functions
        # one eager binding is registered cloud-side
        binding = system.cloud.coordinator.binding_of("task-citizenB")
        assert binding.mode is SyncMode.EAGER
        assert str(binding.edge_root) == "MN-CSE/Pedestrians/CitizenB"

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
        body = decode_fieldline((responses[0].content or b"").decode("ascii"))
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
        binding = system.cloud.coordinator.binding_of("task-citizenB")
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


class TestEdgeAuthorityOverTheWire:
    def test_cloud_mode_write_into_bound_subtree_conflicts(self, config):
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        responses = []
        req = RequestPrimitive(
            operation=Operation.CREATE,
            to="IN-CSE/Pedestrians/CitizenB/location",
            originator=device.node_id,
            request_id="wr-1",
            resource_kind=ResourceKind.CONTENT_INSTANCE,
            content=encode_fieldline(
                [("nm", "intruder"), ("pc", base64.b64encode(b"x").decode())]
            ).encode("ascii"),
        )
        device.issue(req, system.cloud_id, 400, responses.append)
        system.run_until_idle()
        assert responses[0].status is StatusCode.CONFLICT

    def test_event_log_shows_no_foreign_mirror_mutations(self, config):
        """Replay the cloud service log: while the binding is open, no
        mutating dispatch inside the mirror subtree may have succeeded."""
        system = build_system(config, "edge", 42)
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


class TestTerminationOverTheWire:
    def test_terminate_finalizes_lazy_binding_and_stops_functions(self, config):
        config = replace(config, sync_mode=SyncMode.LAZY)
        system = build_system(config, "edge", 42)
        system.prepare()
        system.run_workload("create", 5)
        responses = admin(
            system,
            Operation.SLICE_TERMINATE,
            system.cloud_id,
            [("slc", "slice-edge0")],
            rqi="term-1",
        )
        assert responses[0].status is StatusCode.OK
        body = decode_fieldline((responses[0].content or b"").decode("ascii"))
        assert body["synced"] == "5"
        assert system.edges["edge0"].worker.functions == {}
        assert system.cloud.orchestrator.registry == {}
        assert system.cloud.coordinator.bindings == {}
        assert subtrees_converged(
            system.cloud.tree,
            ResourcePath.parse("IN-CSE/Pedestrians/CitizenB"),
            system.edges["edge0"].worker.tree,
            ResourcePath.parse("MN-CSE/Pedestrians/CitizenB"),
        )

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
        with pytest.raises(ConfigInvalidError):
            system.prepare()
        assert system.cloud.coordinator.bindings == {}

    def test_idempotent_reinstantiation_after_lost_record(self, config):
        """A plan listing already-running functions must not double-start."""
        system = build_system(config, "edge", 42)
        system.prepare()
        orch = system.cloud.orchestrator
        # simulate a stale handler view: the worker still runs everything
        orch._handler_view["edge0"].discard(FunctionKind.RETRIEVE)
        system.prepare()
        worker = system.edges["edge0"].worker
        starts = [e for e in worker.log if e["action"] == "start_begin"]
        assert len(starts) == len(config.functions)  # still one start per function


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
        [b"x=1", b"ev=created;pt=MN-CSE/Pedestrians/CitizenB/x\nty=9;nm=x"],
        ids=["no-head", "bad-record"],
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


def logged(fn, log, position):
    """``fn``, logging the argument at ``position`` of each call."""

    def call(*args):
        log.append(args[position])
        return fn(*args)

    return call


class TestMessagesAsObjects:
    def test_only_data_plane_messages_are_encoded_on_their_way(self, config, monkeypatch):
        """Control messages travel as objects, the bundle as its records and
        the finalize reply as the bundle; each data-plane message is encoded
        once, by its sender."""
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
        assert {type(m.content) for m in objects} == {bytes, type(None), BundleTransfer, OffloadBundle}

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
        assert [(r.kind, r.name, r.creation_time, r.content) for r in imported.records] == [
            (r.kind, r.name, r.creation_time, r.content) for r in bundle.records
        ]
