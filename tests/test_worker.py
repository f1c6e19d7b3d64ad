import base64

import pytest

from edgeslice.errors import (
    AlreadyRunningError,
    BadRequestError,
    ImageNotCachedError,
    NotFoundError,
    NotRunningError,
    WorkerQuotaExceededError,
)
from edgeslice.images import default_catalogue
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    StatusCode,
    decode_resource,
    encode_fieldline,
)
from edgeslice.resources import ManualClock, ResourceKind
from edgeslice.slicing import FunctionKind, port_for
from edgeslice.worker import EdgeWorker, InstanceState, ResourceQuota

from util import build_demo_tree

MB = 1_000_000
QUOTA = ResourceQuota(max_memory_bytes=100 * MB, max_cpu_share=0.2)
CATALOGUE = default_catalogue()


def make_worker(clock=None, functions=(), capacity=4000 * MB, trace="control"):
    clock = clock or ManualClock()
    tree = build_demo_tree("MN-CSE", clock)
    worker = EdgeWorker(
        "edge0",
        tree,
        capacity_bytes=capacity,
        start_delay_ms=250.0,
        clock=clock,
        processing_ms={Operation.CREATE: 4.0, Operation.RETRIEVE: 2.0},
        trace=trace,
    )
    worker.cache.seed(CATALOGUE)
    for fn in functions:
        start(worker, fn, QUOTA)
    return worker, clock


def start(worker, fn, quota):
    """Start ``fn`` at once: admit it, then mark it running."""
    worker.begin_start(CATALOGUE.lookup(fn), quota)
    worker.complete_start(fn)


def create_request(path, name, *, kind=ResourceKind.CONTENT_INSTANCE, content=b"v", rqi="r1", target=None):
    pairs = [("nm", name)]
    if content is not None:
        pairs.append(("pc", base64.b64encode(content).decode()))
    if target is not None:
        pairs.append(("nt", "|".join(target)))
    return RequestPrimitive(
        operation=Operation.CREATE,
        to=path,
        originator="dev0",
        request_id=rqi,
        resource_kind=kind,
        content=encode_fieldline(pairs).encode(),
    )


class TestPortPlan:
    def test_fixed_ports(self):
        assert port_for(FunctionKind.REGISTRATION) == 62590
        assert port_for(FunctionKind.RETRIEVE) == 62591
        assert port_for(FunctionKind.SUBSCRIPTION) == 62592
        assert port_for(FunctionKind.NOTIFICATION) == 62593
        assert port_for(FunctionKind.DATA_MANAGEMENT) == 62594
        assert port_for(FunctionKind.DISCOVERY) == 62595

    def test_ports_are_injective(self):
        assert len({port_for(f) for f in FunctionKind}) == len(FunctionKind)

    def test_start_retrieve_runs_on_62591(self):
        worker, _ = make_worker(functions=[FunctionKind.RETRIEVE])
        assert worker.functions[FunctionKind.RETRIEVE].port == 62591
        assert worker.functions[FunctionKind.RETRIEVE].state is InstanceState.RUNNING


class TestLifecycle:
    def test_double_start_rejected(self):
        worker, _ = make_worker(functions=[FunctionKind.RETRIEVE])
        with pytest.raises(AlreadyRunningError):
            worker.begin_start(CATALOGUE.lookup(FunctionKind.RETRIEVE), QUOTA)

    def test_uncached_image_rejected(self):
        worker, _ = make_worker()
        worker.cache.cached.clear()
        with pytest.raises(ImageNotCachedError):
            worker.begin_start(CATALOGUE.lookup(FunctionKind.RETRIEVE), QUOTA)

    def test_quota_admission(self):
        worker, _ = make_worker(capacity=1000 * MB)
        big = ResourceQuota(max_memory_bytes=600 * MB, max_cpu_share=0.5)
        start(worker, FunctionKind.REGISTRATION, big)
        with pytest.raises(WorkerQuotaExceededError):
            worker.begin_start(CATALOGUE.lookup(FunctionKind.RETRIEVE), big)
        # oracle: admitted memory never exceeds capacity
        assert worker.reserved_memory() <= worker.capacity_bytes

    def test_start_becomes_running_after_delay(self):
        worker, clock = make_worker()
        began = clock()
        worker.begin_start(CATALOGUE.lookup(FunctionKind.RETRIEVE), QUOTA)
        assert not worker.enabled(FunctionKind.RETRIEVE)
        clock.advance(worker.start_delay_ms)
        worker.complete_start(FunctionKind.RETRIEVE)
        assert worker.enabled(FunctionKind.RETRIEVE)
        assert worker.functions[FunctionKind.RETRIEVE].started_at == began + 250.0

    def test_stop_unknown_function(self):
        worker, _ = make_worker()
        with pytest.raises(NotRunningError):
            worker.stop_function(FunctionKind.RETRIEVE)


class TestDispatchGating:
    def test_subscription_create_gated_on_minimal_slice(self):
        worker, _ = make_worker(functions=[FunctionKind.REGISTRATION, FunctionKind.RETRIEVE])
        req = create_request(
            "MN-CSE/Pedestrians/CitizenB/location",
            "watch",
            kind=ResourceKind.SUBSCRIPTION,
            content=None,
            target=("cloud", "IN-CSE/m"),
        )
        resp, events, _ = worker.dispatch(req)
        assert resp.status is StatusCode.FUNCTION_NOT_ENABLED
        assert events == []

    def test_notify_gated_without_notification_function(self):
        worker, _ = make_worker(functions=[FunctionKind.REGISTRATION, FunctionKind.RETRIEVE])
        req = RequestPrimitive(Operation.NOTIFY, "MN-CSE/x", "cloud", "n1", content=b"ev=created;pt=p\n")
        resp, _, _ = worker.dispatch(req)
        assert resp.status is StatusCode.FUNCTION_NOT_ENABLED

    def test_retrieve_serves_latest_instance(self):
        worker, _ = make_worker(
            functions=[FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT]
        )
        for i, value in enumerate([b"a", b"b"]):
            resp, _, _ = worker.dispatch(
                create_request(
                    "MN-CSE/Pedestrians/CitizenB/location", f"ci{i}", content=value, rqi=f"c{i}"
                )
            )
            assert resp.status is StatusCode.CREATED
        resp, _, proc = worker.dispatch(
            RequestPrimitive(
                Operation.RETRIEVE, "MN-CSE/Pedestrians/CitizenB/location/la", "dev0", "r9"
            )
        )
        assert resp.status is StatusCode.OK
        assert decode_resource(resp.content).content == b"b"
        assert proc == 2.0

    def test_empty_slice_gates_everything(self):
        worker, _ = make_worker()
        for req in [
            create_request("MN-CSE", "app", kind=ResourceKind.AE, content=None),
            RequestPrimitive(Operation.RETRIEVE, "MN-CSE", "d", "r2"),
            RequestPrimitive(Operation.DELETE, "MN-CSE/Pedestrians", "d", "r3"),
        ]:
            resp, _, _ = worker.dispatch(req)
            assert resp.status is StatusCode.FUNCTION_NOT_ENABLED

    def test_create_routing_by_kind(self):
        worker, _ = make_worker()
        ae = create_request("MN-CSE", "app", kind=ResourceKind.AE, content=None)
        ci = create_request("MN-CSE/Pedestrians/CitizenB/location", "ci")
        sub = create_request(
            "MN-CSE/Pedestrians",
            "w",
            kind=ResourceKind.SUBSCRIPTION,
            content=None,
            target=("n", "X/y"),
        )
        assert worker.required_function(ae) is FunctionKind.REGISTRATION
        assert worker.required_function(ci) is FunctionKind.DATA_MANAGEMENT
        assert worker.required_function(sub) is FunctionKind.SUBSCRIPTION

    def test_update_delete_routing_follows_target_kind(self):
        worker, _ = make_worker(
            functions=[FunctionKind.SUBSCRIPTION, FunctionKind.DATA_MANAGEMENT]
        )
        resp, _, _ = worker.dispatch(
            create_request(
                "MN-CSE/Pedestrians",
                "w",
                kind=ResourceKind.SUBSCRIPTION,
                content=None,
                target=("n", "X/y"),
            )
        )
        assert resp.status is StatusCode.CREATED
        upd_sub = RequestPrimitive(Operation.UPDATE, "MN-CSE/Pedestrians/w", "d", "u1")
        del_cnt = RequestPrimitive(Operation.DELETE, "MN-CSE/Pedestrians/CitizenB", "d", "u2")
        assert worker.required_function(upd_sub) is FunctionKind.SUBSCRIPTION
        assert worker.required_function(del_cnt) is FunctionKind.DATA_MANAGEMENT

    def test_error_mapping(self):
        worker, _ = make_worker(
            functions=[FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT]
        )
        resp, _, _ = worker.dispatch(
            RequestPrimitive(Operation.RETRIEVE, "MN-CSE/missing", "d", "r1")
        )
        assert resp.status is StatusCode.NOT_FOUND
        resp, _, _ = worker.dispatch(
            RequestPrimitive(
                Operation.UPDATE,
                "MN-CSE/Pedestrians",
                "d",
                "r2",
                content=encode_fieldline([("ty", "3"), ("pc", "AAAA")]).encode(),
            )
        )
        assert resp.status is StatusCode.BAD_REQUEST
        # malformed bodies answer 4000 instead of escaping dispatch
        location = "MN-CSE/Pedestrians/CitizenB/location"
        for req in [
            RequestPrimitive(Operation.UPDATE, "MN-CSE/Pedestrians", "d", "r3", content=b"ty=x"),
            RequestPrimitive(
                Operation.CREATE, location, "d", "r4", ResourceKind.CONTENT_INSTANCE, "nm=ü".encode()
            ),
            RequestPrimitive(
                Operation.CREATE, location, "d", "r5", ResourceKind.CONTENT_INSTANCE, b"nm=a;pc=!!!"
            ),
        ]:
            resp, _, _ = worker.dispatch(req)
            assert resp.status is StatusCode.BAD_REQUEST, req.request_id

    def test_error_subclasses_map_to_their_base_status(self, monkeypatch):
        class StaleNotFoundError(NotFoundError):
            pass

        class EmptyPayloadError(BadRequestError):
            pass

        worker, _ = make_worker(
            functions=[FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT]
        )
        for error, rsc in [(StaleNotFoundError, 4004), (EmptyPayloadError, 4000)]:
            def resolve(path, error=error):
                raise error("raised by the tree")

            monkeypatch.setattr(worker.tree, "resolve", resolve)
            resp, _, _ = worker.dispatch(
                RequestPrimitive(
                    Operation.RETRIEVE, "MN-CSE/Pedestrians/CitizenB/location", "d", "r1"
                )
            )
            assert int(resp.status) == rsc
            assert resp.content == b"raised by the tree"


class TestCrashRespawn:
    def test_respawn_duration_and_isolation(self):
        worker, clock = make_worker(
            functions=[
                FunctionKind.RETRIEVE,
                FunctionKind.SUBSCRIPTION,
                FunctionKind.DATA_MANAGEMENT,
            ]
        )
        worker.dispatch(create_request("MN-CSE/Pedestrians/CitizenB/location", "ci"))
        duration = worker.begin_crash(FunctionKind.SUBSCRIPTION)
        assert duration == worker.start_delay_ms == 250.0
        # crashed function gates, others still serve
        resp, _, _ = worker.dispatch(
            RequestPrimitive(
                Operation.RETRIEVE, "MN-CSE/Pedestrians/CitizenB/location/la", "d", "r1"
            )
        )
        assert resp.status is StatusCode.OK
        sub_req = create_request(
            "MN-CSE/Pedestrians",
            "w",
            kind=ResourceKind.SUBSCRIPTION,
            content=None,
            target=("n", "X/y"),
            rqi="s1",
        )
        resp, _, _ = worker.dispatch(sub_req)
        assert resp.status is StatusCode.FUNCTION_NOT_ENABLED
        clock.advance(duration)
        worker.complete_start(FunctionKind.SUBSCRIPTION)
        resp, _, _ = worker.dispatch(sub_req)
        assert resp.status is StatusCode.CREATED

    def test_crash_requires_running(self):
        worker, _ = make_worker()
        with pytest.raises(NotRunningError):
            worker.begin_crash(FunctionKind.RETRIEVE)

    def test_crash_logged(self):
        worker, _ = make_worker(functions=[FunctionKind.RETRIEVE])
        worker.begin_crash(FunctionKind.RETRIEVE)
        actions = [entry["action"] for entry in worker.log]
        assert "crash" in actions and "respawn_begin" in actions


def replay_gating_completeness(log):
    """Oracle over the worker event log: any dispatch that was not gated must
    fall inside a running interval of its mapped function."""
    running = set()
    for entry in log:
        action = entry["action"]
        if action == "start_complete":
            running.add(entry["function"])
        elif action in ("stop", "crash"):
            running.discard(entry["function"])
        elif action == "dispatch" and entry.get("function"):
            gated = entry["status"] == "gated"
            assert gated != (entry["function"] in running), entry


class TestInvariantReplay:
    def test_gating_completeness_under_random_lifecycle(self):
        rng = __import__("random").Random(17)
        worker, clock = make_worker(trace="full")  # logs every dispatch, not only refusals
        functions = [FunctionKind.RETRIEVE, FunctionKind.DATA_MANAGEMENT]
        dispatches = 0
        for step in range(300):
            clock.advance(1.0)
            roll = rng.random()
            fn = rng.choice(functions)
            if roll < 0.15 and fn not in worker.functions:
                start(worker, fn, QUOTA)
            elif roll < 0.25 and fn in worker.functions:
                worker.stop_function(fn)
            elif roll < 0.30 and worker.enabled(fn):
                worker.begin_crash(fn)
                if rng.random() < 0.5:
                    clock.advance(worker.start_delay_ms)
                    worker.complete_start(fn)
            elif rng.random() < 0.5:
                dispatches += 1
                worker.dispatch(
                    RequestPrimitive(
                        Operation.RETRIEVE,
                        "MN-CSE/Pedestrians/CitizenB/location/la",
                        "dev0",
                        f"z{step}",
                    )
                )
            else:
                dispatches += 1
                worker.dispatch(
                    create_request(
                        "MN-CSE/Pedestrians/CitizenB/location",
                        f"ci{step}",
                        rqi=f"c{step}",
                    )
                )
        logged = [entry for entry in worker.log if entry["action"] == "dispatch"]
        assert len(logged) == dispatches
        assert {entry["status"] for entry in logged} > {"gated"}  # executed ones too
        replay_gating_completeness(worker.log)

    def test_quota_conservation_at_every_event(self):
        rng = __import__("random").Random(23)
        worker, clock = make_worker(capacity=500 * MB)
        quota = ResourceQuota(max_memory_bytes=150 * MB, max_cpu_share=0.2)
        for _ in range(200):
            clock.advance(1.0)
            fn = rng.choice(list(FunctionKind))
            try:
                if rng.random() < 0.6:
                    start(worker, fn, quota)
                else:
                    worker.stop_function(fn)
            except (AlreadyRunningError, NotRunningError, WorkerQuotaExceededError):
                pass
            assert worker.reserved_memory() <= worker.capacity_bytes
