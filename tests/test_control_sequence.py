"""The control plane's message sequence, pinned: who sends what to whom,
with which request id, in which order. A refactor of the protocol code must
leave it as it is, since the jitter stream and the event trace follow it."""
from dataclasses import replace

import pytest

from edgeslice.bench import build_system, road_config
from edgeslice.netsim import Network
from edgeslice.primitives import Operation, RequestPrimitive
from edgeslice.offload import Task as TaskSpec
from edgeslice.scenario import load_scenario
from edgeslice.system import OffloadBody, ReadyBody, SliceBody

from wire_samples import CAMPUS

COLD = [
    ("dev0", "edge0", "SERVICE_REQUEST", "dev0-sr000001"),
    ("edge0", "cloud", "SERVICE_REQUEST", "dev0-sr000001"),
    ("cloud", "edge0", "SLICE_INSTANTIATE", "ctl-000001"),
    ("edge0", "cloud", "SLICE_RECORD", "ctl-000002"),
    ("cloud", "edge0", 2000, "ctl-000002"),
    ("cloud", "edge0", "BUNDLE_TRANSFER", "ctl-000003"),
    ("cloud", "edge0", "BUNDLE_TRANSFER", "ctl-000004"),
    ("edge0", "cloud", 2000, "ctl-000003"),
    ("edge0", "cloud", 2000, "ctl-000004"),
    ("cloud", "dev0", 2000, "dev0-sr000001"),
]
FAST_PATH = [
    ("dev0", "edge0", "SERVICE_REQUEST", "dev0-sr000002"),
    ("edge0", "cloud", "SERVICE_REQUEST", "dev0-sr000002"),
    ("cloud", "dev0", 2000, "dev0-sr000002"),
]
TERMINATE = [
    ("dev0", "cloud", "SLICE_TERMINATE", "term-1"),
    ("cloud", "edge0", "SYNC_FINALIZE", "ctl-000005"),
    ("edge0", "cloud", 2000, "ctl-000005"),
    ("cloud", "edge0", "SYNC_FINALIZE", "ctl-000006"),
    ("edge0", "cloud", 2000, "ctl-000006"),
    ("cloud", "edge0", "STOP_FUNCTION", "ctl-000007"),
    ("edge0", "cloud", 2000, "ctl-000007"),
    ("cloud", "edge0", "STOP_FUNCTION", "ctl-000008"),
    ("edge0", "cloud", 2000, "ctl-000008"),
    ("cloud", "edge0", "STOP_FUNCTION", "ctl-000009"),
    ("edge0", "cloud", 2000, "ctl-000009"),
    ("cloud", "edge0", "STOP_FUNCTION", "ctl-000010"),
    ("edge0", "cloud", 2000, "ctl-000010"),
    ("cloud", "edge0", "STOP_FUNCTION", "ctl-000011"),
    ("edge0", "cloud", 2000, "ctl-000011"),
    ("cloud", "dev0", 2000, "term-1"),
]
OFFLOAD = [
    ("dev0", "cloud", "OFFLOAD_REQUEST", "off-1"),
    ("cloud", "edge0", "BUNDLE_TRANSFER", "ctl-000012"),
    ("edge0", "cloud", 2000, "ctl-000012"),
    ("cloud", "dev0", 2000, "off-1"),
]
# two tasks on jittery campus, seed 0: the second bundle's reply arrives first
CAMPUS_TWO_TASKS = [
    ("sensor-1", "gw-north", "SERVICE_REQUEST", "sensor-1-sr000001"),
    ("gw-north", "core", "SERVICE_REQUEST", "sensor-1-sr000001"),
    ("core", "gw-north", "SLICE_INSTANTIATE", "ctl-000001"),
    ("gw-north", "core", "SLICE_RECORD", "ctl-000002"),
    ("core", "gw-north", 2000, "ctl-000002"),
    ("core", "gw-north", "BUNDLE_TRANSFER", "ctl-000003"),
    ("core", "gw-north", "BUNDLE_TRANSFER", "ctl-000004"),
    ("gw-north", "core", 2000, "ctl-000004"),
    ("gw-north", "core", 2000, "ctl-000003"),
    ("core", "sensor-1", 2000, "sensor-1-sr000001"),
]


@pytest.fixture
def sent(monkeypatch):
    """Every message as ``(frm, to, operation or status, request_id)``."""
    log = []
    send = Network.send

    def tap(self, frm, to, payload, size_bytes):
        kind = payload.operation.name if isinstance(payload, RequestPrimitive) else int(payload.status)
        log.append((frm, to, kind, payload.request_id))
        return send(self, frm, to, payload, size_bytes)

    monkeypatch.setattr(Network, "send", tap)
    return log


def ask_cloud(system, op, body, rqi):
    """Send one control request from the device to the cloud and run to idle."""
    device = system.devices[system.device_id]
    responses = []
    req = RequestPrimitive(op, system.cloud_id, device.node_id, rqi, content=body)
    device.issue(req, system.cloud_id, 0, responses.append)
    system.run_until_idle()
    return responses


def taken(log: list) -> list:
    """What ``log`` holds, which it then forgets."""
    out = list(log)
    log.clear()
    return out


def test_road_prepare_fast_path_terminate_and_offload(sent):
    system = build_system(road_config(), "edge", 42)
    ready = system.prepare()
    assert taken(sent) == COLD
    assert ready.content == ReadyBody("edge0", "MN-CSE/Cars/CarA,MN-CSE/Pedestrians/CitizenA")
    assert system.prepare().ok
    assert taken(sent) == FAST_PATH
    assert ask_cloud(system, Operation.SLICE_TERMINATE, SliceBody("slice-edge0"), "term-1")[0].ok
    assert taken(sent) == TERMINATE
    assert ask_cloud(system, Operation.OFFLOAD_REQUEST, OffloadBody("task-carA", "edge0"), "off-1")[0].ok
    assert taken(sent) == OFFLOAD
    assert sorted(system.cloud.coordinator.bindings) == ["task-carA"]


def test_bundle_replies_are_taken_in_arrival_order(sent):
    config = load_scenario(CAMPUS)
    config = replace(config, tasks=[*config.tasks, TaskSpec("task-noise", "IN-CSE/Campus/Noise", "air-quality")])
    system = build_system(config, "edge", 0)
    ready = system.prepare()
    assert sent == CAMPUS_TWO_TASKS
    transfers = [rqi for _, _, kind, rqi in sent if kind == "BUNDLE_TRANSFER"]
    replies = [rqi for frm, _, kind, rqi in sent if frm == "gw-north" and rqi in transfers and kind == 2000]
    assert replies == transfers[::-1]  # the second bundle's reply arrives first
    assert ready.content.roots == "MN-CSE/Campus/Noise,MN-CSE/Campus/AirQuality"
    assert sorted(system.cloud.coordinator.bindings) == ["task-aq", "task-noise"]
