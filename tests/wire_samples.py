"""Fixed wire encodings for the byte-identity tests of the codec.

``samples()`` encodes a fixed set of messages and a small tree through the
public API only; ``traffic_digests()`` hashes the bytes of every message the
simulated network carries in a few short system runs, which covers the
encoders of every node handler. Control messages travel as objects, so those
bytes are taken through the one tap, ``wire_bytes``: a message's
``encode()``, or a payload sent as bytes as it is. Running this file prints
both as JSON::

    PYTHONPATH=src python tests/wire_samples.py > tests/golden/wire.json

The committed ``tests/golden/wire.json`` was generated this way from the
code as it stood before the field-line codecs were folded into
``edgeslice.codec``; ``test_golden`` checks that every byte on the wire
stays the same. Its ``prepare_200_bundle_transfer`` entry was added later,
generated the same way from the code as it stood before each offload bundle
stage became a single pass. The file was regenerated once since, when the
offload bundle's records went on the wire framed by their parent's record
index instead of their full source path, and the unread ``svc`` field left
the ``SLICE_INSTANTIATE`` and ``SLICE_RECORD`` bodies: the ``bundle`` and
``bundle_transfer`` samples and the ``calibrated_eager``,
``calibrated_lazy_terminate``, ``campus_redirect`` and
``prepare_200_bundle_transfer`` digests moved, and no other entry did. It
was regenerated a second time when each byte came to be escaped at most
once: a field value keeps every printable ASCII character but ``;`` and
``%``, so base64 content travels raw, and a ``t:`` payload takes any ASCII
text, newlines escaped, in place of a second base64 encoding. Every traffic
digest moved, and every sample but ``response_binary``, ``response_empty``
and ``retrieve``.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

from edgeslice.bench import build_system
from edgeslice.netsim import Network, Simulator
from edgeslice.notify import match_subscriptions
from edgeslice.offload import SyncMode, make_bundle
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    ResponsePrimitive,
    StatusCode,
    decode_request,
    encode_fieldline,
    encode_resource,
    is_response,
)
from edgeslice.resources import ResourceKind, ResourcePath, ResourceTree
from edgeslice.scenario import load_scenario, reference_calibrated

HERE = os.path.dirname(os.path.abspath(__file__))
CAMPUS = os.path.join(HERE, "..", "scenarios", "jittery_campus.yaml")

# names and labels that exercise every quoting rule: the field separators,
# '%', the payload-safe set and non-ASCII text
ODD_NAME = "a%41b;x=y"
ODD_LABELS = ["l,1", "%2C", "ü=;", "", "a/b:c|d-e"]


def sample_tree() -> ResourceTree:
    sim = Simulator()
    sim.now += 1.25
    tree = ResourceTree("IN-CSE", sim.time)
    root = ResourcePath("IN-CSE")
    ae = tree.create(root, ResourceKind.AE, "Pedestrians", labels=["team,a"])
    odd = tree.create(ae, ResourceKind.CONTAINER, ODD_NAME, labels=ODD_LABELS)
    tree.create(ae, ResourceKind.CONTAINER, "Zürich straße")
    tree.create(
        odd,
        ResourceKind.SUBSCRIPTION,
        "sync",
        notification_target=("edge 0", "MN-CSE/Pedestrians/a%41b;x=y"),
    )
    sim.now += 0.1
    tree.create(odd, ResourceKind.CONTENT_INSTANCE, "t1", content=b"position-update-000001:xxxx")
    sim.now += 1 / 3
    tree.create(odd, ResourceKind.CONTENT_INSTANCE, content=bytes(range(256)))
    sim.now += 2.0
    tree.create(odd, ResourceKind.CONTENT_INSTANCE, "ü", content="héllo ü".encode())
    return tree


def samples() -> dict[str, str]:
    tree = sample_tree()
    odd = ResourcePath("IN-CSE", ("Pedestrians", ODD_NAME))
    out: dict[str, bytes | str] = {"serialize": tree.serialize()}
    tree.drain_events()

    body = encode_fieldline([("nm", "m00001"), ("pc", "cG9zaXRpb24=="), ("lb", "a%2Cb,ü")])
    out["create"] = RequestPrimitive(
        Operation.CREATE, str(odd), "dev 1", "rq;1", ResourceKind.CONTENT_INSTANCE,
        body.encode("utf-8"),
    ).encode()
    out["retrieve"] = RequestPrimitive(
        Operation.RETRIEVE, "IN-CSE/Pedestrians/Zürich straße/la", "dev-1", "rq-2"
    ).encode()
    latest = tree.resolve(odd._replace(latest=True))
    out["response"] = ResponsePrimitive(
        "rq-2", StatusCode.OK, encode_resource(latest, tree.path_of(latest))
    ).encode()
    binary = tree.resolve(odd.child("ci_0002"))
    out["response_binary"] = ResponsePrimitive(
        "rq-3", StatusCode.CREATED, binary.content
    ).encode()
    out["response_empty"] = ResponsePrimitive("rq-4", StatusCode.NOT_FOUND).encode()
    out["resource_subscription"] = encode_resource(tree.resolve(odd.child("sync")))
    out["resource_container"] = encode_resource(tree.resolve(odd), odd)

    # created, updated (renamed) and deleted children of the subscribed container
    tree.create(odd, ResourceKind.CONTENT_INSTANCE, "t4", content=b"plain")
    inner = tree.create(odd, ResourceKind.CONTAINER, "inner")
    tree.update(inner, name="inner %", labels=["x;y"])
    tree.delete(odd.child("inner %"))
    for index, event in enumerate(tree.drain_events()):
        for notify in match_subscriptions(tree, event):
            out[f"notify_{index}"] = notify.to_request("IN-CSE").encode()
    tree.update(odd, name="renamed %")

    bundle = make_bundle(tree, ResourcePath("IN-CSE", ("Pedestrians",)), "task ü", 12.5)
    out["bundle"] = bundle.encode()
    out["bundle_transfer"] = RequestPrimitive(
        Operation.BUNDLE_TRANSFER, "edge0", "IN-CSE", "c-1",
        content=(encode_fieldline([("task", "task ü")]) + "\n" + bundle.encode()).encode("utf-8"),
    ).encode()
    return {
        name: value if isinstance(value, str) else value.decode("ascii")
        for name, value in out.items()
    }


def wire_bytes(payload) -> bytes:
    """The bytes of a payload the network carries."""
    return payload if isinstance(payload, bytes) else payload.encode()


def traffic(run) -> list[bytes]:
    """The bytes of every payload the network carries during ``run``."""
    carried = []
    original = Network.send

    def recording(self, frm, to, payload, size_bytes):
        carried.append(wire_bytes(payload))
        return original(self, frm, to, payload, size_bytes)

    Network.send = recording
    try:
        run()
    finally:
        Network.send = original
    return carried


def _digest(messages: list[bytes]) -> str:
    """Count and sha256 of ``messages``."""
    h = hashlib.sha256()
    for data in messages:
        h.update(len(data).to_bytes(8, "big") + data)
    return f"{len(messages)}:{h.hexdigest()}"


def _calibrated_eager():
    system = build_system(reference_calibrated(), "edge", 42)
    system.prepare()
    system.run_workload("create", 4)
    system.run_workload("retrieve", 3)


def _calibrated_cloud():
    system = build_system(reference_calibrated(), "cloud", 42)
    system.run_workload("create", 3)
    system.run_workload("retrieve", 3)


def _calibrated_lazy_terminate():
    config = replace(reference_calibrated(), sync_mode=SyncMode.LAZY)
    system = build_system(config, "edge", 42)
    system.prepare()
    system.run_workload("create", 3)
    device = system.devices[system.device_id]
    req = RequestPrimitive(
        Operation.SLICE_TERMINATE, system.cloud_id, device.node_id, "term-1",
        content=encode_fieldline([("slc", "slice-edge0")]).encode("ascii"),
    )
    device.issue(req, system.cloud_id, 0, lambda response: None)
    system.run_until_idle()


def _campus_redirect():
    system = build_system(load_scenario(CAMPUS), "edge", 7)
    system.prepare()
    system.run_workload("create", 3)
    system.run_workload(
        "retrieve", 3, target=system.config.workload_target, server=system.cloud_id
    )


def prepare_200_config():
    """The calibrated scenario as the benchmark's prepare-cold workload runs
    it: cold image caches and 200 content instances in the task, so its
    bundle has 202 records."""
    return replace(reference_calibrated(), pre_seeded_cache=False, prepopulate=200)


def _prepare_200():
    build_system(prepare_200_config(), "edge", 42).prepare()


def _is_bundle_transfer(data: bytes) -> bool:
    return not is_response(data) and (
        decode_request(data).operation is Operation.BUNDLE_TRANSFER
    )


#: every system run whose traffic is pinned
TRAFFIC_RUNS = (_calibrated_eager, _calibrated_cloud, _calibrated_lazy_terminate, _campus_redirect,
                _prepare_200)


def traffic_digests() -> dict[str, str]:
    return {
        "calibrated_eager": _digest(traffic(_calibrated_eager)),
        "calibrated_cloud": _digest(traffic(_calibrated_cloud)),
        "calibrated_lazy_terminate": _digest(traffic(_calibrated_lazy_terminate)),
        "campus_redirect": _digest(traffic(_campus_redirect)),
        "prepare_200_bundle_transfer": _digest(list(filter(_is_bundle_transfer,
                                                           traffic(_prepare_200)))),
    }


if __name__ == "__main__":
    print(json.dumps({"samples": samples(), "traffic": traffic_digests()},
                     indent=1, ensure_ascii=False, sort_keys=True))
