"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or on
failure) and asserts its runtime budget. Oracles are independent of the code
paths they check: set difference, structural recursion, schedule replay,
brute-force scans.
"""
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from edgeslice.bench import (
    build_system,
    mean_rtt,
    run_benchmark,
    run_preparation_timing,
    run_road_scenario,
)
from edgeslice.cli import main as cli_main
from edgeslice.errors import NotFoundError
from edgeslice.netsim import Link, Simulator, Topology
from edgeslice.offload import SyncMode
from edgeslice.primitives import (
    Operation,
    RequestPrimitive,
    StatusCode,
    encode_fieldline,
    is_response,
)
from edgeslice.resources import ResourceKind, ResourcePath, ResourceTree
from edgeslice.scenario import reference_calibrated
from edgeslice.slicing import FunctionKind

from util import (
    CALIBRATED_YAML,
    OffloadHarness,
    RandomTreeWorkload,
    check_tree_invariants,
    replicated_state,
    structural_shape,
    tap,
)
from wire_samples import wire_bytes


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    began = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:2d}: {name}")
        raise
    elapsed = time.perf_counter() - began
    print(f"[PASS] criterion {number:2d}: {name} ({elapsed:.2f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_fast_path_conformance():
    with criterion(1, "fast-path protocol conformance", 1.0):
        config = reference_calibrated()
        system = build_system(config, "edge", 42)
        system.prepare()
        worker_log = system.edges["edge0"].worker.log
        starts_first = [e for e in worker_log if e["action"] == "start_begin"]
        system.prepare()  # identical request again
        starts_second = [e for e in worker_log if e["action"] == "start_begin"]
        decisions = [d["decision"] for d in system.cloud.orchestrator.decision_log]
        assert decisions == ["instantiate_then_offload", "fast_path_offload_only"]
        assert len(starts_first) == len(config.functions)  # one instantiation phase
        assert len(starts_second) == len(starts_first)  # zero new start_function calls
        per_function = {}
        for entry in starts_second:
            per_function[entry["function"]] = per_function.get(entry["function"], 0) + 1
        assert all(count == 1 for count in per_function.values())


def test_criterion_02_offload_remapping():
    with criterion(2, "offload remapping reshapes the edge tree (road scenario)", 1.0):
        report = run_road_scenario(seed=42)
        assert report.ok, [a for a in report.assertions if not a[1]]
        system = report.system
        edge_tree = system.edges["edge0"].worker.tree
        for cloud_root, edge_root in (
            ("IN-CSE/Cars/CarA", "MN-CSE/Cars/CarA"),
            ("IN-CSE/Pedestrians/CitizenA", "MN-CSE/Pedestrians/CitizenA"),
        ):
            cloud_shape = structural_shape(system.cloud.tree, ResourcePath.parse(cloud_root))
            edge_shape = structural_shape(edge_tree, ResourcePath.parse(edge_root))
            assert cloud_shape == edge_shape


def test_criterion_03_eager_sync_convergence():
    with criterion(3, "eager sync convergence, 100/100 seeded trials", 30.0):
        for seed in range(100):
            harness = OffloadHarness(seed=seed)
            harness.offload(SyncMode.EAGER)
            rng = random.Random(1000 + seed)
            harness.random_bound_subtree_ops(rng, rng.randint(50, 200))
            mirror = replicated_state(harness.cloud_tree, harness.mirror_root)
            edge = replicated_state(harness.edge_tree, harness.edge_root)
            assert mirror == edge, f"trial {seed} diverged"


def test_criterion_04_lazy_redirect_equivalence():
    with criterion(4, "lazy redirect byte-equivalence and final sync", 10.0):
        config = replace(reference_calibrated(), sync_mode=SyncMode.LAZY)
        system = build_system(config, "edge", 42)
        system.prepare()
        system.run_workload("create", 10)
        device = system.devices[system.device_id]
        raw: list[bytes] = []
        inner = device.receive

        def capture(payload, sender):
            data = wire_bytes(payload)
            if is_response(data):
                raw.append(data)
            inner(payload, sender)

        system.network.attach(device.node_id, capture)
        rng = random.Random(4)
        target = "Pedestrians/CitizenB/location"
        candidates = (
            [f"{target}/la", target, "Pedestrians/CitizenB"]
            + [f"{target}/p{i}" for i in range(5)]
            + [f"{target}/medge{i:05d}" for i in range(10)]
            + [f"{target}/missing{i}" for i in range(3)]
        )
        for index in range(100):
            suffix = rng.choice(candidates)
            rqi = f"eq-{index:03d}"
            via_cloud = RequestPrimitive(
                Operation.RETRIEVE, f"IN-CSE/{suffix}", device.node_id, rqi
            )
            device.issue(via_cloud, system.cloud_id, 400, lambda resp: None)
            system.run_until_idle()
            direct = RequestPrimitive(
                Operation.RETRIEVE, f"MN-CSE/{suffix}", device.node_id, rqi
            )
            device.issue(direct, "edge0", 400, lambda resp: None)
            system.run_until_idle()
            assert raw[-2] == raw[-1], f"retrieve {suffix!r} differs between routes"
        # finalize on terminate: mirror becomes deep-equal to the edge subtree
        # as it was, and the edge hands the task back
        edge_tree = system.edges["edge0"].worker.tree
        edge_root = ResourcePath.parse("MN-CSE/Pedestrians/CitizenB")
        edge = replicated_state(edge_tree, edge_root)
        term = RequestPrimitive(
            Operation.SLICE_TERMINATE,
            system.cloud_id,
            device.node_id,
            "acc4-term",
            content=encode_fieldline([("slc", "slice-edge0")]).encode("ascii"),
        )
        done: list = []
        device.issue(term, system.cloud_id, 0, done.append)
        system.run_until_idle()
        assert done and done[0].status is StatusCode.OK
        mirror = replicated_state(
            system.cloud.tree, ResourcePath.parse("IN-CSE/Pedestrians/CitizenB")
        )
        assert mirror == edge
        with pytest.raises(NotFoundError):
            edge_tree.resolve(edge_root)


def test_criterion_05_latency_reproduction():
    with criterion(5, "latency reproduction: 8.5/6.1 and 67.42/37.32 ms within 5%", 5.0):
        config = reference_calibrated()
        creates = run_benchmark(config, "create")  # the calibration's 60 requests, seed 42
        assert mean_rtt(creates, "cloud", "create") == pytest.approx(8.5, rel=0.05)
        assert mean_rtt(creates, "edge", "create") == pytest.approx(6.1, rel=0.05)
        retrieves = run_benchmark(config, "retrieve")
        cloud = mean_rtt(retrieves, "cloud", "retrieve")
        edge = mean_rtt(retrieves, "edge", "retrieve")
        assert cloud == pytest.approx(67.42, rel=0.05)
        assert edge == pytest.approx(37.32, rel=0.05)
        assert 1.6 <= cloud / edge <= 2.0


def test_criterion_06_function_gating():
    with criterion(6, "function gating returns rsc 4005 on a minimal slice", 1.0):
        config = replace(
            reference_calibrated(),
            functions=frozenset({FunctionKind.REGISTRATION, FunctionKind.RETRIEVE}),
            sync_mode=SyncMode.LAZY,
        )
        system = build_system(config, "edge", 42)
        system.prepare()
        device = system.devices[system.device_id]
        statuses: list[int] = []

        def issue(req):
            device.issue(req, "edge0", 400, lambda resp: statuses.append(int(resp.status)))
            system.run_until_idle()

        issue(
            RequestPrimitive(
                Operation.CREATE,
                "MN-CSE/Pedestrians/CitizenB/location",
                device.node_id,
                "g-sub",
                resource_kind=ResourceKind.SUBSCRIPTION,
                content=encode_fieldline(
                    [("nm", "w"), ("nt", f"{device.node_id}|DEV/inbox")]
                ).encode("ascii"),
            )
        )
        issue(
            RequestPrimitive(
                Operation.NOTIFY,
                "MN-CSE/Pedestrians/CitizenB/location",
                device.node_id,
                "g-ntf",
                content=b"ev=created;pt=x\nty=4;nm=n;ct=0.0;lt=0.0",
            )
        )
        for i in range(3):
            issue(
                RequestPrimitive(
                    Operation.RETRIEVE,
                    "MN-CSE/Pedestrians/CitizenB/location/la",
                    device.node_id,
                    f"g-ret{i}",
                )
            )
        assert statuses == [4005, 4005, 2000, 2000, 2000]


def test_criterion_07_determinism(tmp_path):
    with criterion(7, "byte-identical outputs for identical seed", 5.0):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli_main(["run", CALIBRATED_YAML, "--seed", "42", "--requests", "10", "--out", out1]) == 0
        assert cli_main(["run", CALIBRATED_YAML, "--seed", "42", "--requests", "10", "--out", out2]) == 0
        for name in ("samples.csv", "summary.txt"):
            with open(f"{out1}/{name}", "rb") as f1, open(f"{out2}/{name}", "rb") as f2:
                assert f1.read() == f2.read(), f"{name} differs between runs"


def _random_jitterless_config(rng: random.Random):
    """Random multi-edge topology with integer delays and zero jitter."""
    base = reference_calibrated()
    n_edges = rng.randint(1, 3)
    nodes = [("dev0", "device"), ("cloud", "cloud")] + [
        (f"edge{i}", "edge") for i in range(n_edges)
    ]
    from edgeslice.netsim import Node, NodeRole

    roles = {"device": NodeRole.DEVICE, "edge": NodeRole.EDGE_WORKER, "cloud": NodeRole.CLOUD}
    links = []
    for i in range(n_edges):
        links.append(
            Link("dev0", f"edge{i}", float(rng.randint(1, 9)), 0.0, rng.choice([5e7, 1e8, 2e8]))
        )
        links.append(
            Link(f"edge{i}", "cloud", float(rng.randint(5, 30)), 0.0, rng.choice([5e7, 1e8]))
        )
    topology = Topology([Node(n, roles[r]) for n, r in nodes], links)
    processing = {
        "cloud": {
            Operation.CREATE: float(rng.randint(1, 8)),
            Operation.RETRIEVE: float(rng.randint(10, 70)),
        },
        "dev0": {},
    }
    for i in range(n_edges):
        processing[f"edge{i}"] = {
            Operation.CREATE: float(rng.randint(1, 8)),
            Operation.RETRIEVE: float(rng.randint(5, 40)),
        }
    return replace(base, topology=topology, processing=processing)


def _replay_rtt(system, device, server, operation, send_ts):
    """Closed-form hop/processing sum, accumulated in delivery order."""
    config = system.config
    topology = config.topology
    route = topology.route(device, server)
    t = send_ts
    for a, b in zip(route, route[1:]):
        link = topology.link_between(a, b)
        t += link.delay_ms + 0.0 + config.payload_bytes / link.bandwidth_bytes_per_s * 1000.0
    t += config.processing_for(server).get(operation, 0.0)
    back = list(reversed(route))
    for a, b in zip(back, back[1:]):
        link = topology.link_between(a, b)
        t += link.delay_ms + 0.0 + config.payload_bytes / link.bandwidth_bytes_per_s * 1000.0
    return t - send_ts


def test_criterion_08_analytic_rtt_oracle():
    with criterion(8, "zero-jitter samples equal the closed form exactly", 10.0):
        for trial in range(20):
            rng = random.Random(800 + trial)
            config = _random_jitterless_config(rng)
            for mode in ("cloud", "edge"):
                system = build_system(config, mode, trial)
                system.prepare()
                device = system.device_id
                server = system.data_server(device)
                # the oracle reads each request's send: its time and its sender
                sent = tap(system.network, "send", lambda args, arrival: (system.sim.now, args[0]))
                mark = 0
                for operation, op in (("create", Operation.CREATE), ("retrieve", Operation.RETRIEVE)):
                    samples = system.run_workload(operation, 3)
                    sends = [ts for ts, frm in sent[mark:] if frm == device]
                    assert len(sends) >= len(samples)
                    for sample, send_ts in zip(samples, sends[-len(samples):]):
                        expected = _replay_rtt(system, device, server, op, send_ts)
                        assert sample.rtt_ms == expected, (
                            f"trial {trial} {mode} {operation}: "
                            f"{sample.rtt_ms!r} != {expected!r}"
                        )
                    mark = len(sent)


def test_criterion_09_resource_model_invariants():
    with criterion(9, "10,000 random primitives preserve every tree invariant", 30.0):
        rng = random.Random(99)
        sim = Simulator()
        tree = ResourceTree("MN-CSE", sim.time)
        workload = RandomTreeWorkload(tree, sim, rng)
        for checkpoint in range(20):
            workload.run(500)
            check_tree_invariants(tree)
        assert workload.attempted == 10_000


def test_criterion_10_preparation_timing():
    with criterion(10, "preparation equals the control-plane schedule; cold adds pulls", 5.0):
        config = reference_calibrated()

        def schedule_replay(cfg, pull_ms: float) -> float:
            d2 = 1.2  # edge-cloud one-way delay in the calibrated topology
            t = 0.0
            t += d2 + 0.0
            t += d2 + 0.0
            for _ in range(len(cfg.functions)):
                t += pull_ms
                t += cfg.start_delay_ms
            t += d2 + 0.0
            t += d2 + 0.0
            return t

        def prepare_mean(cfg) -> float:
            return mean_rtt(run_preparation_timing(cfg, repetitions=10), "edge", "prepare")

        warm = run_preparation_timing(config, repetitions=10)
        warm_mean = mean_rtt(warm, "edge", "prepare")
        warm_expected = statistics.fmean([schedule_replay(config, 0.0)] * 10)
        assert warm_mean == warm_expected
        assert all(s.rtt_ms == schedule_replay(config, 0.0) for s in warm)
        assert len(warm) == 10

        cold_mean = prepare_mean(replace(config, pre_seeded_cache=False))
        cold_expected = statistics.fmean([schedule_replay(config, 4000.0)] * 10)
        assert cold_mean == cold_expected
        pulls = len(config.functions) * 4000.0  # 400 MB at 100 MB/s per image
        assert cold_mean - warm_mean == pytest.approx(pulls, abs=1e-6)

        # single-image variant on dyadic link delays: the +4.0 s is exact
        single = replace(config, functions=frozenset({FunctionKind.RETRIEVE}))
        single = replace(
            single,
            topology=Topology(
                list(config.topology.nodes.values()),
                [
                    Link("dev0", "edge0", 1.0, 0.0, 1e8),
                    Link("edge0", "cloud", 1.25, 0.0, 1e8),
                ],
            ),
        )
        warm_single = prepare_mean(single)
        cold_single = prepare_mean(replace(single, pre_seeded_cache=False))
        assert warm_single == 4 * 1.25 + 250.0
        assert cold_single - warm_single == 4000.0
