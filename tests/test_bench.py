import os
import statistics
from dataclasses import replace

import pytest

from edgeslice.bench import (
    build_system,
    derive_seed,
    mean_rtt,
    preparation_time_ms,
    road_config,
    run_benchmark,
    run_preparation_timing,
    run_road_scenario,
)
from edgeslice.errors import ConfigInvalidError
from edgeslice.netsim import LatencySample
from edgeslice.report import emit_results, percentile_95, summarize
from edgeslice.scenario import load_scenario, reference_calibrated
from util import CALIBRATED_YAML, tap

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


@pytest.fixture(scope="module")
def config():
    return reference_calibrated()


class TestCreateBenchmark:
    def test_calibrated_means(self, config):
        samples = run_benchmark(replace(config, requests=20), "create")
        cloud = mean_rtt(samples, "cloud", "create")
        edge = mean_rtt(samples, "edge", "create")
        assert cloud == pytest.approx(8.5, rel=1e-9)
        assert edge == pytest.approx(6.1, rel=1e-9)

    def test_zero_cost_config_gives_zero_rtt(self, config):
        free = replace(
            config,
            processing={n: {} for n in config.topology.nodes},
            payload_bytes=0,
        )
        free = replace(
            free,
            topology=type(free.topology)(
                list(free.topology.nodes.values()),
                [
                    type(link)(link.a, link.b, 0.0, 0.0, link.bandwidth_bytes_per_s)
                    for link in free.topology.links.values()
                ],
            ),
        )
        samples = run_benchmark(replace(free, modes=["cloud"], requests=5), "create")
        assert all(s.rtt_ms == 0.0 for s in samples)

    def test_requests_must_be_positive(self, config):
        with pytest.raises(ConfigInvalidError):
            run_benchmark(replace(config, requests=0), "create")


class TestRetrievalComparison:
    def test_calibrated_means_and_ratio(self, config):
        samples = run_benchmark(replace(config, requests=20), "retrieve")
        cloud = mean_rtt(samples, "cloud", "retrieve")
        edge = mean_rtt(samples, "edge", "retrieve")
        assert cloud == pytest.approx(67.42, rel=1e-9)
        assert edge == pytest.approx(37.32, rel=1e-9)
        assert 1.6 <= cloud / edge <= 2.0

    def test_symmetric_config_is_a_tie(self, config):
        # zero delays and identical (zero) processing: modes must tie exactly
        topo = config.topology
        flat = replace(
            config,
            processing={n: {} for n in topo.nodes},
            topology=type(topo)(
                list(topo.nodes.values()),
                [
                    type(link)(link.a, link.b, 0.0, 0.0, link.bandwidth_bytes_per_s)
                    for link in topo.links.values()
                ],
            ),
            payload_bytes=0,
        )
        samples = run_benchmark(replace(flat, requests=5), "retrieve")
        assert mean_rtt(samples, "cloud", "retrieve") == mean_rtt(samples, "edge", "retrieve") == 0.0


class TestEdgeDominance:
    def test_edge_beats_cloud_whenever_path_is_prefix_and_processing_leq(self, config):
        # jittered variant: dominance must hold for the means of every op
        jittered = replace(
            config,
            topology=type(config.topology)(
                list(config.topology.nodes.values()),
                [
                    type(link)(link.a, link.b, link.delay_ms, 0.5, link.bandwidth_bytes_per_s)
                    for link in config.topology.links.values()
                ],
            ),
        )
        for operation in ("create", "retrieve"):
            samples = run_benchmark(replace(jittered, requests=40), operation)
            assert mean_rtt(samples, "edge", operation) < mean_rtt(
                samples, "cloud", operation
            )


def prepare_mean(config, repetitions):
    return mean_rtt(run_preparation_timing(config, repetitions), "edge", "prepare")


class TestPreparation:
    def test_warm_mean_matches_schedule_replay(self, config):
        samples = run_preparation_timing(config, repetitions=10)
        # replay the control-plane schedule with identical accumulation order
        def one_prep() -> float:
            t = 0.0
            for _ in range(2):  # request forward + instantiate command
                t += 1.2 + 0.0
            for _ in range(len(config.functions)):
                t += 0.0  # warm pull
                t += config.start_delay_ms
            for _ in range(2):  # record + bundle transfer
                t += 1.2 + 0.0
            return t

        expected = statistics.fmean([one_prep()] * 10)
        assert mean_rtt(samples, "edge", "prepare") == expected
        assert all(s.rtt_ms == one_prep() for s in samples)
        assert len(samples) == 10

    def test_free_control_plane_prepares_in_zero_time(self, config):
        topo = config.topology
        free = replace(
            config,
            start_delay_ms=0.0,
            topology=type(topo)(
                list(topo.nodes.values()),
                [
                    type(link)(link.a, link.b, 0.0, 0.0, link.bandwidth_bytes_per_s)
                    for link in topo.links.values()
                ],
            ),
        )
        samples = run_preparation_timing(free, repetitions=3)
        assert mean_rtt(samples, "edge", "prepare") == 0.0

    def test_cold_cache_adds_pull_durations(self, config):
        warm = prepare_mean(config, repetitions=4)
        cold = prepare_mean(replace(config, pre_seeded_cache=False), repetitions=4)
        pulls = len(config.functions) * 4000.0  # 400 MB at 100 MB/s each
        assert cold - warm == pytest.approx(pulls, abs=1e-6)

    def test_a_cold_pull_takes_no_backhaul_propagation(self, config):
        topo = config.topology
        slow = replace(config, topology=type(topo)(
            list(topo.nodes.values()),
            [replace(link, delay_ms=link.delay_ms + 50.0) for link in topo.links.values()],
        ))
        warm = prepare_mean(slow, repetitions=2)
        cold = prepare_mean(replace(slow, pre_seeded_cache=False), repetitions=2)
        assert warm > prepare_mean(config, repetitions=2)  # control messages do pay it
        assert cold - warm == pytest.approx(len(config.functions) * 4000.0, abs=1e-6)

    @pytest.mark.parametrize("variant", ["warm", "cold", "road"])
    def test_preparation_time_equals_the_trace_derived_value(self, config, variant):
        config = {
            "warm": config,
            "cold": replace(config, pre_seeded_cache=False),
            "road": road_config(),
        }[variant]
        system = build_system(config, "edge", 42)
        with pytest.raises(ConfigInvalidError):
            preparation_time_ms(system)
        system.prepare()
        arrivals = [e for e in system.sim.trace if e["kind"] == "service_request_arrival"]
        imports = [e for e in system.sim.trace if e["kind"] == "offload_import_complete"]
        assert len(imports) == len(config.tasks)
        assert preparation_time_ms(system) == imports[-1]["ts"] - arrivals[0]["ts"]

    def test_repetitions_validated(self, config):
        with pytest.raises(ConfigInvalidError):
            run_preparation_timing(config, repetitions=0)


class TestRoadScenario:
    def test_all_assertions_pass(self):
        report = run_road_scenario(seed=42)
        assert report.ok, report.assertions
        names = [name for name, _, _ in report.assertions]
        assert "pre-offload: CitizenB location on edge" in names
        assert any("isomorphic" in n for n in names)
        edge = [s for s in report.samples if s.mode == "edge" and s.operation == "retrieve"]
        cloud = [s for s in report.samples if s.mode == "cloud" and s.operation == "retrieve"]
        assert len(edge) == len(cloud) == 20


class TestAnalyticLowerBound:
    def test_jittered_samples_never_undercut_round_trip_delay(self, config):
        jittered = replace(
            config,
            topology=type(config.topology)(
                list(config.topology.nodes.values()),
                [
                    type(link)(link.a, link.b, link.delay_ms, 1.5, link.bandwidth_bytes_per_s)
                    for link in config.topology.links.values()
                ],
            ),
        )
        for mode, server in (("cloud", "cloud"), ("edge", "edge0")):
            samples = run_benchmark(replace(jittered, modes=[mode], requests=30), "create")
            bound = 2 * jittered.topology.path_delay_ms("dev0", server)
            assert all(s.rtt_ms >= bound for s in samples)


class TestDeterminism:
    def test_same_seed_same_samples(self, config):
        seeded = replace(config, requests=10, seed=7)
        a = run_benchmark(seeded, "retrieve")
        b = run_benchmark(seeded, "retrieve")
        assert a == b

    def test_seed_derivation_separates_modes_and_reps(self):
        assert derive_seed(7, "cloud") != derive_seed(7, "edge")
        assert derive_seed(7, "edge", 1) != derive_seed(7, "edge", 2)

    def test_trace_replay_identical(self, config):
        runs = []
        for _ in range(2):
            system = build_system(config, "edge", 11)
            # each message as it is sent: its time, its ends, its size and its arrival
            sent = tap(system.network, "send", lambda args, arrival, sim=system.sim:
                       (sim.now, args[0], args[1], args[3], arrival))
            system.prepare()
            system.run_workload("create", 5)
            runs.append((sent, system.sim.trace))
        # each create's request, reply, notify and notify reply, at least
        assert len(runs[0][0]) >= 5 * 4
        assert runs[0] == runs[1]


class TestReport:
    def make_samples(self, n=60):
        return [
            LatencySample("s", "cloud", "create", i, 8.5 + (i % 3) * 0.25)
            for i in range(n)
        ]

    def test_sixty_samples_make_sixty_one_lines(self, tmp_path):
        samples_path, summary_path = emit_results(self.make_samples(60), str(tmp_path))
        with open(samples_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 61
        assert lines[0] == "scenario,mode,operation,request_index,rtt_ms"
        assert lines[1] == "s,cloud,create,0,8.500000"

    def test_empty_samples_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalidError):
            emit_results([], str(tmp_path))

    def test_same_inputs_identical_bytes(self, tmp_path):
        p1, s1 = emit_results(self.make_samples(), str(tmp_path / "a"))
        p2, s2 = emit_results(self.make_samples(), str(tmp_path / "b"))
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile_95(values) == 95.0
        assert percentile_95([1.0, 2.0]) == 2.0
        assert percentile_95([3.0]) == 3.0

    def test_summary_grouping(self):
        rows = summarize(self.make_samples(6))
        assert len(rows) == 1
        row = rows[0]
        assert row.count == 6
        # oracle recomputation
        values = [8.5, 8.75, 9.0, 8.5, 8.75, 9.0]
        assert row.mean_ms == statistics.fmean(values)
        assert row.median_ms == statistics.median(values)
        assert row.min_ms == 8.5 and row.max_ms == 9.0


@pytest.mark.parametrize("path", [CALIBRATED_YAML, os.path.join(SCENARIO_DIR, "jittery_campus.yaml")],
                         ids=["reference_calibrated", "jittery_campus"])
def test_a_sample_never_depends_on_the_run_length(path):
    config = load_scenario(path)
    for operation in ("create", "retrieve"):
        for mode in ("cloud", "edge"):
            short = run_benchmark(replace(config, modes=[mode], requests=60), operation)
            assert short == run_benchmark(replace(config, modes=[mode], requests=600), operation)[:60]
