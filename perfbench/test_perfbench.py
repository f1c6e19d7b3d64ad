"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

from edgeslice import bench, notify, scenario, system  # noqa: E402
from edgeslice.netsim import LatencySample  # noqa: E402
from edgeslice.slicing import FunctionKind  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
from tracer import LayerReport, Tracer  # noqa: E402
from workloads import WORKLOADS, Phases, RoundResult, calibrated_bounds, check_rtts, run_stream  # noqa: E402

SMALL = 5  # requests per stream in these tests


def small_round(wl, out_dir, tracer=None) -> RoundResult:
    phases = Phases(tracer)
    result = wl.run_round(wl, wl.default_seed, SMALL, phases, str(out_dir))
    result.measured_ns = phases.measured_ns
    result.summarize()
    return result


def test_failed_share_reads_one_without_the_retrieve_function():
    config = scenario.reference_calibrated()
    config = replace(config, functions=config.functions - {FunctionKind.RETRIEVE})
    edge = bench.build_system(config, "edge", 42)
    edge.prepare()
    result = RoundResult()
    run_stream(edge, result, "retrieve", SMALL)
    assert result.attempted == SMALL
    assert result.failed / result.attempted == 1.0

    cloud = bench.build_system(config, "cloud", 42)
    result = RoundResult()
    run_stream(cloud, result, "retrieve", SMALL)
    assert (result.attempted, result.failed) == (SMALL, 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_virtual_time_and_accounts_for_every_nanosecond(name, tmp_path):
    wl = WORKLOADS[name]
    plain = small_round(wl, tmp_path)
    original = system.match_subscriptions
    tracer = Tracer()
    tracer.install()
    try:
        assert system.match_subscriptions is not original
        traced = small_round(wl, tmp_path, tracer)
        tracer.fold()
    finally:
        tracer.uninstall()
    assert system.match_subscriptions is original is notify.match_subscriptions
    assert plain.problems == [] and traced.problems == []
    assert traced.digest == plain.digest
    layers = LayerReport(tracer, traced.attempted, {})
    assert layers.base_ns > 0
    assert layers.accounting_residual_ns() == 0
    assert tracer.write_spans(str(tmp_path / "spans.csv")) > 0


def test_closed_form_check_flags_a_shifted_sample():
    good = LatencySample("s", "edge", "create", 0, 6.1)
    shifted = replace(good, rtt_ms=6.1 + 1e-6)
    assert check_rtts([good], calibrated_bounds) == []
    assert len(check_rtts([good, shifted], calibrated_bounds)) == 1


def test_event_cap_guard_fails_before_a_long_run(tmp_path):
    wl = WORKLOADS["retrieve-la"]
    probe = small_round(wl, tmp_path)
    assert measure.event_cap_problem(wl, [probe]) is None
    too_long = replace(wl, requests=200_000)  # 3 events per retrieve
    message = measure.event_cap_problem(too_long, [probe])
    assert message is not None and "factor of 2" in message


def test_tail_factor_ignores_a_slow_round_and_one_unlucky_op():
    def timed(op_ns):
        r = RoundResult()
        r.op_ns = op_ns
        return r

    quiet = [100] * 98 + [150, 300]  # two ops do more work
    slow_round = [2 * ns for ns in quiet]
    unlucky = quiet[:10] + [900] + quiet[11:]
    rounds = [timed(quiet), timed(slow_round), timed(unlucky)]
    assert measure.tail_factor(rounds, 99) == 1.5
    assert measure.tail_factor(rounds, 50) == 1.0


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {
        "ops_per_s": "ops/s", "op_host_us_p50": "us", "op_host_us_tail": "us",
        "setup_s": "s", "peak_rss_mb": "MiB",
    }
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = LayerReport(Tracer(), 1, {}).metrics(1.0)
    assert per_layer == {name: unit for name, (_, unit) in reported.items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "create-eager", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
