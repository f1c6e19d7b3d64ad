"""Command-line front end for the benchmarks and scenario runner.

Exit codes: 0 success, 2 invalid configuration, 3 road-scenario assertion
failures.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import (
    mean_rtt,
    run_benchmark,
    run_preparation_timing,
    run_road_scenario,
)
from .errors import ConfigInvalidError
from .report import emit_results, summarize
from .scenario import MODES, ScenarioConfig, load_scenario, reference_calibrated

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTIONS = 3

MODES_BY_FLAG = {"cloud": ["cloud"], "edge": ["edge"], "both": list(MODES)}


def _config(args) -> ScenarioConfig:
    """The command's scenario file, or else the packaged calibration, read
    with ``--topology``; each run-setting flag that was given replaces the
    scenario's value."""
    scenario_file = getattr(args, "scenario_file", None)
    if scenario_file is None:
        config = reference_calibrated(args.topology)
    else:
        config = load_scenario(scenario_file, args.topology)
    flags = {"seed": args.seed, "requests": getattr(args, "requests", None),
             "modes": MODES_BY_FLAG.get(getattr(args, "mode", None)),
             "pre_seeded_cache": False if getattr(args, "cold", False) else None}
    return replace(config, **{key: value for key, value in flags.items() if value is not None})


def _run_scenario_command(args) -> int:
    """Build the command's config, run it, print the summary rows and write
    the output files."""
    samples = args.run(_config(args), args)
    for row in summarize(samples):
        print(
            f"{row.scenario} {row.mode} {row.operation}: n={row.count}"
            f" mean={row.mean_ms:.3f} ms median={row.median_ms:.3f} ms"
            f" p95={row.p95_ms:.3f} ms"
        )
    samples_path, summary_path = emit_results(samples, args.out)
    print(f"wrote {samples_path} and {summary_path}")
    return EXIT_OK


def cmd_bench_create(config: ScenarioConfig, args) -> list:
    return run_benchmark(config, "create")


def cmd_bench_retrieve(config: ScenarioConfig, args) -> list:
    samples = run_benchmark(config, "retrieve")
    if set(config.modes) == set(MODES):  # the comparison needs both modes
        cloud = mean_rtt(samples, "cloud", "retrieve")
        edge = mean_rtt(samples, "edge", "retrieve")
        print(
            f"cloud/edge retrieval means: {cloud:.3f} ms /"
            f" {edge:.3f} ms (ratio {cloud / edge:.3f})"
        )
    return samples


def cmd_bench_prepare(config: ScenarioConfig, args) -> list:
    samples = run_preparation_timing(config, args.repetitions)
    print(
        f"slice preparation over {args.repetitions} runs"
        f" ({'warm' if config.pre_seeded_cache else 'cold'} cache):"
        f" mean {mean_rtt(samples, 'edge', 'prepare'):.3f} ms"
    )
    return samples


def cmd_run(config: ScenarioConfig, args) -> list:
    return [sample for operation in config.operations for sample in run_benchmark(config, operation)]


def cmd_road_scenario(args) -> int:
    report = run_road_scenario(seed=args.seed)
    for name, passed, detail in report.assertions:
        suffix = f" ({detail})" if detail else ""
        print(f"[{'PASS' if passed else 'FAIL'}] {name}{suffix}")
    samples_path, summary_path = emit_results(report.samples, args.out)
    print(f"wrote {samples_path} and {summary_path}")
    return EXIT_OK if report.ok else EXIT_ASSERTIONS


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeslice",
        description="IoT service slicing and task offloading testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help, run, streams=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=_seed, default=None, help="simulation seed")
        if streams:  # only a command that runs request streams reads --mode and --requests
            p.add_argument("--mode", choices=list(MODES_BY_FLAG), default=None,
                           help="which deployment(s) to measure")
            p.add_argument("--requests", type=int, default=None, help="requests per mode")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--topology", default=None, help="topology file overriding the scenario")
        p.set_defaults(func=_run_scenario_command, run=run)
        return p

    scenario_command("bench-create", "instance-creation latency, cloud vs edge", cmd_bench_create)
    scenario_command("bench-retrieve", "latest-instance retrieval latency", cmd_bench_retrieve)
    p = scenario_command("bench-prepare", "slice preparation timing", cmd_bench_prepare, streams=False)
    p.add_argument("--repetitions", type=int, default=10, help="independent measurements")
    p.add_argument("--cold", action="store_true", help="start with empty image caches")

    p = sub.add_parser("road-scenario", help="crosswalk warning walkthrough with assertions")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_road_scenario)

    p = scenario_command("run", "run a scenario file", cmd_run)
    p.add_argument("scenario_file")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
