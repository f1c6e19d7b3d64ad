"""Command-line front end for the benchmarks and scenario runner.

Exit codes: 0 success, 2 invalid configuration, 3 road-scenario assertion
failures.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import (
    run_benchmark,
    run_preparation_timing,
    run_retrieval_comparison,
    run_road_scenario,
)
from .errors import ConfigInvalidError
from .report import emit_results, summarize
from .scenario import ScenarioConfig, load_scenario, reference_calibrated

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTIONS = 3


def _modes(value: str) -> list[str]:
    return ["cloud", "edge"] if value == "both" else [value]


def _base_config(args) -> ScenarioConfig:
    return reference_calibrated(getattr(args, "topology", None))


def _print_summary(samples) -> None:
    for row in summarize(samples):
        print(
            f"{row.scenario} {row.mode} {row.operation}: n={row.count}"
            f" mean={row.mean_ms:.3f} ms median={row.median_ms:.3f} ms"
            f" p95={row.p95_ms:.3f} ms"
        )


def _emit(samples, out_dir: str) -> None:
    samples_path, summary_path = emit_results(samples, out_dir)
    print(f"wrote {samples_path} and {summary_path}")


def cmd_bench_create(args) -> int:
    config = _base_config(args)
    samples = run_benchmark(config, "create", _modes(args.mode), args.requests, args.seed)
    _print_summary(samples)
    _emit(samples, args.out)
    return EXIT_OK


def cmd_bench_retrieve(args) -> int:
    config = _base_config(args)
    if args.mode == "both":
        comparison = run_retrieval_comparison(config, args.requests, args.seed)
        samples = comparison.samples
        print(
            f"cloud/edge retrieval means: {comparison.cloud_mean_ms:.3f} ms /"
            f" {comparison.edge_mean_ms:.3f} ms (ratio {comparison.ratio:.3f})"
        )
    else:
        samples = run_benchmark(config, "retrieve", _modes(args.mode), args.requests, args.seed)
    _print_summary(samples)
    _emit(samples, args.out)
    return EXIT_OK


def cmd_bench_prepare(args) -> int:
    config = _base_config(args)
    timing = run_preparation_timing(
        config, repetitions=args.repetitions, seed=args.seed, cold_cache=args.cold or None
    )
    cache = "cold" if args.cold else ("warm" if config.pre_seeded_cache else "cold")
    print(
        f"slice preparation over {args.repetitions} runs ({cache} cache):"
        f" mean {timing.mean_ms:.3f} ms"
    )
    _emit(timing.samples, args.out)
    return EXIT_OK


def cmd_road_scenario(args) -> int:
    report = run_road_scenario(seed=args.seed)
    for name, passed, detail in report.assertions:
        suffix = f" ({detail})" if detail else ""
        print(f"[{'PASS' if passed else 'FAIL'}] {name}{suffix}")
    _emit(report.samples, args.out)
    return EXIT_OK if report.ok else EXIT_ASSERTIONS


def cmd_run(args) -> int:
    config = load_scenario(args.scenario_file, getattr(args, "topology", None))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.requests is not None:
        config = replace(config, requests=args.requests)
    modes = _modes(args.mode) if args.mode else config.modes
    samples = []
    for operation in config.operations:
        samples.extend(run_benchmark(config, operation, modes))
    _print_summary(samples)
    _emit(samples, args.out)
    return EXIT_OK


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

    def common(p, requests_default=60, with_mode=True):
        p.add_argument("--seed", type=_seed, default=42, help="simulation seed")
        if with_mode:
            p.add_argument(
                "--mode", choices=["cloud", "edge", "both"], default="both",
                help="which deployment(s) to measure",
            )
        p.add_argument(
            "--requests", type=int, default=requests_default, help="requests per mode"
        )
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--topology", default=None, help="topology file overriding the scenario")

    p = sub.add_parser("bench-create", help="instance-creation latency, cloud vs edge")
    common(p)
    p.set_defaults(func=cmd_bench_create)

    p = sub.add_parser("bench-retrieve", help="latest-instance retrieval latency")
    common(p)
    p.set_defaults(func=cmd_bench_retrieve)

    p = sub.add_parser("bench-prepare", help="slice preparation timing")
    common(p, with_mode=False)
    p.add_argument("--repetitions", type=int, default=10, help="independent measurements")
    p.add_argument("--cold", action="store_true", help="start with empty image caches")
    p.set_defaults(func=cmd_bench_prepare)

    p = sub.add_parser("road-scenario", help="crosswalk warning walkthrough with assertions")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_road_scenario)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario_file")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--mode", choices=["cloud", "edge", "both"], default=None)
    p.add_argument("--requests", type=int, default=None)
    p.add_argument("--out", default="results")
    p.add_argument("--topology", default=None)
    p.set_defaults(func=cmd_run)

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
