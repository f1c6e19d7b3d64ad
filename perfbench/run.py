"""edgeslice host-time benchmark.

Runs one workload of ``workloads.WORKLOADS`` for a given time and prints its
metrics, or runs every workload, each in its own process::

    python3 perfbench/run.py --workload create-eager --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory, never from an
installed copy. Every metric is host time or host memory; the simulator's
virtual time is the correctness check: each round's samples must match their
closed forms and, at a workload's default seed, a golden digest.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs some untraced
rounds, then traces the public functions of every module (see ``tracer.py``)
and reports per-layer metrics; the traced rounds must reproduce the
untraced digest. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs (samples,
summary, result and span files) go to ``perfbench/out/<workload>/``.

Exit codes: 0 success; 1 a virtual-time or accounting check failed; 2 bad
usage or the package cannot be imported; 3 a workload comes within a factor
of 2 of the simulator's event cap.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("create-eager", "retrieve-la", "campus-lazy", "prepare-cold")

EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_EVENT_CAP = 3


def import_package() -> None:
    """Put ``src/`` first on the path and check edgeslice comes from there."""
    sys.path.insert(0, SRC)
    try:
        import edgeslice
    except ImportError as exc:
        sys.exit(_usage_error(f"cannot import edgeslice from {SRC}: {exc}"))
    if not os.path.abspath(edgeslice.__file__).startswith(SRC + os.sep):
        sys.exit(_usage_error(f"edgeslice was imported from {edgeslice.__file__}, not {SRC}"))


def _usage_error(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return EXIT_USAGE


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return "unknown"


def context(seed: int, default_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "seed_is_default": seed == default_seed,
    }


def run_one(name: str, seed: "int | None", seconds: float, trace: bool) -> int:
    import_package()
    import measure
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    out_dir = os.path.join(HERE, "out", name)
    os.makedirs(out_dir, exist_ok=True)
    info = context(seed, wl.default_seed)
    print(f"workload {name}: seed {seed}{' (default)' if info['seed_is_default'] else ''},"
          f" python {info['python']}, nproc {info['nproc']}, git {info['git_sha']}")

    def near_event_cap(rounds) -> bool:
        problem = measure.event_cap_problem(wl, rounds)
        if problem:
            print(f"perfbench: {problem}", file=sys.stderr)
        return problem is not None

    if near_event_cap([measure.probe(wl, seed, out_dir)]):
        return EXIT_EVENT_CAP
    run = measure.traced_run if trace else measure.timed_run
    metrics, rounds, problems, notes = run(wl, seed, seconds, out_dir)
    if near_event_cap(rounds):
        return EXIT_EVENT_CAP

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    events = sum(r.events for r in rounds)
    for metric, (value, unit, *detail) in metrics.items():
        suffix = f"  ({detail[0]})" if detail else ""
        print(f"  {metric:<44} {value:>14.6g} {unit}{suffix}")
    print(f"  {'failed_share':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops)")
    print(f"  {'events_per_op':<44} {events / attempted:>14.6g} events/op")
    for note in notes:
        print(f"  {note}")
    digest = rounds[0].digest
    print(f"  virtual-time digest {digest}"
          f" ({'checked against golden' if info['seed_is_default'] else 'golden check skipped: non-default seed'})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    print(f"  checks: {'all passed' if correct else f'{len(problems)} failed'}")

    values = {m: {"value": v, "unit": u} for m, (v, u, *_) in metrics.items()}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "trace": trace, "context": info, "digest": digest,
                   "rounds": len(rounds), "problems": problems, "metrics": values,
                   "attempted": attempted, "failed": failed}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0 if correct else EXIT_CHECK


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        code = subprocess.run(command, check=False).returncode
        worst = max(worst, code)
    print(f"all workloads: exit {worst}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the scenario's seed)")
    parser.add_argument("--seconds", type=float, default=25.0, help="time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
