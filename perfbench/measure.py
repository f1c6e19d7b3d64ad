"""Running a workload's rounds and turning them into metrics."""
from __future__ import annotations

import gc
import os
import resource
import statistics
from collections import Counter
from time import perf_counter

from tracer import ACCOUNTING_TOLERANCE, LayerReport, Tracer
from workloads import EVENT_CAP, Phases, tail_rank

MIN_ROUNDS = 3  # every timing is the fastest of at least this many rounds
PROBE_REQUESTS = 10  # requests per stream in the untimed warm-up round
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
UNTRACED_SHARE = 0.25  # share of a traced run's time spent untraced first


def run_rounds(wl, seed: int, seconds: float, out_dir: str, min_rounds: int,
               tracer: "Tracer | None" = None) -> list:
    """Repeat the workload's round until ``seconds`` have passed and at
    least ``min_rounds`` rounds ran."""
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        phases = Phases(tracer)
        result = wl.run_round(wl, seed, wl.requests, phases, out_dir)
        result.setup_ns, result.measured_ns = phases.setup_ns, phases.measured_ns
        result.summarize()
        if tracer is not None:
            tracer.fold()
        rounds.append(result)
        # the round's deployments are reference cycles; free them now, so
        # that every round starts from the same heap and peak memory does
        # not depend on when the collector last ran
        gc.collect()
    return rounds


def probe(wl, seed: int, out_dir: str):
    """Untimed warm-up round at a short length; it also sizes the event-cap
    guard before the long rounds run."""
    result = wl.run_round(wl, seed, PROBE_REQUESTS, Phases(), out_dir)
    result.summarize()
    return result


def event_cap_problem(wl, rounds) -> "str | None":
    """Project each simulator run to the configured length; report one that
    would come within a factor of 2 of the cap."""
    worst = max(events / ops for r in rounds for ops, events in r.calls)
    length = wl.ops_per_sim_run or wl.requests
    projected = worst * length
    if 2 * projected >= EVENT_CAP:
        return (
            f"{wl.name}: {worst:.1f} events per op x {length} ops per simulator run"
            f" = {projected:,.0f} events, within a factor of 2 of the"
            f" {EVENT_CAP:,}-event cap of Simulator.run_until_idle; shorten the workload"
        )
    return None


def virtual_time_problems(wl, seed: int, rounds, reference: "str | None" = None) -> list[str]:
    """Each round's own check failures; all rounds (and ``reference``, the
    digest of untraced rounds) must agree; at the default seed the digest
    must equal the golden one."""
    problems = []
    for index, r in enumerate(rounds):
        problems.extend(f"round {index}: {p}" for p in r.problems)
    digests = {r.digest for r in rounds}
    if reference is not None:
        digests.add(reference)
    if len(digests) != 1:
        problems.append(f"rounds disagree on the virtual-time digest: {sorted(digests)}")
    elif seed == wl.default_seed and wl.golden_digest not in digests:
        problems.append(
            f"virtual-time digest {digests.pop()} differs from the golden {wl.golden_digest}"
        )
    return problems


def min_ops_for_tail(pct: int) -> int:
    """Fewest samples that leave TAIL_BEYOND above the nearest-rank ``pct``."""
    count = 1
    while count - tail_rank(count, pct) < TAIL_BEYOND:
        count += 1
    return count


def tail_factor(rounds, pct: int) -> float:
    """The ``pct``-th percentile over ops of each op's host time relative to
    its round's median op time, taken per op as the median over the rounds.

    Dividing by the round's median removes a slowdown of the whole machine
    that lasts the round; the median over rounds removes one op's bad luck.
    What is left is how much slower the slow ops are than the typical op
    (a collector pause, a stream's first or last op, a growing container).
    """
    ratios = []
    for r in rounds:
        ordered = sorted(r.op_ns)
        median = ordered[tail_rank(len(ordered), 50) - 1]
        ratios.append([ns / median for ns in r.op_ns])
    per_op = sorted(statistics.median(op) for op in zip(*ratios))
    return per_op[tail_rank(len(per_op), pct) - 1]


def timed_run(wl, seed: int, seconds: float, out_dir: str):
    """End-to-end metrics: (value, unit, sample count note) by name.

    Every round runs the same ops in the same order, so the n-th op of each
    round does the same work. Each op's host time is taken as its fastest
    over the rounds: other tenants of a shared machine only ever slow the
    host down, in bursts that can cover most of a run, and the fastest of
    repeated identical executions is the estimate they disturb least (the
    reasoning of ``timeit``). The median is over these per-op times;
    ops_per_s divides the ops by their sum plus the fastest rest of the
    measured phase (``emit_results`` and the harness).
    The tail is that median times ``tail_factor``. A neighbour's load slows
    every op alike, by up to 1.6x for seconds at a time, so a high percentile
    of the fastest times would be set by the few ops that never ran in a
    quiet stretch: by chance, not by the work they do.
    setup_s is the fastest of the rounds' set-ups, for the same reason: their
    median moved by a third between runs in bursts of interference.
    """
    rounds = run_rounds(wl, seed, seconds, out_dir, MIN_ROUNDS)
    op_ns = sorted(min(times) for times in zip(*(r.op_ns for r in rounds)))
    ops = len(op_ns)
    p50_ns = op_ns[tail_rank(ops, 50) - 1]
    rest_ns = min(r.measured_ns - sum(r.op_ns) for r in rounds)
    problems = virtual_time_problems(wl, seed, rounds)
    if ops < min_ops_for_tail(wl.tail_percentile):
        problems.append(f"{ops} ops per round leave fewer than {TAIL_BEYOND} beyond"
                        f" p{wl.tail_percentile}")
    per_op = f"{ops} ops, each the fastest of {len(rounds)} rounds"
    metrics = {
        "ops_per_s": (ops / ((sum(op_ns) + rest_ns) / 1e9), "ops/s", per_op),
        "op_host_us_p50": (p50_ns / 1000, "us", per_op),
        "op_host_us_tail": (p50_ns * tail_factor(rounds, wl.tail_percentile) / 1000, "us",
                            f"p50 x p{wl.tail_percentile} of {ops} ops' times over their"
                            f" round's median, each the median of {len(rounds)} rounds"),
        "setup_s": (min(r.setup_ns for r in rounds) / 1e9, "s",
                    f"fastest of {len(rounds)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                        "ru_maxrss of this process"),
    }
    return metrics, rounds, problems, []


def traced_run(wl, seed: int, seconds: float, out_dir: str):
    """Untraced rounds first, then traced rounds; per-layer metrics."""
    untraced = run_rounds(wl, seed, seconds * UNTRACED_SHARE, out_dir, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, seed, seconds * (1 - UNTRACED_SHARE), out_dir, 1, tracer)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(out_dir, "spans.csv")
    spans = tracer.write_spans(spans_path)

    def rate(rounds):
        return sum(r.ops for r in rounds) / sum(r.measured_ns / 1e9 for r in rounds)

    counters = Counter()
    for r in traced:
        counters.update(r.counters)
        counters["netsim.events"] += r.events
    layers = LayerReport(tracer, sum(r.attempted for r in traced), counters)
    ratio = rate(traced) / rate(untraced)
    metrics = layers.metrics(ratio)

    problems = virtual_time_problems(wl, seed, untraced)
    problems.extend(
        f"traced: {p}" for p in virtual_time_problems(wl, seed, traced, untraced[0].digest)
    )
    if not layers.accounting_ok():
        problems.append(
            f"layer self times + unattributed = {layers.attributed_ns + layers.unattributed_ns} ns"
            f" but the measured root spans last {layers.base_ns} ns"
        )
    shares = ", ".join(
        f"{layer} {ns / layers.base_ns:.3f}"
        for layer, ns in sorted(layers.layer_self_ns().items(), key=lambda kv: -kv[1])
    )
    notes = [
        f"traced {len(traced)} rounds after {len(untraced)} untraced;"
        f" {spans} spans of the first traced round in {spans_path}",
        f"self_share base: traced measured wall time {layers.base_ns / 1e9:.6f} s",
        f"layer self shares: {shares}, unattributed {layers.unattributed_ns / layers.base_ns:.3f}",
        f"accounting: residual {layers.accounting_residual_ns()} ns"
        f" (tolerance {ACCOUNTING_TOLERANCE:.1%} of the base)",
        f"tracing overhead: traced ops_per_s is {ratio:.3f} x the untraced"
        f" ({rate(traced):.1f} vs {rate(untraced):.1f} ops/s)",
    ]
    return metrics, untraced + traced, problems, notes
