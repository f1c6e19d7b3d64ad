#!/usr/bin/env python3
"""Walkthrough: the calibrated cloud-vs-edge latency experiments.

Runs the 60-request creation benchmark, the latest-instance retrieval
comparison, and the slice preparation timing with warm and cold caches.
"""
from dataclasses import replace

from edgeslice import (
    reference_calibrated,
    run_benchmark,
    run_preparation_timing,
    summarize,
)
from edgeslice.bench import mean_rtt

config = reference_calibrated()
print("scenario:", config.name)
print("slice functions:", ", ".join(sorted(f.name.lower() for f in config.functions)))

print("\n== instance creation, 60 requests per mode ==")
samples = run_benchmark(config, "create")
for row in summarize(samples):
    print(
        f"  {row.mode:>5}: mean {row.mean_ms:7.3f} ms"
        f"  median {row.median_ms:7.3f}  p95 {row.p95_ms:7.3f}"
    )
gap = mean_rtt(samples, "cloud", "create") - mean_rtt(samples, "edge", "create")
print(f"  edge advantage: {gap:.1f} ms per create")

print("\n== latest-instance retrieval, 60 requests per mode ==")
samples = run_benchmark(config, "retrieve")
cloud = mean_rtt(samples, "cloud", "retrieve")
edge = mean_rtt(samples, "edge", "retrieve")
print(f"  cloud mean: {cloud:.2f} ms")
print(f"  edge  mean: {edge:.2f} ms")
print(f"  ratio: {cloud / edge:.2f}x faster at the edge")

print("\n== slice preparation, 10 measurements ==")
warm = mean_rtt(run_preparation_timing(config, repetitions=10), "edge", "prepare")
print(f"  warm image cache: {warm:9.1f} ms "
      "(control-plane round trips + container starts)")
cold_config = replace(config, pre_seeded_cache=False)
cold = mean_rtt(run_preparation_timing(cold_config, repetitions=10), "edge", "prepare")
print(f"  cold image cache: {cold:9.1f} ms "
      f"(adds {cold - warm:.0f} ms of image pulls)")
print("  -> pre-seeding function images on workers pays for itself")
