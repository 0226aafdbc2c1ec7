"""Ablation: shared-memory vs pure-gRPC data plane *under load*.

Figure 4 compares the transports single-client; this ablation re-runs the
Table II medium Sobel scenario with the Registry's shared-memory volumes
disabled, quantifying what the one-copy data path is worth end to end
(Sobel moves ~16 MB per request, so the 3-copies+protobuf path hurts).
"""

import pytest

from repro.experiments import run_scenario
from repro.system import SystemConfig


def _run():
    results = {}
    for use_shm in (True, False):
        results[use_shm] = run_scenario(
            "sobel", "medium", config=SystemConfig(use_shm=use_shm))
    return results


def test_ablation_transport_under_load(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    shm = results[True]
    grpc = results[False]

    # The gRPC data plane costs several extra milliseconds per request.
    assert grpc.mean_latency > shm.mean_latency + 3e-3
    # And loses throughput once the latency cap crosses target intervals.
    assert grpc.total_processed <= shm.total_processed + 1.0

    benchmark.extra_info["shm_latency_ms"] = round(shm.mean_latency * 1e3, 2)
    benchmark.extra_info["grpc_latency_ms"] = round(
        grpc.mean_latency * 1e3, 2
    )
    benchmark.extra_info["shm_processed"] = round(shm.total_processed, 1)
    benchmark.extra_info["grpc_processed"] = round(grpc.total_processed, 1)
