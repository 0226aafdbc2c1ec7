"""Table IV: PipeCNN AlexNet load test aggregates.

The paper's overhead-heavy case: the host launches ~30 kernels per
inference across 8 layer-boundary waits, so BlastFunction's per-call
round trips *raise* latency versus Native (132.89 vs 94.29 ms at medium) —
yet sharing still delivers more processed requests and higher utilization.
"""

import pytest

from repro.experiments import run_scenario
from repro.system import SystemConfig


def _run():
    results = {}
    for runtime in ("blastfunction", "native"):
        for configuration in ("medium", "high"):
            results[(runtime, configuration)] = run_scenario(
                "alexnet", configuration, config=SystemConfig(runtime=runtime))
    return results


def test_table4_alexnet_load(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    bf_medium = results[("blastfunction", "medium")]
    bf_high = results[("blastfunction", "high")]
    native_medium = results[("native", "medium")]
    native_high = results[("native", "high")]

    # Paper: Native ≈ 94 ms; BlastFunction is *higher* (124-133 ms) because
    # the host calls multiple kernels per computation.
    assert native_medium.mean_latency == pytest.approx(94.29e-3, rel=0.1)
    assert bf_medium.mean_latency > 1.15 * native_medium.mean_latency
    assert bf_medium.mean_latency < 2.0 * native_medium.mean_latency

    # Paper: sharing still processes more requests at higher utilization
    # in both configurations.
    for bf, native in ((bf_medium, native_medium), (bf_high, native_high)):
        assert bf.total_processed > native.total_processed
        assert bf.total_utilization_pct > native.total_utilization_pct

    # Paper: medium-load targets are met by both (0.63% / 0.68% gaps).
    assert bf_medium.total_processed == pytest.approx(
        bf_medium.total_target, rel=0.08
    )
    assert native_medium.total_processed == pytest.approx(
        native_medium.total_target, rel=0.08
    )

    benchmark.extra_info["bf_latency_ms"] = round(
        bf_medium.mean_latency * 1e3, 1
    )
    benchmark.extra_info["native_latency_ms"] = round(
        native_medium.mean_latency * 1e3, 1
    )
    benchmark.extra_info["bf_high_processed"] = round(
        bf_high.total_processed, 1
    )
    benchmark.extra_info["native_high_processed"] = round(
        native_high.total_processed, 1
    )
