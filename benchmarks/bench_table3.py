"""Table III: multi-function MM load test aggregates.

The paper's strongest sharing result: Native misses its target by up to
39.97% at high load (its per-request latency of ~21-24 ms caps each
single-connection closed loop at ~42 rq/s), while BlastFunction — whose
task batching collapses the four host calls into one round trip — stays
within ~1-2% of the 266 rq/s aggregate target at a *lower* latency.
"""

import pytest

from repro.experiments import run_scenario
from repro.system import SystemConfig


def _run():
    results = {}
    for runtime in ("blastfunction", "native"):
        for configuration in ("low", "high"):
            results[(runtime, configuration)] = run_scenario(
                "mm", configuration, config=SystemConfig(runtime=runtime))
    return results


def test_table3_mm_load(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    bf_low = results[("blastfunction", "low")]
    bf_high = results[("blastfunction", "high")]
    native_low = results[("native", "low")]
    native_high = results[("native", "high")]

    # Paper: BlastFunction latency ~11-13 ms, Native ~21-25 ms (inverted!).
    assert 9e-3 < bf_low.mean_latency < 15e-3
    assert 18e-3 < native_low.mean_latency < 28e-3
    assert bf_low.mean_latency < native_low.mean_latency

    # Paper: low-load targets met by both (0.04% / 3.97% gaps).
    assert bf_low.total_processed == pytest.approx(
        bf_low.total_target, rel=0.05
    )
    assert native_low.total_processed == pytest.approx(
        native_low.total_target, rel=0.08
    )

    # Paper: at high load Native collapses (39.97% gap), BlastFunction
    # stays within a couple percent.
    native_gap = 1 - native_high.total_processed / native_high.total_target
    bf_gap = 1 - bf_high.total_processed / bf_high.total_target
    assert native_gap > 0.3
    assert bf_gap < 0.1
    assert bf_high.total_processed > 1.8 * native_high.total_processed

    benchmark.extra_info["bf_high_gap_pct"] = round(100 * bf_gap, 2)
    benchmark.extra_info["native_high_gap_pct"] = round(100 * native_gap, 2)
    benchmark.extra_info["bf_latency_ms"] = round(
        bf_low.mean_latency * 1e3, 2
    )
    benchmark.extra_info["native_latency_ms"] = round(
        native_low.mean_latency * 1e3, 2
    )
