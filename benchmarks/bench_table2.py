"""Table II: multi-function Sobel load test (BlastFunction vs Native).

Checks the paper's qualitative results: BlastFunction runs 5 functions on
the 3 boards where Native fits 3; at low load both meet their targets; at
high load the closed-loop latency cap bites and node A saturates; sharing
raises aggregate utilization and served throughput.
"""

import pytest

from repro.experiments import run_scenario
from repro.system import SystemConfig


def _run():
    results = {}
    for runtime in ("blastfunction", "native"):
        for configuration in ("low", "high"):
            results[(runtime, configuration)] = run_scenario(
                "sobel", configuration, config=SystemConfig(runtime=runtime))
    return results


def test_table2_sobel_load(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    bf_low = results[("blastfunction", "low")]
    bf_high = results[("blastfunction", "high")]
    native_low = results[("native", "low")]
    native_high = results[("native", "high")]

    # 5 functions under BlastFunction vs 3 Native (paper's deployment).
    assert len(bf_low.functions) == 5
    assert len(native_low.functions) == 3

    # Low load: both runtimes keep up with the target throughput, with
    # latencies in the paper's 20-30 ms band.
    for result in (bf_low, native_low):
        for fn in result.functions:
            assert fn.processed == pytest.approx(fn.target, rel=0.1)
            assert 15e-3 < fn.latency < 40e-3

    # Sharing serves more aggregate load on the same 3 boards.
    assert bf_high.total_processed > native_high.total_processed
    assert bf_high.total_utilization_pct > native_high.total_utilization_pct

    # High load: node A cannot keep up in either scenario (the paper:
    # "Node A saturated in both cases").
    for result in (bf_high, native_high):
        node_a = [fn for fn in result.functions if fn.node == "A"]
        assert any(fn.processed < 0.9 * fn.target for fn in node_a)

    # Per-function utilization is bounded by a single board.
    for result in results.values():
        for fn in result.functions:
            assert 0.0 <= fn.utilization <= 1.0

    benchmark.extra_info["bf_high_processed"] = round(
        bf_high.total_processed, 1
    )
    benchmark.extra_info["native_high_processed"] = round(
        native_high.total_processed, 1
    )
