"""Ablation: Algorithm 1's metric ordering.

The Registry sorts candidate devices by a configurable metric priority
("the metrics priority can be chosen depending on the system and
applications SLA").  Ordering by connected functions spreads tenants across
boards; ordering by (scraped) utilization alone is blind at deployment time
— all devices report ~0 — so the accelerator-compatibility tie-break piles
every function onto the first programmed board, collapsing throughput.
"""

import pytest

from repro.experiments import run_scenario
from repro.system import SystemConfig


def _run():
    results = {}
    for label, order in (
        ("spread", ("connected_functions", "utilization")),
        ("utilization_only", ("utilization",)),
    ):
        results[label] = run_scenario(
            "sobel", "high", config=SystemConfig(metrics_order=order))
    return results


def test_ablation_allocation_metric_order(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    spread = results["spread"]
    piled = results["utilization_only"]

    spread_devices = {fn.device for fn in spread.functions}
    piled_devices = {fn.device for fn in piled.functions}

    # connected-functions ordering uses all three boards; utilization-only
    # ordering (blind at deploy time) concentrates placement.
    assert len(spread_devices) == 3
    assert len(piled_devices) < 3

    # The spread placement serves substantially more load.
    assert spread.total_processed > 1.2 * piled.total_processed

    benchmark.extra_info["spread_processed"] = round(
        spread.total_processed, 1
    )
    benchmark.extra_info["piled_processed"] = round(piled.total_processed, 1)
    benchmark.extra_info["piled_devices"] = len(piled_devices)
