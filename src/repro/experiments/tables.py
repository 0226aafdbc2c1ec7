"""Runners for Tables I–IV of the paper."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..system import SystemConfig
from .config import (
    TABLE1_RATES,
    TABLE2_PAPER,
    TABLE3_PAPER,
    TABLE4_PAPER,
    load_timing,
)
from .loadtest import ScenarioResult, run_scenario
from .report import render_table


def run_table1() -> str:
    """Table I is the static load configuration; render it."""
    rows = []
    for use_case, configurations in TABLE1_RATES.items():
        for configuration, rates in configurations.items():
            rows.append(
                [use_case, configuration]
                + [f"{rate:g} rq/s" for rate in rates]
            )
    return render_table(
        ["Use-Case", "Configuration", "1st", "2nd", "3rd", "4th", "5th"],
        rows,
        title="Table I: requests per second sent to each function",
    )


def run_use_case(use_case: str,
                 configurations: Optional[List[str]] = None,
                 runtimes: (List[str] | None) = None,
                 ) -> Dict[tuple, ScenarioResult]:
    """Run every (configuration, runtime) scenario for a use case."""
    configurations = configurations or list(TABLE1_RATES[use_case])
    runtimes = runtimes or ["blastfunction", "native"]
    results: Dict[tuple, ScenarioResult] = {}
    for runtime in runtimes:
        for configuration in configurations:
            results[(runtime, configuration)] = run_scenario(
                use_case, configuration, timing=load_timing(),
                config=SystemConfig(runtime=runtime),
            )
    return results


def render_table2(results: Dict[tuple, ScenarioResult]) -> str:
    """Per-function Sobel results next to the paper's Table II."""
    paper_index = {
        (t.lower().replace("blastfunction", "blastfunction"),
         config, function): (util, latency, processed, target)
        for t, config, function, node, util, latency, processed, target
        in TABLE2_PAPER
    }
    rows = []
    for (runtime, configuration), result in sorted(results.items()):
        for fn in result.functions:
            key = (runtime, configuration, fn.function)
            paper = paper_index.get(key)
            rows.append([
                runtime, configuration, fn.function, fn.node,
                fn.utilization_pct, paper[0] if paper else None,
                fn.latency * 1e3, paper[1] if paper else None,
                fn.processed, paper[2] if paper else None,
                fn.target,
            ])
    return render_table(
        ["Type", "Config", "Function", "Node",
         "Util%", "paper", "Lat ms", "paper", "Proc rq/s", "paper",
         "Target"],
        rows,
        title="Table II: multi-function Sobel results (measured vs paper)",
    )


def _render_aggregate(results: Dict[tuple, ScenarioResult],
                      paper_rows, title: str) -> str:
    paper_index = {
        (t.lower(), config): (util, latency, processed, target)
        for t, config, util, latency, processed, target in paper_rows
    }
    rows = []
    for (runtime, configuration), result in sorted(results.items()):
        paper = paper_index.get((runtime, configuration))
        rows.append([
            runtime, configuration,
            result.total_utilization_pct, paper[0] if paper else None,
            result.mean_latency * 1e3, paper[1] if paper else None,
            result.total_processed, paper[2] if paper else None,
            result.total_target, paper[3] if paper else None,
        ])
    return render_table(
        ["Type", "Config", "Util%", "paper", "Lat ms", "paper",
         "Proc rq/s", "paper", "Target", "paper"],
        rows, title=title,
    )


def render_table3(results: Dict[tuple, ScenarioResult]) -> str:
    return _render_aggregate(
        results, TABLE3_PAPER,
        "Table III: multi-function MM aggregates (measured vs paper)",
    )


def render_table4(results: Dict[tuple, ScenarioResult]) -> str:
    return _render_aggregate(
        results, TABLE4_PAPER,
        "Table IV: PipeCNN AlexNet aggregates (measured vs paper)",
    )
