"""Machine-readable experiment output (JSON).

Every harness result can be serialized for plotting or regression
tracking: sweep points from the Figure 4 harnesses and scenario results
from the load tables. ``python -m repro.experiments <exp> --json out.json``
uses these writers.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from .fig4 import SweepPoint
from .loadtest import ScenarioResult


def sweep_to_records(points: Iterable[SweepPoint]) -> List[dict]:
    """Flatten sweep points into plain dicts."""
    return [
        {
            "label": point.label,
            "size_bytes": point.size,
            "system": point.system,
            "rtt_seconds": point.rtt,
        }
        for point in points
    ]


def scenario_to_record(result: ScenarioResult) -> dict:
    """Flatten one load scenario, including per-function rows."""
    return {
        "use_case": result.use_case,
        "configuration": result.configuration,
        "runtime": result.runtime,
        "total_utilization_pct": result.total_utilization_pct,
        "mean_latency_seconds": result.mean_latency,
        "total_processed_rps": result.total_processed,
        "total_target_rps": result.total_target,
        "functions": [
            {
                "function": fn.function,
                "node": fn.node,
                "device": fn.device,
                "utilization_pct": fn.utilization_pct,
                "mean_latency_seconds": fn.latency,
                "processed_rps": fn.processed,
                "target_rps": fn.target,
            }
            for fn in result.functions
        ],
    }


def scenarios_to_records(results: Dict[tuple, ScenarioResult]) -> List[dict]:
    return [scenario_to_record(result)
            for _key, result in sorted(results.items())]


def to_json(records, indent: int = 2) -> str:
    """Serialize records (list or dict) to JSON text."""
    return json.dumps(records, indent=indent, sort_keys=True)


def write_json(records, path: str) -> None:
    with open(path, "w") as f:
        f.write(to_json(records))

