"""Control-plane scale sweep: the paper's 3 boards grown to 1024.

The paper's testbed is three nodes with one FPGA each; this experiment
asks what the control plane costs when the same architecture serves a
fleet.  Each cell builds a cluster of N boards, deploys ``ceil(5N/3)``
functions (the paper's 5-functions-per-3-boards density) with a
Table-II-style mixed load — Sobel and MM functions interleaved, each
driven at its Table I "low" rate — and reports:

* **allocation latency** — mean wall clock of Algorithm 1 per admission,
  plus an in-situ micro-benchmark of the indexed allocator against the
  brute-force oracle on the exact same fleet state;
* **scrape cost** — mean wall clock of one metrics scrape over all N
  targets;
* **end-to-end latency** — p50/p99 over every request of the cell;
* **DES throughput** — events/sec during the load phase.

The cell runs in fleet mode: indexed allocation (the default), a shared
:class:`~repro.sim.TimerWheel` carrying both the scraper and the
coalesced heartbeat/lease protocol, and ring-buffer sample retention.
``python -m repro.experiments scale`` writes the sweep to
``BENCH_scale.json`` at the repo root, a record of its wall times.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cluster import DeviceQuery
from ..core.registry import AcceleratorsRegistry
from ..core.registry.allocation import allocate
from ..faults import HealthPolicy
from ..loadgen import percentile
from ..sim import Environment
from ..system import Load, SystemConfig, build_system
from .config import TABLE1_RATES, LoadTiming, quick_mode
from .loadtest import ACCELERATORS, APP_FACTORIES
from .report import render_table

#: The paper's deployment density: 5 functions on 3 boards.
FUNCTIONS_PER_BOARD = 5.0 / 3.0

#: Cluster sizes of the full sweep (the paper's 3 plus fleet scales).
SIZES_FULL: Tuple[int, ...] = (3, 64, 256, 1024)
SIZES_QUICK: Tuple[int, ...] = (3, 64)

#: Shared measurement window of every cell (simulated seconds).  The
#: sweep compares *control-plane* cost across sizes, so the window is
#: deliberately short and identical for all cells.
SCALE_TIMING = LoadTiming(warmup=1.0, duration=3.0)

#: Micro-benchmark repetitions (the oracle's shrink with fleet size —
#: one brute-force allocation at 1024 boards costs milliseconds).
INDEXED_REPS = 200


@dataclass
class ScaleCell:
    """Measurements of one cluster size."""

    boards: int
    functions: int
    requests: int
    deploy_wall_s: float
    load_wall_s: float
    wall_s: float
    sim_events: int
    events_per_sec: float
    #: Mean Algorithm 1 latency over the cell's real admissions.
    alloc_ms: float
    allocations: int
    migrations: int
    #: In-situ micro-benchmark on the final fleet state.
    indexed_alloc_us: float
    oracle_alloc_us: float
    alloc_speedup: float
    #: Mean wall clock of one scrape over all targets.
    scrape_ms: float
    scrapes: int
    p50_ms: float
    p99_ms: float

    def to_record(self) -> dict:
        return {
            "boards": self.boards,
            "functions": self.functions,
            "requests": self.requests,
            "deploy_wall_s": round(self.deploy_wall_s, 3),
            "load_wall_s": round(self.load_wall_s, 3),
            "wall_s": round(self.wall_s, 3),
            "sim_events": self.sim_events,
            "events_per_sec": round(self.events_per_sec),
            "alloc_ms": round(self.alloc_ms, 4),
            "allocations": self.allocations,
            "migrations": self.migrations,
            "indexed_alloc_us": round(self.indexed_alloc_us, 2),
            "oracle_alloc_us": round(self.oracle_alloc_us, 2),
            "alloc_speedup": round(self.alloc_speedup, 1),
            "scrape_ms": round(self.scrape_ms, 4),
            "scrapes": self.scrapes,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


def _workload_plan(functions: int) -> List[Tuple[str, str, float]]:
    """``(name, use_case, rate)`` per function: Sobel/MM interleaved,
    Table I "low" rates cycled within each use case."""
    plan: List[Tuple[str, str, float]] = []
    counters = {"sobel": 0, "mm": 0}
    for index in range(functions):
        use_case = "sobel" if index % 2 == 0 else "mm"
        rates = TABLE1_RATES[use_case]["low"]
        rate = rates[counters[use_case] % len(rates)]
        counters[use_case] += 1
        plan.append((f"{use_case}-{index}", use_case, float(rate)))
    return plan


def _bench_allocators(registry: AcceleratorsRegistry,
                      boards: int) -> Tuple[float, float]:
    """Time indexed vs brute-force Algorithm 1 on the live fleet state.

    Both arms answer the same query against the same Devices Service /
    Metrics Gatherer contents; neither mutates anything.  The oracle arm
    includes rebuilding the :class:`DeviceView` list — that *is* the
    brute-force path's per-allocation cost.
    """
    query = DeviceQuery(vendor="Intel", accelerator="sobel")
    registry._refresh_stale(registry.env.now)

    start = _time.perf_counter()
    for _ in range(INDEXED_REPS):
        registry.index.allocate(query, "")
    indexed_us = (_time.perf_counter() - start) / INDEXED_REPS * 1e6

    oracle_reps = max(3, min(100, 30_000 // boards))
    start = _time.perf_counter()
    for _ in range(oracle_reps):
        allocate(query, "", registry.device_views(),
                 registry.metrics_order, registry.metrics_filters)
    oracle_us = (_time.perf_counter() - start) / oracle_reps * 1e6
    return indexed_us, oracle_us


def run_scale_cell(boards: int,
                   timing: Optional[LoadTiming] = None) -> ScaleCell:
    """Build, deploy and drive one cluster size; return its measurements."""
    timing = timing or SCALE_TIMING
    cell_start = _time.perf_counter()
    env = Environment()
    system = build_system(env, SystemConfig(
        boards=boards,
        health=HealthPolicy(heartbeat_interval=0.5, lease_timeout=2.0,
                            coalesce=True),
    ))
    registry, scraper = system.registry, system.testbed.scraper

    functions = max(1, round(boards * FUNCTIONS_PER_BOARD))
    plan = _workload_plan(functions)

    deploy_start = _time.perf_counter()
    system.deploy([
        system.function_spec(name, APP_FACTORIES[use_case],
                             ACCELERATORS[use_case])
        for name, use_case, _rate in plan
    ], order="concurrent")
    deploy_wall = _time.perf_counter() - deploy_start

    eid_before = env._eid
    load_start = _time.perf_counter()
    stats_list = system.drive([
        Load(name, rate, warmup=timing.warmup, duration=timing.duration)
        for name, _use_case, rate in plan
    ])
    load_wall = _time.perf_counter() - load_start
    sim_events = env._eid - eid_before

    latencies = [l for stats in stats_list for l in stats.latencies]
    requests = sum(stats.completed for stats in stats_list)
    indexed_us, oracle_us = _bench_allocators(registry, boards)

    return ScaleCell(
        boards=boards,
        functions=functions,
        requests=requests,
        deploy_wall_s=deploy_wall,
        load_wall_s=load_wall,
        wall_s=_time.perf_counter() - cell_start,
        sim_events=sim_events,
        events_per_sec=sim_events / load_wall if load_wall else 0.0,
        alloc_ms=(
            registry.alloc_wall / registry.allocations * 1e3
            if registry.allocations else 0.0
        ),
        allocations=registry.allocations,
        migrations=registry.migrations,
        indexed_alloc_us=indexed_us,
        oracle_alloc_us=oracle_us,
        alloc_speedup=oracle_us / indexed_us if indexed_us else 0.0,
        scrape_ms=(
            scraper.scrape_wall / scraper.scrape_count * 1e3
            if scraper.scrape_count else 0.0
        ),
        scrapes=scraper.scrape_count,
        p50_ms=1e3 * percentile(latencies, 50) if latencies else 0.0,
        p99_ms=1e3 * percentile(latencies, 99) if latencies else 0.0,
    )


def run_scale_sweep(sizes: Optional[Sequence[int]] = None,
                    timing: Optional[LoadTiming] = None) -> List[ScaleCell]:
    """Run every cell of the sweep (quick mode stops at 64 boards)."""
    if sizes is None:
        sizes = SIZES_QUICK if quick_mode() else SIZES_FULL
    return [run_scale_cell(boards, timing=timing) for boards in sizes]


def render_scale(cells: List[ScaleCell]) -> str:
    rows = [
        [cell.boards, cell.functions, cell.requests,
         cell.alloc_ms, cell.indexed_alloc_us, cell.oracle_alloc_us,
         cell.alloc_speedup, cell.scrape_ms,
         cell.p50_ms, cell.p99_ms,
         round(cell.events_per_sec / 1e3, 1), round(cell.wall_s, 1)]
        for cell in cells
    ]
    return render_table(
        ["Boards", "Funcs", "Reqs", "Alloc ms", "Idx µs", "Oracle µs",
         "Speedup", "Scrape ms", "p50 ms", "p99 ms", "kEv/s", "Wall s"],
        rows,
        title="Scale sweep: control-plane cost vs cluster size",
    )


def write_bench_json(cells: List[ScaleCell], path) -> None:
    """Persist the sweep as ``BENCH_scale.json``, a record of its wall
    times."""
    import json
    import platform

    payload = {
        "python": platform.python_version(),
        "timing": {"warmup_s": SCALE_TIMING.warmup,
                   "duration_s": SCALE_TIMING.duration},
        "cells": {str(cell.boards): cell.to_record() for cell in cells},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
