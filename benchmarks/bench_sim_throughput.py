"""Simulation-kernel throughput: DES events/sec and Table II wall clock.

Unlike the other benchmarks (which check *simulated* results), this one
measures the simulator itself — the real-time cost of the zero-copy data
plane and the DES hot path.  It writes ``BENCH_simcore.json`` at the repo
root, a record of these wall clocks on the machine that last ran it; no
gate compares against it (wall clocks drift across machines, and the
tier-1 event-budget tests pin the simulator's work exactly).

``baseline_*`` figures are the pre-optimization numbers recorded on the
machine that produced the committed file (bytes-based data plane, un-slotted
event kernel); ``recorded_full_*`` is the paper-length run measured on the
same machine, which the quick benchmark cannot afford to repeat.
"""

import json
import platform
import statistics
import time
from pathlib import Path

from repro.experiments.config import load_timing
from repro.experiments.loadtest import run_scenario
from repro.experiments.tables import run_use_case
from repro.sim import Environment
from repro.system import SystemConfig

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_simcore.json"

#: Pre-optimization wall clocks (same machine as the committed baselines).
BASELINE_QUICK_WALL_S = 7.60
BASELINE_FULL_WALL_S = 29.19
#: Paper-length wall clock measured after the optimization.
RECORDED_FULL_WALL_S = 5.77

_results: dict = {}


def _pingpong(env: Environment, steps: int):
    for _ in range(steps):
        yield env.timeout(0.001)


def test_des_event_throughput(benchmark):
    """Raw kernel throughput: 200 processes × 500 timeouts each."""

    def run() -> float:
        env = Environment()
        for _ in range(200):
            env.process(_pingpong(env, 500))
        start = time.perf_counter()
        env.run()
        wall = time.perf_counter() - start
        # _eid counts every scheduled event (timeouts + process resumes).
        return env._eid / wall

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    _results["des_events_per_sec"] = round(rate)
    # Generous floor: the slotted kernel clears ~500k events/s on a
    # workstation; fail only on an order-of-magnitude collapse.
    assert rate > 50_000


def test_table2_quick_wall(benchmark):
    """Wall clock of the full quick-mode Table II sweep (6 scenarios)."""
    start = time.perf_counter()
    results = benchmark.pedantic(
        lambda: run_use_case("sobel"), rounds=1, iterations=1
    )
    _results["table2_quick_wall_s"] = round(time.perf_counter() - start, 3)
    assert len(results) == 6


#: Runs per arm of the overhead measurement.  Single-shot walls on a
#: shared machine are noisy enough to report *negative* overheads; the
#: median of five in-process runs per arm keeps noise out of the ratio.
OVERHEAD_RUNS = 5


def _scenario_wall(config: SystemConfig = SystemConfig()) -> float:
    """Wall clock of one quick Table-II "low" scenario."""
    start = time.perf_counter()
    run_scenario("sobel", "low", timing=load_timing(), config=config)
    return time.perf_counter() - start


def test_durable_store_overhead():
    """The WAL + snapshot layer must stay cheap on the serving hot path.

    With a durable Registry every admission, removal, device
    state flip and watch event appends an in-memory WAL record, and a
    background process snapshots the full registry image every
    ``snapshot_interval`` simulated seconds.  None of that sits on the
    per-request data path, so the cost over a volatile registry should
    be bookkeeping noise.  Each arm is the median of ``OVERHEAD_RUNS``
    identical in-process quick Table-II 'low' runs, both arms on the same
    machine.
    """
    volatile = statistics.median(
        _scenario_wall() for _ in range(OVERHEAD_RUNS)
    )
    durable = statistics.median(
        _scenario_wall(config=SystemConfig(durability="durable"))
        for _ in range(OVERHEAD_RUNS)
    )
    overhead_pct = (durable / volatile - 1.0) * 100
    _results["durable_store_overhead_pct"] = round(overhead_pct, 2)
    _results["registry_volatile_median_s"] = round(volatile, 3)
    _results["registry_durable_median_s"] = round(durable, 3)
    assert overhead_pct < 25.0, (
        f"durable registry costs {overhead_pct:.1f}% of the Table II "
        f"scenario wall clock (volatile {volatile:.3f}s vs durable "
        f"{durable:.3f}s)"
    )


def test_write_bench_json():
    """Persist the measurements (runs last: pytest keeps file order)."""
    assert {"des_events_per_sec", "table2_quick_wall_s"} <= set(_results)
    OUTPUT.write_text(json.dumps({
        "python": platform.python_version(),
        "des": {
            "events_per_sec": _results["des_events_per_sec"],
        },
        "table2": {
            "quick_wall_s": _results["table2_quick_wall_s"],
            "baseline_quick_wall_s": BASELINE_QUICK_WALL_S,
            "recorded_full_wall_s": RECORDED_FULL_WALL_S,
            "baseline_full_wall_s": BASELINE_FULL_WALL_S,
            "recorded_full_speedup": round(
                BASELINE_FULL_WALL_S / RECORDED_FULL_WALL_S, 2
            ),
        },
        "registry": {
            "durable_store_overhead_pct": _results.get(
                "durable_store_overhead_pct"),
            "volatile_median_s": _results.get(
                "registry_volatile_median_s"),
            "durable_median_s": _results.get("registry_durable_median_s"),
            "method": (
                f"median of {OVERHEAD_RUNS} in-process quick Table-II "
                "'low' runs per arm (volatile vs durable Registry)"
            ),
        },
    }, indent=2) + "\n")
