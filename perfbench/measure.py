"""One round of a workload, measured in an interpreter of its own.

A round builds every cell of the workload from an empty
:class:`~repro.sim.Environment`, runs its load phase and checks its outputs.
Run as a script (``measure.py WORKLOAD SEED TRACED``), it prints the round's
summary as JSON for ``run.py``, which combines rounds.  Each round runs in a
fresh interpreter because the simulator keeps process-wide id counters: a
second storm in one process simulates slightly different bytes than the
first.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro.loadgen import percentile
from repro.sim import Environment

from layertrace import LAYERS, Tracer, TracingEnvironment
from probe import REFERENCE_S, probes
from workloads import WORKLOADS, Cell, Workload

#: Probe timings per round, after its load phases.
PROBES = 8
#: Suffixes of the per-layer metrics that are host times.
HOST_TIMES = ("self_us_per_req", "self_ms_setup", "scrape_ms", "alloc_us")

#: Set-up samples per round: extra builds without a load phase, until
#: there are at least this many and they took at least this long together.
SETUPS_PER_ROUND = 2
SETUP_SECONDS_PER_ROUND = 0.1

END_TO_END = (
    ("host_us_per_req", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_req", "count"),
    ("sim_p50_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_rps", "sim_req/s"),
)

PER_LAYER = (
    ("sim.events_per_req", "count"),
    ("sim.self_us_per_req", "us"),
    ("sim.heap_peak", "count"),
    ("rpc.events_per_req", "count"),
    ("rpc.self_us_per_req", "us"),
    ("rpc.messages_per_req", "count"),
    ("rpc.notifications_per_req", "count"),
    ("rpc.copies_per_req", "count"),
    ("rpc.retries", "count"),
    ("remote_lib.events_per_req", "count"),
    ("remote_lib.self_us_per_req", "us"),
    ("remote_lib.calls_per_req", "count"),
    ("remote_lib.stream_ops_per_req", "count"),
    ("remote_lib.call_wait_ms", "ms"),
    ("device_manager.events_per_req", "count"),
    ("device_manager.self_us_per_req", "us"),
    ("device_manager.tasks_per_req", "count"),
    ("device_manager.ops_per_task", "count"),
    ("device_manager.task_latency_ms", "ms"),
    ("device_manager.rejected", "count"),
    ("device_manager.drain_s", "s"),
    ("ocl.events_per_req", "count"),
    ("ocl.self_us_per_req", "us"),
    ("ocl.calls_per_req", "count"),
    ("fpga.events_per_req", "count"),
    ("fpga.self_us_per_req", "us"),
    ("fpga.dma_per_req", "count"),
    ("fpga.kernel_runs_per_req", "count"),
    ("fpga.busy_frac", "ratio"),
    ("fpga.reconfigurations", "count"),
    ("metrics.events_per_req", "count"),
    ("metrics.self_us_per_req", "us"),
    ("metrics.label_lookups_per_req", "count"),
    ("metrics.scrape_ms", "ms"),
    ("registry.events_per_req", "count"),
    ("registry.self_us_per_req", "us"),
    ("registry.allocations", "count"),
    ("registry.alloc_us", "us"),
    ("registry.migrations", "count"),
    ("registry.wal_records", "count"),
    ("serverless.events_per_req", "count"),
    ("serverless.self_us_per_req", "us"),
    ("serverless.queue_wait_ms", "ms"),
    ("serverless.retries", "count"),
    ("live.events_per_req", "count"),
    ("live.self_us_per_req", "us"),
    ("live.moves", "count"),
    ("live.fallbacks", "count"),
    ("cluster.events_per_req", "count"),
    ("cluster.self_ms_setup", "ms"),
    ("loadgen.events_per_req", "count"),
    ("loadgen.self_us_per_req", "us"),
    ("tracing.overhead_frac", "ratio"),
)


#: Exit code of a round whose output check failed.
CHECK_FAILED_EXIT = 3


class CheckFailed(Exception):
    """A simulated output was wrong; the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class CellRun:
    """One cell's set-up and load phase, with its outputs checked."""

    cell: Cell
    setup_s: float
    load_s: float
    #: DES events scheduled in the load phase.
    events: int
    digest: str
    #: Layer counters at the start and the end of the load phase.
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Requests finished in the load phase (warm-up included)."""
        return self.cell.gateway.completed + self.cell.gateway.failed


def _family_total(metrics, name: str, suffix: str = "") -> float:
    return sum(row[3] for row in metrics.get(name).collect_rows()
               if row[0].endswith(suffix))


def layer_counters(cell: Cell, tracer=None) -> Dict[str, float]:
    """Counters the layers expose, plus the tracer's, at one instant."""
    managers = list(cell.managers.values())
    counters = {
        "now": cell.env.now,
        "dm.tasks": sum(_family_total(m.metrics, "tasks_total")
                        for m in managers),
        "dm.ops": sum(_family_total(m.metrics, "ops_total")
                      for m in managers),
        "dm.latency_sum": sum(
            _family_total(m.metrics, "task_latency_seconds", "_sum")
            for m in managers),
        "dm.latency_count": sum(
            _family_total(m.metrics, "task_latency_seconds", "_count")
            for m in managers),
        "fpga.kernel_runs": sum(m.board.kernel_runs for m in managers),
        "fpga.busy": sum(m.board.busy_seconds for m in managers),
    }
    if tracer is not None:
        counters["wall"] = perf_counter()
        counters.update(
            (f"self.{layer}", s) for layer, s in tracer.self_time.items())
        counters.update(
            (f"events.{layer}", n) for layer, n in tracer.events.items())
        counters.update((f"calls.{key}", n) for key, n in tracer.calls.items())
        counters["copies"] = tracer.copies
        counters["queue_wait"], counters["queue_waits"] = tracer.queue_wait
    return counters


def digest_of(cell: Cell, events: int) -> str:
    """Hash of the cell's simulated outcome, bit for bit."""
    hasher = hashlib.sha256()
    for stats in cell.stats:
        hasher.update(repr((
            stats.function, stats.sent, stats.completed, stats.errors,
            stats.latencies, stats.error_latencies,
        )).encode())
    registry = cell.registry
    hasher.update(repr((
        events, cell.env.now, cell.gateway.sent, cell.gateway.completed,
        cell.gateway.failed, registry.allocations, registry.migrations,
        registry.live_migrations,
    )).encode())
    return hasher.hexdigest()


def run_cell(workload: Workload, seed: int, index: int, env: Environment,
             tracer=None) -> CellRun:
    start = perf_counter()
    cell = workload.build(env, seed, index)
    setup_s = perf_counter() - start
    before = layer_counters(cell, tracer)
    if tracer is not None:
        tracer.heap_peak = len(env._queue)
    eid = env._eid
    start = perf_counter()
    cell.load()
    load_s = perf_counter() - start
    events = env._eid - eid
    after = layer_counters(cell, tracer)
    if tracer is not None:
        after["heap_peak"] = tracer.heap_peak
    cell.quiesce()

    gateway = cell.gateway
    check(gateway.sent == gateway.completed + gateway.failed,
          f"{workload.name}: {gateway.sent} requests sent, but "
          f"{gateway.completed} completed and {gateway.failed} failed")
    inflight = sum(c.inflight for c in cell.router.connections)
    check(inflight == 0,
          f"{workload.name}: {inflight} requests in flight after quiescence")
    if cell.migrator is not None:
        check(cell.migrator.fallbacks == 0,
              f"{workload.name}: {cell.migrator.fallbacks} live moves fell "
              "back to restart")
        check(cell.registry.migrations == cell.registry.live_migrations > 0,
              f"{workload.name}: {cell.registry.live_migrations} of "
              f"{cell.registry.migrations} moves were live")
    return CellRun(cell, setup_s, load_s, events, digest_of(cell, events),
                   before, after)


def measure_round(workload_name: str, seed: int, traced: bool) -> dict:
    """Run one round in this process; return its picklable summary."""
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    runs: List[CellRun] = []
    setup_cluster_s = 0.0
    for index in range(workload.cells):
        cluster_before = tracer.self_time["cluster"] if tracer else 0.0
        env = TracingEnvironment(tracer) if tracer else Environment()
        run = run_cell(workload, seed, index, env, tracer)
        if tracer is not None:
            setup_cluster_s += (run.before.get("self.cluster", 0.0)
                                - cluster_before)
        runs.append(run)

    # Before the extra builds below, which allocate a second system.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_s = probes(PROBES)
    setups = [run.setup_s for run in runs]
    while not traced and (len(setups) < SETUPS_PER_ROUND
                          or sum(setups) < SETUP_SECONDS_PER_ROUND):
        start = perf_counter()
        workload.build(Environment(), seed, len(setups) % workload.cells)
        setups.append(perf_counter() - start)

    cells = [run.cell for run in runs]
    summary = {
        "digest": hashlib.sha256(
            "".join(run.digest for run in runs).encode()).hexdigest(),
        "probes": probe_s,
        "setups": setups,
        "load_s": sum(run.load_s for run in runs),
        "cell_us_per_req": [run.load_s / run.requests * 1e6 for run in runs],
        "requests": sum(run.requests for run in runs),
        "sent": sum(cell.gateway.sent for cell in cells),
        "failed": sum(cell.gateway.failed for cell in cells),
        "events": sum(run.events for run in runs),
        "latencies": [lat for cell in cells for stats in cell.stats
                      for lat in stats.latencies],
        "window_completed": sum(stats.completed for cell in cells
                                for stats in cell.stats),
        "window_s": sum(max(plan.duration for plan in cell.loads)
                        for cell in cells),
        "rss_mb": rss_mb,
        "alloc_wall": sum(cell.registry.alloc_wall for cell in cells),
        "allocations": sum(cell.registry.allocations for cell in cells),
        "scrape_wall": sum(cell.scraper.scrape_wall for cell in cells),
        "scrapes": sum(cell.scraper.scrape_count for cell in cells),
    }
    if tracer is not None:
        summary["layers"] = per_layer(runs, tracer, setup_cluster_s)
    return summary


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(runs: List[CellRun], tracer: Tracer,
              setup_cluster_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced round.  ``*_per_req`` metrics are
    load-phase deltas divided by the load phase's requests; the others are
    totals over the whole round."""
    requests = sum(run.requests for run in runs)

    def delta(key: str) -> float:
        return sum(run.after.get(key, 0) - run.before.get(key, 0)
                   for run in runs)

    def calls(*prefixes: str) -> float:
        keys = {key for run in runs for key in run.after
                if key.startswith(tuple("calls." + p for p in prefixes))}
        return sum(delta(key) for key in keys)

    cells = [run.cell for run in runs]
    managers = [m for cell in cells for m in cell.managers.values()]
    migrators = [cell.migrator for cell in cells if cell.migrator]

    events = {layer: delta(f"events.{layer}") for layer in LAYERS}
    stray = {key for run in runs for key in run.after
             if key.startswith("events.")
             and key[len("events."):] not in LAYERS}
    check(not stray, f"events attributed outside the layers: {stray}")
    total_events = sum(run.events for run in runs)
    check(sum(events.values()) == total_events,
          f"per-layer events sum to {sum(events.values())}, "
          f"not {total_events}")

    self_s = {layer: delta(f"self.{layer}") for layer in LAYERS}
    self_s["sim"] = delta("wall") - sum(
        seconds for layer, seconds in self_s.items() if layer != "sim")
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.events_per_req"] = events[layer] / requests
        metrics[f"{layer}.self_us_per_req"] = self_s[layer] / requests * 1e6

    board_seconds = sum((run.after["now"] - run.before["now"])
                        * len(run.cell.managers) for run in runs)
    metrics.update({
        "sim.heap_peak": max(run.after["heap_peak"] for run in runs),
        "rpc.messages_per_req":
            calls("rpc:Transport.deliver_to_server") / requests,
        "rpc.notifications_per_req":
            calls("rpc:Transport.deliver_to_client") / requests,
        "rpc.copies_per_req": delta("copies") / requests,
        "rpc.retries": sum(c.retries for cell in cells
                           for c in cell.router.connections),
        "remote_lib.calls_per_req":
            calls("remote_lib:RemoteDriver.") / requests,
        "remote_lib.stream_ops_per_req":
            calls("remote_lib:Connection.stream_") / requests,
        "remote_lib.call_wait_ms":
            _ratio(tracer.call_wait[0], tracer.call_wait[1]) * 1e3,
        "device_manager.tasks_per_req": delta("dm.tasks") / requests,
        "device_manager.ops_per_task":
            _ratio(delta("dm.ops"), delta("dm.tasks")),
        "device_manager.task_latency_ms":
            _ratio(delta("dm.latency_sum"), delta("dm.latency_count")) * 1e3,
        "device_manager.rejected": sum(m.rejected_messages for m in managers),
        "device_manager.drain_s": sum(m.drain_seconds for m in managers),
        "ocl.calls_per_req": calls(
            "ocl:CommandQueue.", "ocl:Context.", "ocl:Program.",
            "ocl:Kernel.", "ocl:Platform.") / requests,
        "fpga.dma_per_req": calls("fpga:FPGABoard.dma_") / requests,
        "fpga.kernel_runs_per_req": delta("fpga.kernel_runs") / requests,
        "fpga.busy_frac": _ratio(delta("fpga.busy"), board_seconds),
        "fpga.reconfigurations":
            sum(m.board.reconfigurations for m in managers),
        "metrics.label_lookups_per_req":
            calls("metrics:MetricFamily.labels") / requests,
        "registry.allocations": sum(c.registry.allocations for c in cells),
        "registry.migrations": sum(c.registry.migrations for c in cells),
        "registry.wal_records": sum(c.registry.store.appends for c in cells
                                    if c.registry.store is not None),
        "serverless.queue_wait_ms":
            _ratio(delta("queue_wait"), delta("queue_waits")) * 1e3,
        "serverless.retries": sum(
            f.retries + f.deploy_retries for cell in cells
            for f in cell.gateway.functions.values()),
        "live.moves": sum(m.migrated for m in migrators),
        "live.fallbacks": sum(m.fallbacks for m in migrators),
        "cluster.self_ms_setup": setup_cluster_s / len(runs) * 1e3,
    })
    return metrics


def speed_factor(rounds: List[dict]) -> float:
    """The factor that puts a run's host times at the reference speed:
    ``probe.REFERENCE_S`` ÷ the median probe time over all its rounds."""
    return REFERENCE_S / statistics.median(
        seconds for r in rounds for seconds in r["probes"])


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    """End-to-end metrics: host times are medians over every cell (or build)
    of every round, at the reference speed; simulated metrics are those of
    one round, since every round simulates the same bytes."""
    first = rounds[0]
    latencies = first["latencies"]
    speed = speed_factor(rounds)
    beyond = len(latencies) - math.ceil(0.99 * len(latencies))
    check(beyond >= 10,
          f"only {beyond} samples beyond the p99; lengthen the round")
    return {
        "host_us_per_req": speed * statistics.median(
            us for r in rounds for us in r["cell_us_per_req"]),
        "setup_s": speed * statistics.median(
            s for r in rounds for s in r["setups"]),

        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "events_per_req": first["events"] / first["requests"],
        "sim_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_p99_ms": percentile(latencies, 99) * 1e3,
        "sim_rps": first["window_completed"] / first["window_s"],
    }


def layer_metrics(plain: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics; host times at the reference speed, the scrape and
    allocation times from the untraced round."""
    metrics = dict(traced["layers"])
    metrics["metrics.scrape_ms"] = _ratio(plain["scrape_wall"],
                                          plain["scrapes"]) * 1e3
    metrics["registry.alloc_us"] = _ratio(plain["alloc_wall"],
                                          plain["allocations"]) * 1e6
    speed = speed_factor([plain, traced])
    for name in metrics:
        if name.endswith(HOST_TIMES):
            metrics[name] *= speed
    metrics["tracing.overhead_frac"] = traced["load_s"] / plain["load_s"] - 1
    return metrics


if __name__ == "__main__":
    try:
        summary = measure_round(sys.argv[1], int(sys.argv[2]),
                                sys.argv[3] == "1")
    except CheckFailed as failure:
        print(failure, file=sys.stderr)
        sys.exit(CHECK_FAILED_EXIT)
    json.dump(summary, sys.stdout)
