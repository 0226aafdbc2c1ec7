"""Migration experiment: restart vs live moves under a reconfiguration storm.

A Table-II-style mixed load runs on a four-board fleet — one full-HD Sobel
tenant per board — while a *reconfiguration storm* deploys three new
functions whose accelerators (MM, FIR, histogram) are loaded nowhere.
Every storm admission makes Algorithm 1 reprogram a board and displace the
Sobel tenants living there, so the run measures exactly what the paper's
redistribution step costs the displaced tenants:

* ``migration="restart"`` — the paper's create-before-delete move: the
  replacement pod warms up from scratch, the old pod is deleted (killing
  whatever request it held), and the storm function races the victims for
  the board (its first build is denied while they are still on it);
* ``migration="live"`` — the checkpoint/restore plane of
  :mod:`repro.live`: the source board drains to an operation boundary,
  each victim's session (buffers, FIFO, open operations) moves to a
  compatible board, and the client connection rebinds without the pod
  ever restarting.

Both arms run the identical deterministic workload; the report compares
dropped requests, the latency tail the *clients* observe (folding request
timeouts in), per-board drain/reconfiguration downtime and the migration
counters.  ``python -m repro.experiments migration`` writes
``BENCH_migration.json`` at the repo root; tier-1 pins the quick-mode
digest in ``tests/experiments/data/golden_migration.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from ..faults import GatewayPolicy
from ..loadgen import LoadStats, percentile
from ..serverless import FIRApp, HistogramApp, MMApp, SobelApp
from ..sim import Environment
from ..system import Load, System, SystemConfig, build_system
from .config import LoadTiming, quick_mode
from .report import render_table


@dataclass(frozen=True)
class StormWave:
    """One storm deployment: a function whose accelerator is loaded
    nowhere, forcing a reconfiguration + redistribution."""

    name: str
    accelerator: str
    app_factory: type
    #: Deploy time, seconds after the measurement window opens.
    offset: float


#: The three storm waves (MM, FIR, histogram — none pre-loaded on the
#: Sobel fleet, each admission displaces tenants).
STORM_WAVES: Tuple[StormWave, ...] = (
    StormWave("mm-storm", "mm", MMApp, 1.0),
    StormWave("fir-storm", "fir", FIRApp, 2.5),
    StormWave("hist-storm", "histogram", HistogramApp, 4.0),
)


@dataclass
class StormSpec:
    """A reconfiguration storm: Sobel tenants under load on a small fleet
    while storm waves deploy accelerators loaded nowhere."""

    boards: int = 4
    #: Full-HD Sobel tenants (one lands on each board at deploy time).
    tenants: int = 4
    tenant_rate: float = 20.0
    storm_rate: float = 5.0
    #: Storm load starts this long after the window opens — past the last
    #: wave's ~2.5 s reprogram, so both arms measure steady storm traffic.
    storm_load_offset: float = 7.5
    waves: Tuple[StormWave, ...] = STORM_WAVES
    timing: Optional[LoadTiming] = None
    #: Default measurement windows: (quick mode, full length).
    windows: ClassVar[Tuple[LoadTiming, LoadTiming]] = (
        LoadTiming(warmup=1.0, duration=12.0),
        LoadTiming(warmup=2.0, duration=24.0),
    )

    def load_timing(self) -> LoadTiming:
        if self.timing is not None:
            return self.timing
        quick, full = self.windows
        return quick if quick_mode() else full


@dataclass
class MigrationSpec(StormSpec):
    """One reproducible storm scenario (run once per migration mode)."""

    #: In-window deadline for one request (timeouts are the drops).
    request_timeout: float = 2.0
    #: Registry durability of both arms.
    durability: str = "volatile"


@dataclass
class MigrationModeResult:
    """Outcome of the storm under one migration mode."""

    mode: str
    sent: int = 0
    completed: int = 0
    #: In-window requests that failed (timed out or died with an
    #: instance) — the "dropped requests" of the acceptance criterion.
    dropped: int = 0
    tenant_dropped: int = 0
    storm_dropped: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    #: Tail over *every* in-window request, folding the time failed
    #: requests burned before erroring — what clients actually observe.
    observed_p99_ms: float = 0.0
    migrations: int = 0
    live_migrations: int = 0
    live_fallbacks: int = 0
    #: Storm functions that never came up (their first build lost the
    #: race against the victims still on the board).
    storm_deploys_failed: int = 0
    drain_seconds: float = 0.0
    reconfiguration_seconds: float = 0.0
    rejected_messages: int = 0
    rebinds: int = 0
    hung_events: int = 0
    stats: List[LoadStats] = field(default_factory=list)

    def to_golden(self) -> Dict[str, object]:
        """Deterministic digest for golden-file regression testing."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "dropped": self.dropped,
            "tenant_dropped": self.tenant_dropped,
            "storm_dropped": self.storm_dropped,
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "observed_p99_ms": round(self.observed_p99_ms, 4),
            "migrations": self.migrations,
            "live_migrations": self.live_migrations,
            "live_fallbacks": self.live_fallbacks,
            "storm_deploys_failed": self.storm_deploys_failed,
            "drain_seconds": round(self.drain_seconds, 4),
            "reconfiguration_seconds": round(self.reconfiguration_seconds, 4),
            "rejected_messages": self.rejected_messages,
            "rebinds": self.rebinds,
            "hung_events": self.hung_events,
        }


@dataclass
class MigrationResult:
    """Both arms of the comparison."""

    spec: MigrationSpec
    restart: MigrationModeResult
    live: MigrationModeResult

    def to_golden(self) -> Dict[str, object]:
        return {
            "restart": self.restart.to_golden(),
            "live": self.live.to_golden(),
        }


def run_migration_mode(mode: str,
                       spec: Optional[MigrationSpec] = None
                       ) -> MigrationModeResult:
    """Run the storm scenario under one migration mode."""
    spec = spec or MigrationSpec()
    timing = spec.load_timing()
    env = Environment()
    system = build_system(env, SystemConfig(
        boards=spec.boards, migration=mode, durability=spec.durability,
        gateway=GatewayPolicy(
            retry_budget=0,
            breaker_threshold=10 ** 9,  # never trips: drops stay visible
            shed_when_unavailable=False,
            request_timeout=spec.request_timeout,
        ),
    ))
    registry, managers = system.registry, system.testbed.managers

    # Sequential: each admission sees the previous one's placement, so
    # the tenants spread one per board.
    tenants = [f"sobel-{index}" for index in range(spec.tenants)]
    system.deploy([system.function_spec(name, SobelApp, "sobel")
                   for name in tenants], order="sequential")
    every = system.drive(
        *storm_plan(system, spec, tenants, timing),
        deadline=timing.warmup + timing.duration + 120.0,
        settle=3.0,  # in-flight tasks, deferred builds and migrations
        what=f"migration storm ({mode})",
    )
    tenant_stats, storm_stats = every[:len(tenants)], every[len(tenants):]

    result = MigrationModeResult(mode=mode)
    for stats in tenant_stats + storm_stats:
        result.stats.append(stats)
        result.sent += stats.sent
        result.completed += stats.completed
        result.dropped += stats.errors
    result.tenant_dropped = sum(s.errors for s in tenant_stats)
    result.storm_dropped = sum(s.errors for s in storm_stats)
    latencies = [l for s in result.stats for l in s.latencies]
    observed = latencies + [
        l for s in result.stats for l in s.error_latencies
    ]
    result.p50_ms = 1e3 * percentile(latencies, 50) if latencies else 0.0
    result.p99_ms = 1e3 * percentile(latencies, 99) if latencies else 0.0
    result.observed_p99_ms = (
        1e3 * percentile(observed, 99) if observed else 0.0
    )
    result.migrations = registry.migrations
    result.live_migrations = registry.live_migrations
    if system.live_migrator is not None:
        result.live_fallbacks = system.live_migrator.fallbacks
    for wave in spec.waves:
        instances = system.controller.live_instances(wave.name)
        if instances and all(
            inst.startup_error is not None for inst in instances
        ):
            result.storm_deploys_failed += 1
    result.drain_seconds = sum(m.drain_seconds for m in managers.values())
    result.reconfiguration_seconds = sum(
        m.reconfiguration_seconds for m in managers.values()
    )
    result.rejected_messages = sum(
        m.rejected_messages for m in managers.values()
    )
    result.rebinds = sum(c.rebinds for c in system.router.connections)
    result.hung_events = system.hung_events
    return result


def storm_plan(system: System, spec: StormSpec, tenants: List[str],
               timing: LoadTiming) -> Tuple[List[Load], list]:
    """The loads and the wave deployer of a reconfiguration storm.

    Every tenant is loaded over the whole window; each wave deploys
    ``wave.offset`` seconds into the window, and every wave's load runs
    from ``spec.storm_load_offset`` to the window's end.
    """
    env = system.env
    measure_start = env.now + timing.warmup
    hard_end = measure_start + timing.duration

    def deployer():
        for wave in spec.waves:
            yield env.timeout(measure_start + wave.offset - env.now)
            yield from system.gateway.deploy(system.function_spec(
                wave.name, wave.app_factory, wave.accelerator))

    loads = [Load(name, spec.tenant_rate, warmup=timing.warmup,
                  duration=timing.duration) for name in tenants]
    loads += [Load(wave.name, spec.storm_rate,
                   start=measure_start + spec.storm_load_offset,
                   until=hard_end) for wave in spec.waves]
    return loads, [deployer()]


def run_migration(spec: Optional[MigrationSpec] = None) -> MigrationResult:
    """Run the storm under both modes; returns the comparison."""
    spec = spec or MigrationSpec()
    return MigrationResult(
        spec=spec,
        restart=run_migration_mode("restart", spec),
        live=run_migration_mode("live", spec),
    )


def render_migration(result: MigrationResult) -> str:
    rows = [
        [mode.mode, mode.sent, mode.completed, mode.dropped,
         round(mode.p50_ms, 2), round(mode.p99_ms, 2),
         round(mode.observed_p99_ms, 2), mode.migrations,
         mode.live_migrations, mode.storm_deploys_failed,
         round(mode.drain_seconds, 3),
         round(mode.reconfiguration_seconds, 2)]
        for mode in (result.restart, result.live)
    ]
    return render_table(
        ["Mode", "Sent", "Done", "Dropped", "p50 ms", "p99 ms",
         "p99+err ms", "Migr", "Live", "Storm fail", "Drain s", "Reconf s"],
        rows,
        title="Reconfiguration storm: restart vs live migration",
    )


def bench_record(result: MigrationResult) -> dict:
    """The comparison as ``BENCH_migration.json`` records it."""
    import platform

    timing = result.spec.load_timing()
    return {
        "python": platform.python_version(),
        "timing": {"warmup_s": timing.warmup, "duration_s": timing.duration},
        "modes": result.to_golden(),
    }
