"""Chaos experiment: the Table-II load under injected failures.

Replays the paper's Section IV-B load test (5 Sobel functions, Table I
rates) while the fault plane eats 1% of control-message transmissions and
a scripted failure crashes a Device Manager mid-run.  The full recovery
stack is armed — reliable connections that resend what the fabric eats
and break on the crash, the per-op deadline guard, the heartbeat/lease
protocol, Algorithm-1 migration of orphaned instances, gateway retry
budget and circuit breaker — and the run reports what the paper's
operators would care about: availability, tail latency, and how long the
system took to detect the failure and re-place the affected functions.

Everything is driven from the DES clock and seeded fault verdicts keyed by
message identity, so a whole chaos run is bit-reproducible from its spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults import (
    FaultScript,
    GatewayPolicy,
    HealthPolicy,
    NetworkFaultPlane,
    RetryPolicy,
)
from ..loadgen import LoadStats, percentile
from ..serverless.apps import SobelApp
from ..sim import Environment
from ..system import Load, SystemConfig, build_system
from .config import LoadTiming, load_timing, rates_for


@dataclass
class ChaosSpec:
    """One reproducible chaos scenario."""

    use_case: str = "sobel"
    configuration: str = "medium"
    #: Seed of the fault plane's verdicts.
    seed: int = 7
    #: Fraction of control-message transmissions the fabric silently eats
    #: (each is sent again; see :mod:`repro.rpc.transport`).
    message_loss: float = 0.01
    delay_rate: float = 0.005
    delay: float = 1e-3
    #: Device Manager to crash mid-run (and when, as fractions of the
    #: measurement window).
    crash_device: str = "dm-B"
    crash_fraction: float = 0.35
    restart_fraction: float = 0.25
    timing: Optional[LoadTiming] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    health: HealthPolicy = field(default_factory=lambda: HealthPolicy(
        heartbeat_interval=0.25, lease_timeout=1.0))
    gateway: GatewayPolicy = field(default_factory=GatewayPolicy)


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    spec: ChaosSpec
    sent: int = 0
    completed: int = 0
    errors: int = 0
    #: completed / (completed + errors): the fraction of in-window
    #: requests that resolved successfully.  Requests still in flight when
    #: the window closes are censored, not failures.
    availability: float = 0.0
    mean_latency: float = 0.0
    p99_latency: float = 0.0
    crash_at: float = 0.0
    #: Heartbeat-lease detection latency (detection time - crash time).
    detection_seconds: float = float("nan")
    #: Crash until every function is back at full ready capacity.
    recovery_seconds: float = float("nan")
    migrations: int = 0
    heals: int = 0
    device_failures: int = 0
    recoveries_detected: int = 0
    rpc_retries: int = 0
    gateway_retries: int = 0
    shed: int = 0
    breaker_trips: int = 0
    rejected_messages: int = 0
    #: Client-side CL event FSMs still unresolved after the drain — the
    #: "hung client events" count the acceptance demands be zero.
    hung_events: int = 0
    plane_counters: Dict[str, int] = field(default_factory=dict)
    script_log: List[Tuple[float, str]] = field(default_factory=list)
    stats: List[LoadStats] = field(default_factory=list)
    #: Per-board downtime ledger: seconds each board spent reconfiguring,
    #: draining for migrations, and dark after a crash.  Reported for the
    #: operators' post-mortem; deliberately not part of :meth:`to_golden`
    #: (the golden digest predates the ledger and stays bit-identical).
    downtime: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_golden(self) -> Dict[str, object]:
        """Deterministic digest for golden-file regression testing."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "availability": round(self.availability, 6),
            "mean_latency_ms": round(1e3 * self.mean_latency, 4),
            "p99_latency_ms": round(1e3 * self.p99_latency, 4),
            "detection_seconds": (
                None if math.isnan(self.detection_seconds)
                else round(self.detection_seconds, 4)
            ),
            "recovery_seconds": (
                None if math.isnan(self.recovery_seconds)
                else round(self.recovery_seconds, 4)
            ),
            "migrations": self.migrations,
            "heals": self.heals,
            "device_failures": self.device_failures,
            "recoveries_detected": self.recoveries_detected,
            "rpc_retries": self.rpc_retries,
            "gateway_retries": self.gateway_retries,
            "shed": self.shed,
            "breaker_trips": self.breaker_trips,
            "rejected_messages": self.rejected_messages,
            "hung_events": self.hung_events,
            "plane": dict(self.plane_counters),
            "script": [
                [round(when, 6), what] for when, what in self.script_log
            ],
        }


def run_chaos(spec: Optional[ChaosSpec] = None) -> ChaosResult:
    """Run the Table-II load under failures; returns the chaos report."""
    spec = spec or ChaosSpec()
    timing = spec.timing or load_timing()
    rates = rates_for(spec.use_case, spec.configuration, "blastfunction")
    env = Environment()
    system = build_system(env, SystemConfig(
        gateway=spec.gateway, retry=spec.retry, health=spec.health,
        self_heal=True,
    ))
    testbed, registry, controller = (
        system.testbed, system.registry, system.controller)
    gateway, health = system.gateway, registry.health

    names = [
        f"{spec.use_case}-{index}" for index in range(1, len(rates) + 1)
    ]
    system.deploy([system.function_spec(name, SobelApp, "sobel")
                   for name in names])

    # Deployment ran fault-free (the paper's steady state); the chaos
    # window opens now.
    plane = NetworkFaultPlane(
        seed=spec.seed,
        drop_rate=spec.message_loss,
        delay_rate=spec.delay_rate,
        delay=spec.delay,
    )
    testbed.network.faults = plane

    crash_at = env.now + timing.warmup + spec.crash_fraction * timing.duration
    restart_after = spec.restart_fraction * timing.duration
    victim = testbed.managers[spec.crash_device]
    script = FaultScript(env)
    script.crash_manager(victim, at=crash_at, restart_after=restart_after)
    script.arm()

    result = ChaosResult(spec=spec, crash_at=crash_at)
    hard_end = env.now + timing.warmup + timing.duration

    def recovery_monitor():
        """Process: crash → victims re-placed and full ready capacity."""
        yield env.timeout(crash_at - env.now)
        if spec.crash_device not in registry.devices:
            return
        victims = {inst.name for inst in
                   registry.functions.instances_on_device(spec.crash_device)}
        while env.now < hard_end:
            evacuated = all(
                name not in controller.instances for name in victims
            )
            ready = all(
                len(controller.live_instances(name))
                >= gateway.function(name).spec.replicas
                and all(inst.ready.triggered and inst.ready.ok
                        for inst in controller.live_instances(name))
                for name in names
            )
            if evacuated and ready:
                result.recovery_seconds = env.now - crash_at
                return
            yield env.timeout(0.1)

    # Let in-flight retries, deadlines and migrations resolve, then stop
    # the perpetual health processes so nothing is left unaccounted.
    stats_list = system.drive(
        [Load(name, rate, warmup=timing.warmup, duration=timing.duration)
         for name, rate in zip(names, rates)],
        extra=[recovery_monitor()],
        deadline=timing.warmup + timing.duration + 120.0,
        settle=spec.retry.op_deadline + 3.0,
        what=f"chaos load ({spec.use_case}/{spec.configuration})",
    )
    system.stop()

    for stats in stats_list:
        result.stats.append(stats)
        result.sent += stats.sent
        result.completed += stats.completed
        result.errors += stats.errors
    latencies = [l for s in stats_list for l in s.latencies]
    resolved = result.completed + result.errors
    result.availability = (
        result.completed / resolved if resolved else 0.0
    )
    result.mean_latency = (
        sum(latencies) / len(latencies) if latencies else 0.0
    )
    result.p99_latency = percentile(latencies, 99) if latencies else 0.0
    if health.failures_detected:
        result.detection_seconds = (
            health.failures_detected[0][0] - crash_at
        )
    result.migrations = registry.migrations
    result.heals = controller.heals
    result.device_failures = registry.device_failures
    result.recoveries_detected = len(health.recoveries_detected)
    result.rpc_retries = sum(c.retries for c in system.router.connections)
    for function in gateway.functions.values():
        result.gateway_retries += function.retries
        result.shed += function.shed
        if function.breaker is not None:
            result.breaker_trips += function.breaker.trips
    result.rejected_messages = sum(
        m.rejected_messages for m in testbed.managers.values()
    )
    result.hung_events = system.hung_events
    result.plane_counters = dict(plane.counters)
    result.script_log = list(script.executed)

    # Downtime ledger: crash blackout from the fault script's own log,
    # drain/reconfiguration seconds from the managers' gauges.
    crash_times = {
        what.split(" ", 1)[1]: when
        for when, what in script.executed if what.startswith("crash ")
    }
    for manager in testbed.managers.values():
        dark = 0.0
        started = crash_times.get(manager.name)
        if started is not None:
            back = next(
                (when for when, what in script.executed
                 if what == f"restart {manager.name}" and when > started),
                env.now,
            )
            dark = back - started
        result.downtime[manager.name] = {
            "drain_s": round(manager.drain_seconds, 6),
            "reconfiguration_s": round(manager.reconfiguration_seconds, 6),
            "crash_s": round(dark, 6),
        }
    return result
