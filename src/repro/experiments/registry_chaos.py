"""Registry-chaos experiment: kill the control plane mid-storm.

Replays a Table-II-style tenant load (4 full-HD Sobel functions) on a
4-board fleet while storm deployments (MM, FIR — accelerators loaded
nowhere) force reconfigurations, then fail-stops the Accelerators
Registry in the middle of the storm.  Two recovery arms run the same
seeded scenario:

* **durable** — an operator-scripted restart replays snapshot + WAL from
  the :class:`~repro.core.registry.RegistryStore` after a fixed outage;
* **replicated** — a :class:`~repro.core.registry.WarmStandby` tailing
  the WAL over the simulated network takes over when the leader lease
  expires (no operator in the loop).

Both arms finish with an epoch-fenced reconciliation pass against the
Device Managers' reported ground truth, then a **zombie probe** replays a
pre-crash-epoch command at a DM to show the fence holds.  The run
reports the control-plane blackout, replayed WAL records, reconciliation
diffs, how many blackout-time deploys/heals were absorbed by retry
budgets, and asserts the two safety invariants of the acceptance
criteria: zero double allocations and zero lost instances.  Everything
is DES-clock driven, so each arm is bit-reproducible from its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from ..faults import FaultScript, GatewayPolicy, HealthPolicy, RegistryCrash
from ..loadgen import LoadStats, percentile
from ..serverless import SobelApp
from ..sim import Environment
from ..system import SystemConfig, build_system
from .config import LoadTiming
from .migration import STORM_WAVES, StormSpec, StormWave, storm_plan
from .report import render_table


@dataclass
class RegistryChaosSpec(StormSpec):
    """One reproducible registry-crash scenario (run once per arm)."""

    tenant_rate: float = 12.0
    #: Registry crash time, seconds after the window opens (mid-storm:
    #: after MM's admission, before FIR's).
    crash_offset: float = 2.0
    #: Durable arm: scripted operator restart delay after the crash.
    restart_after: float = 2.0
    #: Zombie probe time after the crash (past either arm's recovery).
    probe_offset: float = 3.0
    #: Storm load starts here (past the last reprogram of either arm).
    storm_load_offset: float = 7.0
    #: MM lands before the crash, FIR arrives *during* the blackout — its
    #: admission must be refused with the structured retryable error and
    #: succeed on a later retry, not crash the run.
    waves: Tuple[StormWave, ...] = STORM_WAVES[:2]
    health: HealthPolicy = field(default_factory=lambda: HealthPolicy(
        heartbeat_interval=0.25, lease_timeout=1.0))
    #: Deploy/heal/invoke retry budget sized to outlast the blackout.
    gateway: GatewayPolicy = field(default_factory=lambda: GatewayPolicy(
        retry_budget=12, retry_backoff=0.2, backoff_factor=1.5,
        breaker_threshold=10 ** 9, shed_when_unavailable=False,
        request_timeout=2.0))
    windows: ClassVar[Tuple[LoadTiming, LoadTiming]] = (
        LoadTiming(warmup=1.0, duration=10.0),
        LoadTiming(warmup=2.0, duration=20.0),
    )


@dataclass
class RegistryChaosModeResult:
    """Outcome of the scenario under one durability arm."""

    mode: str
    sent: int = 0
    completed: int = 0
    errors: int = 0
    availability: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    crash_at: float = 0.0
    #: Crash until WAL replay finished (control plane serving again).
    blackout_seconds: float = 0.0
    epoch: int = 0
    replayed_ops: int = 0
    replay_applied: int = 0
    denied_admissions: int = 0
    missed_watch_events: int = 0
    deploy_retries: int = 0
    heal_retries: int = 0
    heals: int = 0
    wal_appends: int = 0
    snapshots_taken: int = 0
    #: Reconciliation diffs (ground truth vs replayed state).
    reconciliation: Dict[str, int] = field(default_factory=dict)
    #: Stale-epoch commands rejected at Device Managers (zombie probe
    #: included) — must be >= 1 to prove the fence is observable.
    fenced_commands: int = 0
    zombie_fenced: int = 0
    zombie_accepted: int = 0
    #: Warm-standby stats (replicated arm only).
    takeovers: int = 0
    records_tailed: int = 0
    standby_bytes: int = 0
    lag_records_at_takeover: int = 0
    #: Safety invariants (acceptance: both exactly zero).
    double_allocations: int = 0
    lost_instances: int = 0
    hung_events: int = 0
    stats: List[LoadStats] = field(default_factory=list)

    def to_golden(self) -> Dict[str, object]:
        """Deterministic digest for golden-file regression testing."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "availability": round(self.availability, 6),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "crash_at": round(self.crash_at, 4),
            "blackout_seconds": round(self.blackout_seconds, 4),
            "epoch": self.epoch,
            "replayed_ops": self.replayed_ops,
            "replay_applied": self.replay_applied,
            "denied_admissions": self.denied_admissions,
            "missed_watch_events": self.missed_watch_events,
            "deploy_retries": self.deploy_retries,
            "heal_retries": self.heal_retries,
            "heals": self.heals,
            "wal_appends": self.wal_appends,
            "snapshots_taken": self.snapshots_taken,
            "reconciliation": dict(sorted(self.reconciliation.items())),
            "fenced_commands": self.fenced_commands,
            "zombie_fenced": self.zombie_fenced,
            "zombie_accepted": self.zombie_accepted,
            "takeovers": self.takeovers,
            "records_tailed": self.records_tailed,
            "standby_bytes": self.standby_bytes,
            "lag_records_at_takeover": self.lag_records_at_takeover,
            "double_allocations": self.double_allocations,
            "lost_instances": self.lost_instances,
            "hung_events": self.hung_events,
        }


@dataclass
class RegistryChaosResult:
    """Both recovery arms of the registry-crash comparison."""

    spec: RegistryChaosSpec
    durable: RegistryChaosModeResult
    replicated: RegistryChaosModeResult

    def to_golden(self) -> Dict[str, object]:
        return {
            "durable": self.durable.to_golden(),
            "replicated": self.replicated.to_golden(),
        }


def check_invariants(registry, cluster) -> Tuple[int, int]:
    """Count double allocations and lost instances (must both be 0).

    * **double allocation** — a registry instance whose device differs
      from its pod's ``MANAGER_ENV``, the manager its client actually
      uses: the Registry counts it on one device while it runs on
      another, so Algorithm 1 can give its place away twice (the
      zombie-registry hazard epoch fencing prevents);
    * **lost instance** — a pod the control plane allocated
      (``MANAGER_ENV`` patched in) with no Functions Service record, or a
      registry instance whose pod no longer exists (state dropped across
      the crash).
    """
    from ..core.registry.registry import MANAGER_ENV

    double = lost = 0
    pods = cluster.pods
    for pod_name, pod in pods.items():
        if not pod.spec.env.get(MANAGER_ENV):
            continue
        if registry.functions.instance(pod_name) is None:
            lost += 1
    for function in registry.functions.all():
        for instance_name, instance in function.instances.items():
            pod = pods.get(instance_name)
            if pod is None:
                lost += 1
            elif instance.device != pod.spec.env.get(MANAGER_ENV, ""):
                double += 1
    return double, lost


def run_registry_chaos_mode(mode: str,
                            spec: Optional[RegistryChaosSpec] = None
                            ) -> RegistryChaosModeResult:
    """Run the registry-crash scenario under one durability arm."""
    assert mode in ("durable", "replicated")
    spec = spec or RegistryChaosSpec()
    timing = spec.load_timing()
    env = Environment()
    system = build_system(env, SystemConfig(
        boards=spec.boards, durability=mode, gateway=spec.gateway,
        health=spec.health, self_heal=True,
    ))
    registry, managers, standby = (
        system.registry, system.testbed.managers, system.standby)

    tenants = [f"sobel-{index}" for index in range(spec.tenants)]
    system.deploy([system.function_spec(name, SobelApp, "sobel")
                   for name in tenants], order="sequential")

    crash_at = env.now + timing.warmup + spec.crash_offset
    injector = RegistryCrash(registry)
    script = FaultScript(env)
    if mode == "durable":
        script.crash_registry(injector, at=crash_at,
                              restart_after=spec.restart_after)
    else:
        # The warm standby detects the expired leader lease on its own.
        script.crash_registry(injector, at=crash_at)
    probe_target = managers[sorted(managers)[0]]
    script.at(crash_at + spec.probe_offset, "zombie probe",
              lambda: injector.zombie_probe(probe_target))
    script.arm()

    # Let in-flight retries, heals and evacuations settle, then stop the
    # perpetual processes so nothing is left unaccounted.
    stats_list = system.drive(
        *storm_plan(system, spec, tenants, timing),
        deadline=timing.warmup + timing.duration + 120.0,
        settle=3.0,
        what=f"registry chaos ({mode})",
    )
    system.stop()

    result = RegistryChaosModeResult(mode=mode, crash_at=crash_at)
    for stats in stats_list:
        result.stats.append(stats)
        result.sent += stats.sent
        result.completed += stats.completed
        result.errors += stats.errors
    resolved = result.completed + result.errors
    result.availability = result.completed / resolved if resolved else 0.0
    latencies = [l for s in stats_list for l in s.latencies]
    result.p50_ms = 1e3 * percentile(latencies, 50) if latencies else 0.0
    result.p99_ms = 1e3 * percentile(latencies, 99) if latencies else 0.0

    result.blackout_seconds = registry.blackout_seconds
    result.epoch = registry.epoch
    result.replayed_ops = registry.replayed_ops
    result.replay_applied = registry.replay_applied
    result.denied_admissions = registry.denied_admissions
    result.missed_watch_events = registry.missed_watch_events
    result.deploy_retries = sum(
        f.deploy_retries for f in system.gateway.functions.values()
    )
    result.heal_retries = system.controller.heal_retries
    result.heals = system.controller.heals
    result.wal_appends = registry.store.appends
    result.snapshots_taken = registry.store.snapshots_taken
    result.reconciliation = dict(registry.reconciliation)
    result.fenced_commands = sum(
        m.fenced_commands for m in managers.values()
    )
    result.zombie_fenced = injector.zombie_fenced
    result.zombie_accepted = injector.zombie_accepted
    if standby is not None:
        result.takeovers = standby.takeovers
        result.records_tailed = standby.records_tailed
        result.standby_bytes = standby.bytes_tailed
        result.lag_records_at_takeover = standby.lag_records_at_takeover
    result.double_allocations, result.lost_instances = check_invariants(
        registry, system.testbed.cluster
    )
    result.hung_events = system.hung_events
    return result


def run_registry_chaos(spec: Optional[RegistryChaosSpec] = None
                       ) -> RegistryChaosResult:
    """Run the crash scenario under both recovery arms."""
    spec = spec or RegistryChaosSpec()
    return RegistryChaosResult(
        spec=spec,
        durable=run_registry_chaos_mode("durable", spec),
        replicated=run_registry_chaos_mode("replicated", spec),
    )


def render_registry_chaos(result: RegistryChaosResult) -> str:
    """Human-readable side-by-side of the two recovery arms."""
    rows = []
    durable, replicated = result.durable, result.replicated
    for label, attr in (
        ("requests sent", "sent"),
        ("completed", "completed"),
        ("errors", "errors"),
        ("availability", "availability"),
        ("p99 latency (ms)", "p99_ms"),
        ("blackout (s)", "blackout_seconds"),
        ("replayed WAL records", "replayed_ops"),
        ("denied admissions", "denied_admissions"),
        ("deploy retries absorbed", "deploy_retries"),
        ("stale-epoch fenced", "fenced_commands"),
        ("standby takeovers", "takeovers"),
        ("double allocations", "double_allocations"),
        ("lost instances", "lost_instances"),
    ):
        fmt = (lambda v: round(v, 4) if isinstance(v, float) else v)
        rows.append([label, fmt(getattr(durable, attr)),
                     fmt(getattr(replicated, attr))])
    return render_table(
        ["Metric", "durable (scripted restart)", "replicated (standby)"],
        rows,
        title="Registry chaos: control-plane crash mid-reconfiguration-storm",
    )
