"""The Accelerators Registry: the master component of BlastFunction.

"It registers functions and devices, it aggregates performance metrics, it
allocates devices to functions and it validates reconfiguration operations"
(Section III-C).  Concretely:

* an **admission hook** on the cluster intercepts pod creation, runs
  Algorithm 1, and patches the pod (Device Manager address env var,
  shared-memory volume, forced node placement);
* a **watch** on the cluster keeps the Functions Service in sync with
  deletions;
* a **reconfiguration validator** installed into every Device Manager
  approves/rejects ``BuildProgram`` requests that would reprogram a board;
* when an allocation requires reconfiguration of a busy device, connected
  instances of other accelerators are **migrated** — the cluster deletes
  their pods and (create-before-delete) replacements land elsewhere.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import time as _time
from typing import Callable, Dict, List, Optional, Sequence

from ...cluster.apiserver import Cluster
from ...cluster.objects import (
    DeviceQuery,
    Pod,
    PodSpec,
    WatchEvent,
    WatchEventType,
)
from ...metrics import MetricsRegistry, Scraper
from ...ocl.errors import CL_REGISTRY_UNAVAILABLE
from ...sim import Environment, Interrupt
from ..device_manager.manager import DeviceManager, DeviceManagerError
from .allocation import (
    AllocationDecision,
    AllocationError,
    DeviceView,
    MetricFilter,
    allocate,
)
from .gatherer import MetricsGatherer
from .index import DeviceIndex
from .services import DeviceRecord, DevicesService, FunctionsService, \
    InstanceRecord
from .store import RegistryStore, WalRecord

#: Pod environment variable carrying the allocated Device Manager address.
MANAGER_ENV = "BF_MANAGER"

#: Migration callback: (instance_name, function_name) -> process generator.
Migrator = Callable[[str, str], object]

#: Override the allocator implementation ("indexed" | "oracle" | "both")
#: without touching call sites; "both" runs both and asserts equal
#: decisions on every allocation (slow, for debugging).
ALLOCATOR_ENV = "REPRO_ALLOCATOR"

#: Override the reconfiguration-migration mode ("restart" | "live") without
#: touching call sites.  "restart" is the paper's create-before-delete path;
#: "live" checkpoints in-flight state and moves it (docs/live_migration.md).
MIGRATION_ENV = "REPRO_MIGRATION"

#: Override the Registry durability mode without touching call sites:
#: "volatile" (the seed behavior — state dies with the process),
#: "durable" (WAL + snapshots in a :class:`RegistryStore`; crash/restart
#: recovers by replay), "replicated" (durable + a warm standby tailing the
#: WAL is expected to drive takeover).  See docs/failure_model.md.
REGISTRY_ENV = "REPRO_REGISTRY"


class RegistryUnavailableError(DeviceManagerError):
    """The Accelerators Registry is down (control-plane blackout).

    Structured and **retryable**: allocation requests that hit a crashed
    Registry fail with ``CL_REGISTRY_UNAVAILABLE`` instead of crashing the
    caller; gateway/controller retry budgets absorb the blackout.
    """

    retryable = True

    def __init__(self, message: str = "accelerators registry unavailable"):
        super().__init__(message, CL_REGISTRY_UNAVAILABLE)


def _query_triple(query: DeviceQuery) -> List[str]:
    return [query.vendor, query.platform, query.accelerator]


class AcceleratorsRegistry:
    """Central controller wiring cluster, devices, functions and metrics."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        managers: Sequence[DeviceManager],
        scraper: Optional[Scraper] = None,
        metrics_order: Sequence[str] = ("connected_functions", "utilization"),
        metrics_filters: Sequence[MetricFilter] = (),
        metrics_window: float = 10.0,
        use_shm: bool = True,
        allocator: str = "indexed",
        migration: str = "restart",
        durability: str = "volatile",
        store: Optional[RegistryStore] = None,
        snapshot_interval: Optional[float] = 5.0,
    ):
        self.env = env
        self.cluster = cluster
        self.devices = DevicesService()
        self.functions = FunctionsService()
        self.metrics_order = tuple(metrics_order)
        self.metrics_filters = tuple(metrics_filters)
        self.gatherer = (
            MetricsGatherer(scraper, metrics_window) if scraper else None
        )
        #: Mount shared-memory volumes into allocated pods (the paper's
        #: default; disable for the transport ablation).
        self.use_shm = use_shm
        #: Set by the serverless layer to perform create-before-delete moves.
        self.migrator: Optional[Migrator] = None
        #: Set by the migration plane (:class:`repro.live.LiveMigrator`) to
        #: perform checkpoint/restore moves; only consulted in "live" mode.
        self.live_migrator = None
        self.allocations = 0
        self.migrations = 0
        self.live_migrations = 0
        self.device_failures = 0
        #: Host wall clock accumulated inside Algorithm 1, seconds
        #: (allocation latency = alloc_wall / allocations).
        self.alloc_wall = 0.0
        #: Heartbeat/lease monitor, armed by :meth:`enable_health`.
        self.health = None

        allocator = os.environ.get(ALLOCATOR_ENV, "") or allocator
        if allocator not in ("indexed", "oracle", "both"):
            raise ValueError(f"unknown allocator {allocator!r}")
        self.allocator = allocator

        migration = os.environ.get(MIGRATION_ENV, "") or migration
        if migration not in ("restart", "live"):
            raise ValueError(f"unknown migration mode {migration!r}")
        self.migration_mode = migration

        durability = os.environ.get(REGISTRY_ENV, "") or durability
        if durability not in ("volatile", "durable", "replicated"):
            raise ValueError(f"unknown registry durability {durability!r}")
        self.durability = durability
        #: Durable medium (WAL + snapshots); ``None`` in volatile mode —
        #: the seed behavior, no logging code runs at all.
        self.store: Optional[RegistryStore] = (
            store if store is not None
            else (RegistryStore() if durability != "volatile" else None)
        )
        #: Fencing token: bumped (and durably recorded) on every (re)start.
        #: Device Managers reject commands carrying an older epoch.
        self.epoch = (self.store.epoch + 1) if self.store is not None else 1
        #: False between :meth:`crash` and the end of :meth:`restart`
        #: replay — the control-plane blackout window.
        self.alive = True
        self.crashes = 0
        self.recoveries = 0
        self.crashed_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        #: Cumulative control-plane blackout, simulated seconds.
        self.blackout_seconds = 0.0
        #: WAL records read back (and semantic records applied) at restarts.
        self.replayed_ops = 0
        self.replay_applied = 0
        #: Allocation requests refused (CL_REGISTRY_UNAVAILABLE) while down.
        self.denied_admissions = 0
        #: Cluster watch events that arrived while the Registry was dead
        #: (the reconciliation pass heals what they would have recorded).
        self.missed_watch_events = 0
        #: Divergence healed by the post-replay reconciliation pass.
        self.reconciliation: Dict[str, int] = {}
        self._replaying = False
        #: name → manager resolver surviving crashes (Device Manager
        #: addresses live in cluster DNS, not in Registry process memory).
        self._known_managers: Dict[str, DeviceManager] = {}
        #: enable_health arguments, kept to re-arm the monitor on restart.
        self._health_config = None
        self.snapshot_interval = snapshot_interval
        self._snapshot_proc = None

        #: Registry-side metrics, scraped alongside the Device Managers'.
        self.metrics = MetricsRegistry(namespace="registry")
        self._m_migrations = self.metrics.counter(
            "migrations_total",
            "Instances moved off a device (restart or live migration)",
        )
        self._m_live_migrations = self.metrics.counter(
            "live_migrations_total",
            "Instances moved with checkpoint/restore (zero downtime)",
        )
        self._m_epoch = self.metrics.gauge(
            "epoch", "Current Registry fencing epoch (bumps per restart)",
        )
        self._m_blackout = self.metrics.gauge(
            "blackout_seconds_total",
            "Cumulative control-plane blackout (crash until replay done)",
        )
        self._m_replayed = self.metrics.gauge(
            "replayed_ops_total", "WAL records replayed across restarts",
        )
        self._m_epoch.set(self.epoch)
        if scraper is not None:
            scraper.add_target("registry", self.metrics)
        #: Incremental Algorithm 1 index; None in pure-oracle mode.
        self.index: Optional[DeviceIndex] = (
            DeviceIndex(self.metrics_order, self.metrics_filters)
            if allocator != "oracle" else None
        )
        #: Utilization falloff tracking: (valid_until, device) heap plus
        #: the authoritative valid_until per device (heap entries that
        #: disagree are stale and skipped).
        self._falloff: list = []
        self._valid_until: Dict[str, float] = {}
        if self.index is not None and scraper is not None:
            scraper.add_listener(self._on_scrape)

        for manager in managers:
            self.register_manager(manager)
        if self.store is not None:
            self.store.record_epoch(self.epoch)
            if self.snapshot_interval is not None:
                self._snapshot_proc = env.process(self._snapshot_loop())

        cluster.add_admission_hook(self._admit)
        cluster.watch(self._on_watch)

    def register_manager(self, manager: DeviceManager) -> None:
        """Add a Device Manager to the Devices Service (autoscaled nodes)."""
        record = self.devices.register(manager)
        manager.reconfiguration_validator = self._validate_reconfiguration
        self._known_managers[manager.name] = manager
        self._log("register_manager", manager=manager.name)
        if self.gatherer is not None:
            self.gatherer.scraper.add_target(
                manager.name, manager.metrics, node=manager.node.name
            )
        if self.health is not None:
            self.health.watch_manager(manager)
        self._index_refresh(record)

    def deregister_manager(self, manager_name: str) -> bool:
        """Forget a retired device; refuses while instances are allocated."""
        try:
            record = self.devices.get(manager_name)
        except KeyError:
            return False
        if record.instances:
            return False
        self.devices.remove(manager_name)
        self._known_managers.pop(manager_name, None)
        self._log("deregister_manager", manager=manager_name)
        if self.gatherer is not None:
            self.gatherer.scraper.remove_target(manager_name)
        if self.health is not None:
            self.health.unwatch_manager(manager_name)
        if self.index is not None:
            self.index.remove(manager_name)
            self._valid_until.pop(manager_name, None)
        return True

    # -- public API ----------------------------------------------------------
    def register_function(self, name: str, query: DeviceQuery) -> None:
        """Pre-register a function's device requirements."""
        known = self.functions.known(name)
        record = self.functions.register(name, query)
        if not known:
            self._log("register_function", function=name,
                      query=_query_triple(record.device_query))

    def _view_of(self, record: DeviceRecord,
                 metrics: Optional[Dict[str, float]] = None) -> DeviceView:
        """Build one device's Algorithm 1 snapshot."""
        if metrics is None:
            metrics = (
                self.gatherer.device_metrics(record.name)
                if self.gatherer
                else {}
            )
        # The Registry's own Functions Service is authoritative (and
        # fresher than the last scrape) for connected-function counts.
        metrics["connected_functions"] = float(len(record.instances))
        workloads = tuple(
            (inst.name, self.functions.get(inst.function)
             .device_query.accelerator)
            for inst in self.functions.instances_on_device(record.name)
        )
        return DeviceView(
            name=record.name,
            node=record.node,
            vendor=record.vendor,
            platform=record.platform,
            bitstream=record.effective_bitstream,
            available_bitstreams=record.manager.library.names(),
            metrics=metrics,
            workloads=workloads,
        )

    def device_views(self) -> List[DeviceView]:
        """Snapshot the Devices Service + Metrics Gatherer for Algorithm 1.

        Dead devices are excluded: Algorithm 1 only ever allocates (or
        migrates) onto boards whose lease is current.
        """
        return [
            self._view_of(record)
            for record in self.devices.all()
            if record.alive
        ]

    # -- index maintenance -------------------------------------------------
    def _index_refresh(self, record: Optional[DeviceRecord]) -> None:
        """Rebuild one device's indexed view after any relevant change."""
        if self.index is None or record is None:
            return
        if not record.alive:
            self.index.remove(record.name)
            self._valid_until.pop(record.name, None)
            return
        if self.gatherer is not None:
            utilization, valid_until = (
                self.gatherer.utilization_detail(record.name)
            )
            metrics = {
                "utilization": utilization,
                "connected_functions": 0.0,  # overwritten by _view_of
                "queue_depth": self.gatherer.queue_depth(record.name),
            }
        else:
            metrics = {}
            valid_until = math.inf
        self.index.refresh(self._view_of(record, metrics))
        if valid_until != self._valid_until.get(record.name):
            self._valid_until[record.name] = valid_until
            if not math.isinf(valid_until):
                heapq.heappush(self._falloff, (valid_until, record.name))

    def _refresh_stale(self, now: float) -> None:
        """Re-derive utilization for devices whose cached trailing-window
        rate expired (first in-window sample fell out of the window)."""
        falloff = self._falloff
        while falloff and falloff[0][0] < now:
            valid_until, name = heapq.heappop(falloff)
            if self._valid_until.get(name) != valid_until:
                continue  # superseded by a newer refresh
            try:
                record = self.devices.get(name)
            except KeyError:
                continue
            self._index_refresh(record)

    def _on_scrape(self, now: float) -> None:
        """Scrape listener: fold fresh samples into the allocator index."""
        for record in self.devices.all():
            if record.alive:
                self._index_refresh(record)

    # -- admission (allocation) -------------------------------------------------
    def _allocate(self, query: DeviceQuery,
                  node_hint: str) -> AllocationDecision:
        """Run Algorithm 1 through the configured implementation."""
        start = _time.perf_counter()
        if self.index is not None:
            self._refresh_stale(self.env.now)
            decision = self.index.allocate(query, node_hint)
            if self.allocator == "both":
                oracle = allocate(query, node_hint, self.device_views(),
                                  self.metrics_order, self.metrics_filters)
                assert (
                    decision.device.name == oracle.device.name
                    and decision.node == oracle.node
                    and decision.needs_reconfiguration
                    == oracle.needs_reconfiguration
                    and decision.redistribution == oracle.redistribution
                ), f"allocator divergence: {decision} != {oracle}"
        else:
            decision = allocate(query, node_hint, self.device_views(),
                                self.metrics_order, self.metrics_filters)
        self.alloc_wall += _time.perf_counter() - start
        self.allocations += 1
        return decision

    def _admit(self, spec: PodSpec) -> None:
        """Mutating admission: run Algorithm 1 and patch the pod spec."""
        if not self.alive:
            # Control-plane blackout: refuse with a structured retryable
            # error instead of crashing the caller's env.run.
            self.denied_admissions += 1
            raise RegistryUnavailableError(
                f"registry down, cannot admit {spec.name!r}"
            )
        known = self.functions.known(spec.function)
        function = self.functions.register(spec.function, spec.device_query)
        if not known:
            self._log("register_function", function=spec.function,
                      query=_query_triple(function.device_query))
        query = function.device_query
        decision = self._allocate(query, spec.node_name)

        record = self.devices.get(decision.device.name)
        spec.env[MANAGER_ENV] = record.name
        spec.shm_volume = self.use_shm
        if not spec.node_name:
            spec.node_name = decision.node

        record.instances.add(spec.name)
        self.functions.add_instance(spec.function, InstanceRecord(
            name=spec.name, function=spec.function,
            node=spec.node_name, device=record.name,
        ))
        self._log(
            "admit", instance=spec.name, function=spec.function,
            node=spec.node_name, device=record.name,
            pending=(query.accelerator if decision.needs_reconfiguration
                     else None),
        )

        if decision.needs_reconfiguration:
            record.pending_bitstream = query.accelerator
            if decision.redistribution:
                self._migrate(record, decision.redistribution)
        self._index_refresh(record)

    def _migrate(self, source: DeviceRecord, moves: List) -> None:
        """Kick off migrations of displaced instances.

        In "restart" mode (the paper's path) each instance is re-created
        through the serverless migrator (create-before-delete).  In "live"
        mode with a migration plane attached, the whole batch is handed to
        the :class:`~repro.live.LiveMigrator`, which drains the source
        device once and checkpoints/restores every victim; the migrator
        calls back into :meth:`complete_live_migration` per instance (and
        falls back to the restart path for unmovable ones).
        """
        live = [
            (instance_name, target) for instance_name, target in moves
            if self.functions.instance(instance_name) is not None
        ]
        if not live:
            return
        if self.migration_mode == "live" and self.live_migrator is not None:
            self.env.process(self.live_migrator.migrate(source.name, live))
            return
        for instance_name, _target in live:
            instance = self.functions.instance(instance_name)
            if instance is None:
                continue
            self.migrations += 1
            self._m_migrations.inc()
            # _evacuate guards the migrator: a move whose replacement fails
            # to start (e.g. its target got reprogrammed meanwhile) degrades
            # to a plain delete instead of crashing the Registry.
            self.env.process(
                self._evacuate(instance_name, instance.function)
            )

    def complete_live_migration(self, instance_name: str,
                                source_name: str, target_name: str) -> None:
        """Bookkeeping after the migration plane moved an instance.

        The pod never restarted — only its accelerator side moved — so the
        cluster object survives; its Device Manager env var is patched to
        the new address and the Registry's indexes are re-pointed.
        """
        source = self.devices.get(source_name)
        target = self.devices.get(target_name)
        source.instances.discard(instance_name)
        target.instances.add(instance_name)
        self.functions.move_instance(instance_name, target_name)
        self._log("move_instance", instance=instance_name,
                  device=target_name)
        if instance_name in self.cluster.pods:
            self.cluster.patch_pod(instance_name,
                                   **{MANAGER_ENV: target_name})
        self.migrations += 1
        self.live_migrations += 1
        self._m_migrations.inc()
        self._m_live_migrations.inc()
        self._index_refresh(source)
        self._index_refresh(target)

    # -- failure detection and recovery ---------------------------------------
    def enable_health(self, network=None, policy=None, wheel=None):
        """Arm the heartbeat/lease protocol between managers and Registry.

        Returns the :class:`~repro.core.registry.health.HealthMonitor`.
        Without this call no health machinery runs at all (the default).
        ``wheel`` shares a :class:`~repro.sim.TimerWheel` with other
        periodic work (only used by a coalescing policy).
        """
        from .health import HealthMonitor

        if self.health is not None:
            return self.health
        if network is None:
            records = self.devices.all()
            if not records:
                raise ValueError("no managers registered: pass network=")
            network = records[0].manager.network
        self._health_config = (network, policy, wheel)
        self.health = HealthMonitor(self.env, self, network, policy,
                                    wheel=wheel)
        return self.health

    def on_device_failure(self, device_name: str) -> List[str]:
        """Mark a device dead, deallocate it, migrate its instances.

        This is the registry half of the paper's allocation loop applied
        to failures: the dead board leaves the Devices Service's usable
        set, and every instance allocated to it is re-run through
        Algorithm 1 via the create-before-delete migrator.  Returns the
        affected instance names.
        """
        try:
            record = self.devices.get(device_name)
        except KeyError:
            return []
        if not record.alive:
            return []
        record.alive = False
        record.pending_bitstream = None
        self.device_failures += 1
        self._log("device_dead", manager=device_name)
        self._index_refresh(record)  # drops the dead device from the index
        affected = sorted(record.instances)
        for instance_name in affected:
            instance = self.functions.instance(instance_name)
            if instance is None:
                continue
            self.migrations += 1
            self._m_migrations.inc()
            self.env.process(
                self._evacuate(instance_name, instance.function)
            )
        return affected

    def _evacuate(self, instance_name: str, function: str):
        """Process: move one instance off a dead device.

        Algorithm 1 (inside the admission hook the migrator triggers)
        picks the target among live devices; when no compatible device is
        left the pod is shed with a plain delete — graceful degradation,
        the endpoint queue upstream holds requests until capacity returns.
        """
        try:
            if self.migrator is not None:
                yield from self.migrator(instance_name, function)
            else:
                self.cluster.delete_pod(instance_name)
        except Exception:  # noqa: BLE001 - no live target for the move
            self.cluster.delete_pod(instance_name)

    def on_device_recovery(self, device_name: str) -> None:
        """A dead device heartbeats again: return it to the usable set."""
        try:
            record = self.devices.get(device_name)
        except KeyError:
            return
        if not record.alive:
            self._log("device_alive", manager=device_name)
        record.alive = True
        self._index_refresh(record)

    # -- watch ------------------------------------------------------------------
    def _on_watch(self, event: WatchEvent) -> None:
        if not self.alive:
            # A dead Registry sees nothing; the post-restart reconciliation
            # pass heals whatever these events would have recorded.
            self.missed_watch_events += 1
            return
        if event.type is WatchEventType.DELETED:
            pod = event.pod
            instance = self.functions.remove_instance(
                pod.spec.function, pod.name
            )
            if instance is not None:
                self._log("remove_instance", function=pod.spec.function,
                          instance=pod.name)
            if instance and instance.device:
                try:
                    record = self.devices.get(instance.device)
                except KeyError:
                    return
                record.instances.discard(pod.name)
                self._index_refresh(record)

    # -- reconfiguration validation ------------------------------------------------
    def _validate_reconfiguration(self, client: str, binary: str) -> bool:
        """Approve a Device Manager ``BuildProgram`` that reprograms.

        The requesting instance must be allocated to that device, the
        binary must match its declared accelerator, and no *other* instance
        on the device may need a different accelerator (those should have
        been migrated at allocation time).
        """
        if not self.alive:
            # Surfaced to the client as a structured CL_REGISTRY_UNAVAILABLE
            # build failure (retryable) rather than a silent denial.
            raise RegistryUnavailableError(
                f"registry down, cannot validate build for {client!r}"
            )
        instance = self.functions.instance(client)
        if instance is None or not instance.device:
            return False
        record = self.devices.get(instance.device)
        query = self.functions.get(instance.function).device_query
        if query.accelerator and query.accelerator != binary:
            return False
        for other in self.functions.instances_on_device(record.name):
            if other.name == client:
                continue
            other_acc = self.functions.get(other.function).device_query.accelerator
            if other_acc and other_acc != binary:
                return False
        return True

    # -- durability: WAL, snapshots, crash/restart, reconciliation -----------
    #: Simulated cost of applying one replayed WAL record.
    REPLAY_SECONDS_PER_OP = 20e-6
    #: Simulated snapshot read bandwidth (bytes/second) at restart.
    SNAPSHOT_LOAD_BYTES_PER_SECOND = 1e9

    def _log(self, op: str, **args: object) -> None:
        """Append one operation to the WAL (no-op in volatile mode or
        while the log itself is being replayed)."""
        if self.store is not None and not self._replaying:
            self.store.append(op, **args)

    def snapshot_state(self) -> dict:
        """Deterministic full-state snapshot (plain JSON-clean dict)."""
        devices = {
            record.name: {
                "alive": record.alive,
                "pending_bitstream": record.pending_bitstream,
                "instances": sorted(record.instances),
            }
            for record in self.devices.all()
        }
        functions = {
            fn.name: {
                "seq": fn.seq,
                "query": _query_triple(fn.device_query),
                "instances": {
                    inst.name: {
                        "node": inst.node, "device": inst.device,
                        "function_seq": inst.function_seq, "seq": inst.seq,
                    }
                    for inst in fn.instances.values()
                },
            }
            for fn in self.functions.all()
        }
        return {
            "epoch": self.epoch,
            "function_seq": self.functions._function_seq,
            "instance_seq": self.functions._instance_seq,
            "devices": devices,
            "functions": functions,
        }

    def _snapshot_loop(self):
        """Process: periodically fold the WAL into a snapshot."""
        try:
            while True:
                yield self.env.timeout(self.snapshot_interval)
                if self.alive and self.store is not None:
                    self.store.take_snapshot(self.snapshot_state())
        except Interrupt:
            return

    def _install_state(self, state: dict,
                       resolver: Dict[str, DeviceManager]) -> None:
        """Rebuild both services from a snapshot (replay prologue)."""
        for name in sorted(state["devices"]):
            cell = state["devices"][name]
            manager = resolver.get(name)
            if manager is None:
                continue  # address lost; reconciliation may re-adopt it
            record = self.devices.register(manager)
            manager.reconfiguration_validator = (
                self._validate_reconfiguration
            )
            self._known_managers[name] = manager
            record.alive = cell["alive"]
            record.pending_bitstream = cell["pending_bitstream"]
            record.instances = set(cell["instances"])
        for fn_name, cell in sorted(state["functions"].items(),
                                    key=lambda kv: kv[1]["seq"]):
            record = self.functions.register(
                fn_name, DeviceQuery(*cell["query"])
            )
            record.seq = cell["seq"]
            for inst_name, inst in sorted(cell["instances"].items(),
                                          key=lambda kv: kv[1]["seq"]):
                self.functions.restore_instance(InstanceRecord(
                    name=inst_name, function=fn_name, node=inst["node"],
                    device=inst["device"],
                    function_seq=inst["function_seq"], seq=inst["seq"],
                ))
        self.functions._function_seq = max(
            self.functions._function_seq, state["function_seq"]
        )
        self.functions._instance_seq = max(
            self.functions._instance_seq, state["instance_seq"]
        )

    def _apply_record(self, record: WalRecord,
                      resolver: Dict[str, DeviceManager]) -> bool:
        """Apply one replayed WAL record; idempotent (re-applying a record
        the state already reflects is a no-op).  Returns True if applied."""
        op, args = record.op, record.args
        if op == "epoch":
            return False
        if op == "register_manager":
            name = args["manager"]
            if name in self.devices:
                return False
            manager = resolver.get(name)
            if manager is None:
                return False
            self.devices.register(manager)
            manager.reconfiguration_validator = (
                self._validate_reconfiguration
            )
            self._known_managers[name] = manager
            return True
        if op == "deregister_manager":
            name = args["manager"]
            if name not in self.devices:
                return False
            self.devices.remove(name)
            return True
        if op == "register_function":
            name = args["function"]
            if self.functions.known(name):
                return False
            self.functions.register(name, DeviceQuery(*args["query"]))
            return True
        if op == "admit":
            name = args["instance"]
            instance = self.functions.instance(name)
            applied = instance is None
            if applied:
                function = args["function"]
                if not self.functions.known(function):
                    return False  # its register_function record was lost
                instance = InstanceRecord(
                    name=name, function=function,
                    node=args["node"], device=args["device"],
                    function_seq=self.functions.get(function).seq,
                    seq=self._logged_instance_seq(record.seq),
                )
                self.functions.restore_instance(instance)
            if args["device"] in self.devices:
                device = self.devices.get(args["device"])
                if instance.device == device.name:
                    device.instances.add(name)
                # The reconfiguration promise is re-made even when the
                # instance is already known: an older device_dead replayed
                # before this record has just cleared it.
                pending = args.get("pending")
                if pending and device.effective_bitstream != pending:
                    device.pending_bitstream = pending
                    applied = True
            return applied
        if op == "remove_instance":
            instance = self.functions.remove_instance(
                args["function"], args["instance"]
            )
            if instance is None:
                return False
            if instance.device and instance.device in self.devices:
                self.devices.get(instance.device).instances.discard(
                    args["instance"]
                )
            return True
        if op == "move_instance":
            instance = self.functions.instance(args["instance"])
            if instance is None or instance.device == args["device"]:
                return False
            if instance.device and instance.device in self.devices:
                self.devices.get(instance.device).instances.discard(
                    args["instance"]
                )
            self.functions.move_instance(args["instance"], args["device"])
            if args["device"] in self.devices:
                self.devices.get(args["device"]).instances.add(
                    args["instance"]
                )
            return True
        if op in ("device_dead", "device_alive"):
            name = args["manager"]
            if name not in self.devices:
                return False
            device = self.devices.get(name)
            alive = op == "device_alive"
            # Absolute, not a toggle: a dead device holds no promise even
            # if a replayed admit re-made one on the already-dead record.
            changed = device.alive != alive or (
                not alive and device.pending_bitstream is not None)
            device.alive = alive
            if not alive:
                device.pending_bitstream = None
            return changed
        return False  # unknown op: forward-compatible skip

    def _logged_instance_seq(self, wal_seq: int) -> int:
        """Instance sequence number the admit record at ``wal_seq`` minted.

        Every number the Functions Service mints is logged by exactly one
        admit record, in order, so it is the snapshot's counter plus the
        admits logged since, up to and including this one.  Replaying an
        admit therefore restores its original number instead of minting a
        fresh one, which keeps re-admission after a replayed remove
        idempotent without widening the record on the wire.
        """
        snapshot = self.store.snapshot_state
        seq = snapshot["instance_seq"] if snapshot is not None else 0
        for record in self.store.wal:
            if record.seq > wal_seq:
                break
            if record.op == "admit":
                seq += 1
        return seq

    def crash(self) -> None:
        """Fail-stop the Registry process.

        Both services, the allocator index and the health monitor die with
        the process; the admission hook and watch registrations survive on
        the cluster side but refuse/ignore work until :meth:`restart`
        replays the durable store.  In volatile mode the state is simply
        gone (there is nothing to restart from).
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.crashed_at = self.env.now
        if self.health is not None:
            self.health.stop()
            self.health = None
        if self._snapshot_proc is not None and self._snapshot_proc.is_alive:
            self._snapshot_proc.interrupt("registry crashed")
        self._snapshot_proc = None
        self.devices = DevicesService()
        self.functions = FunctionsService()
        if self.index is not None:
            self.index = DeviceIndex(self.metrics_order,
                                     self.metrics_filters)
        self._falloff = []
        self._valid_until = {}

    def restart(self, resolver: Optional[Dict[str, DeviceManager]] = None,
                store: Optional[RegistryStore] = None):
        """Restart a crashed Registry from its durable store.

        Returns the recovery process (joinable): epoch bump → snapshot +
        WAL replay (paying the simulated replay time — the blackout ends
        when replay finishes) → health re-arm → reconciliation against
        DM-reported ground truth.  ``store`` substitutes a different log
        copy (the warm standby's, possibly lagging); ``resolver`` overrides
        the manager-name → :class:`DeviceManager` address book.
        """
        if self.alive:
            return None
        if store is not None:
            self.store = store
        if self.store is None:
            raise RuntimeError(
                "volatile registry has no durable store to restart from"
            )
        return self.env.process(self._recover(resolver))

    def _recover(self, resolver: Optional[Dict[str, DeviceManager]] = None):
        """Process: replay the store, then reconcile with the boards."""
        resolver = dict(resolver) if resolver is not None \
            else dict(self._known_managers)
        snapshot, records = self.store.replay()
        snapshot_bytes = (
            len(json.dumps(snapshot, sort_keys=True,
                           separators=(",", ":")).encode())
            if snapshot is not None else 0
        )
        yield self.env.timeout(
            snapshot_bytes / self.SNAPSHOT_LOAD_BYTES_PER_SECOND
            + self.REPLAY_SECONDS_PER_OP * len(records)
        )
        self.epoch = self.store.epoch + 1
        self._replaying = True
        try:
            if snapshot is not None:
                self._install_state(snapshot, resolver)
            for record in records:
                if self._apply_record(record, resolver):
                    self.replay_applied += 1
        finally:
            self._replaying = False
        self.replayed_ops += len(records)
        self.store.record_epoch(self.epoch)
        # Replay done: the control plane serves again (blackout over).
        self.alive = True
        self.recoveries += 1
        self.recovered_at = self.env.now
        if self.crashed_at is not None:
            self.blackout_seconds += self.env.now - self.crashed_at
        self._m_epoch.set(self.epoch)
        self._m_blackout.set(self.blackout_seconds)
        self._m_replayed.set(self.replayed_ops)
        for record in self.devices.all():
            self._index_refresh(record)
        if self._health_config is not None:
            network, policy, wheel = self._health_config
            self._health_config = None
            self.enable_health(network=network, policy=policy, wheel=wheel)
        yield from self._reconcile(resolver)

    def _reconcile(self, resolver: Dict[str, DeviceManager]):
        """Process: cross-check replayed state against ground truth.

        The boards are authoritative: every known manager is probed with
        an epoch-fenced ``report_state`` command (paying control-message
        network costs), the cluster's pod set is compared with the
        Functions Service, and divergence heals through the existing
        Algorithm-1 / ``_evacuate`` paths.
        """
        from ...rpc.transport import CONTROL_MESSAGE_BYTES
        from .health import REGISTRY_HOST

        diffs = {key: 0 for key in (
            "adopted_devices", "dead_devices", "revived_devices",
            "adopted_instances", "dropped_instances", "moved_instances",
            "evacuated_instances", "orphan_sessions",
        )}
        for name in sorted(resolver):
            manager = resolver[name]
            network = manager.network
            registry_host = network.host(REGISTRY_HOST)
            yield from network.transfer(registry_host, manager.node,
                                        CONTROL_MESSAGE_BYTES)
            try:
                report = manager.registry_command(self.epoch, "report_state")
            except DeviceManagerError:
                report = None
            yield from network.transfer(manager.node, registry_host,
                                        CONTROL_MESSAGE_BYTES)
            if report is None:
                # Dead manager process: nothing answered the probe.
                if name in self.devices and self.devices.get(name).alive:
                    device = self.devices.get(name)
                    device.alive = False
                    device.pending_bitstream = None
                    diffs["dead_devices"] += 1
                    self._log("device_dead", manager=name)
                continue
            if name not in self.devices:
                self.devices.register(manager)
                manager.reconfiguration_validator = (
                    self._validate_reconfiguration
                )
                self._known_managers[name] = manager
                diffs["adopted_devices"] += 1
                self._log("register_manager", manager=name)
            device = self.devices.get(name)
            if report["alive"] and not device.alive:
                device.alive = True
                diffs["revived_devices"] += 1
                self._log("device_alive", manager=name)
            elif not report["alive"] and device.alive:
                device.alive = False
                device.pending_bitstream = None
                diffs["dead_devices"] += 1
                self._log("device_dead", manager=name)
            for client in report["clients"]:
                if self.functions.instance(client) is None:
                    diffs["orphan_sessions"] += 1

        # Cluster pods vs the replayed Functions Service.
        pods = self.cluster.pods
        for device in self.devices.all():
            for instance_name in sorted(device.instances):
                pod = pods.get(instance_name)
                instance = self.functions.instance(instance_name)
                if pod is None:
                    # The pod died while the Registry was dark.
                    device.instances.discard(instance_name)
                    if instance is not None:
                        self.functions.remove_instance(
                            instance.function, instance_name
                        )
                        self._log("remove_instance",
                                  function=instance.function,
                                  instance=instance_name)
                    diffs["dropped_instances"] += 1
                    continue
                actual = pod.spec.env.get(MANAGER_ENV, "")
                if actual and actual != device.name:
                    device.instances.discard(instance_name)
                    if actual in self.devices:
                        self.devices.get(actual).instances.add(
                            instance_name
                        )
                    self.functions.move_instance(instance_name, actual)
                    self._log("move_instance", instance=instance_name,
                              device=actual)
                    diffs["moved_instances"] += 1
        for pod_name in sorted(pods):
            pod = pods[pod_name]
            allocated = pod.spec.env.get(MANAGER_ENV, "")
            if not allocated or self.functions.instance(pod_name) is not None:
                continue
            # An allocation the replayed log never heard of (lost tail).
            if not self.functions.known(pod.spec.function):
                self.functions.register(pod.spec.function,
                                        pod.spec.device_query)
                self._log("register_function", function=pod.spec.function,
                          query=_query_triple(pod.spec.device_query))
            node = pod.spec.node_name or (pod.node.name if pod.node else "")
            self.functions.add_instance(pod.spec.function, InstanceRecord(
                name=pod_name, function=pod.spec.function,
                node=node, device=allocated,
            ))
            pending = None
            if allocated in self.devices:
                device = self.devices.get(allocated)
                device.instances.add(pod_name)
                # Reconstruct the admission's reconfiguration promise: the
                # adopted instance needs its accelerator on the device, so
                # a lost pending_bitstream must be re-established too.
                accelerator = pod.spec.device_query.accelerator
                if accelerator and device.effective_bitstream != accelerator:
                    device.pending_bitstream = accelerator
                    pending = accelerator
            self._log("admit", instance=pod_name,
                      function=pod.spec.function, node=node,
                      device=allocated, pending=pending)
            diffs["adopted_instances"] += 1

        # Instances stranded on dead devices: the usual failure path.
        for device in self.devices.all():
            if device.alive:
                continue
            for instance_name in sorted(device.instances):
                instance = self.functions.instance(instance_name)
                if instance is None:
                    continue
                self.migrations += 1
                self._m_migrations.inc()
                diffs["evacuated_instances"] += 1
                self.env.process(
                    self._evacuate(instance_name, instance.function)
                )
        for device in self.devices.all():
            self._index_refresh(device)
        for key, value in diffs.items():
            self.reconciliation[key] = (
                self.reconciliation.get(key, 0) + value
            )
