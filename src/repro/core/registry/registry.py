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
)
from .gatherer import MetricsGatherer
from .index import DeviceIndex
from .services import DeviceRecord, DevicesService, FunctionsService, \
    InstanceRecord
from .store import RegistryStore

#: Pod environment variable carrying the allocated Device Manager address.
MANAGER_ENV = "BF_MANAGER"

#: Migration callback: (instance_name, function_name) -> process generator.
Migrator = Callable[[str, str], object]


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
    """Central controller wiring cluster, devices, functions and metrics.

    ``migration`` picks how displaced instances move: "restart" is the
    paper's create-before-delete path, "live" checkpoints in-flight state
    and moves it (docs/live_migration.md).  ``durability`` is "volatile"
    (state dies with the process), "durable" (WAL + snapshots in a
    :class:`RegistryStore`; crash/restart recovers by replay) or
    "replicated" (durable, with a warm standby expected to drive
    takeover; docs/failure_model.md).  ``allocator`` accepts only
    "indexed": Algorithm 1 always runs on the incremental index, and the
    brute-force :func:`~.allocation.allocate` is the tests' oracle.
    """

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
        self.device_failures = 0
        #: Host wall clock accumulated inside Algorithm 1, seconds
        #: (allocation latency = alloc_wall / allocations).
        self.alloc_wall = 0.0
        #: Heartbeat/lease monitor, armed by :meth:`enable_health`.
        self.health = None

        if allocator != "indexed":
            raise ValueError(f"unknown allocator {allocator!r}")
        if migration not in ("restart", "live"):
            raise ValueError(f"unknown migration mode {migration!r}")
        self.migration_mode = migration

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
        #: name → manager resolver surviving crashes (Device Manager
        #: addresses live in cluster DNS, not in Registry process memory).
        self._known_managers: Dict[str, DeviceManager] = {}
        #: enable_health arguments, kept to re-arm the monitor on restart.
        self._health_config = None
        self.snapshot_interval = snapshot_interval
        self._snapshot_proc = None
        #: The recovery process while it replays (the blackout); a
        #: restart then joins it instead of starting a second one.
        self._replay = None

        #: Instances moved off a device (restart or live migration), and
        #: those of them moved with checkpoint/restore (zero downtime).
        self.migrations = 0
        self.live_migrations = 0

        #: Registry-side metrics, scraped alongside the Device Managers';
        #: each is read, when collected, from the attribute it is named
        #: after.
        metrics = self.metrics = MetricsRegistry(namespace="registry")
        metrics.counter(
            "migrations_total",
            "Instances moved off a device (restart or live migration)",
            collect=lambda: (((), float(self.migrations)),),
        )
        metrics.counter(
            "live_migrations_total",
            "Instances moved with checkpoint/restore (zero downtime)",
            collect=lambda: (((), float(self.live_migrations)),),
        )
        metrics.gauge(
            "epoch", "Current Registry fencing epoch (bumps per restart)",
            collect=lambda: (((), float(self.epoch)),),
        )
        metrics.gauge(
            "blackout_seconds_total",
            "Cumulative control-plane blackout (crash until replay done)",
            collect=lambda: (((), self.blackout_seconds),),
        )
        metrics.gauge(
            "replayed_ops_total", "WAL records replayed across restarts",
            collect=lambda: (((), float(self.replayed_ops)),),
        )
        if scraper is not None:
            scraper.add_target("registry", self.metrics)
        #: Incremental Algorithm 1 index.
        self.index = DeviceIndex(self.metrics_order, self.metrics_filters)
        #: Utilization falloff tracking: (valid_until, device) heap plus
        #: the authoritative valid_until per device (heap entries that
        #: disagree are stale and skipped).
        self._falloff: list = []
        self._valid_until: Dict[str, float] = {}
        if scraper is not None:
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
        """Add a Device Manager to the Devices Service (autoscaled nodes).

        The one path by which a manager joins: its record, scrape target,
        health watch and index entry.  While the Registry is down only the
        address book learns it; the next reconciliation adopts it here.
        """
        self._known_managers[manager.name] = manager
        if not self._commit("register_manager", manager=manager.name):
            return
        if self.gatherer is not None:
            self.gatherer.scraper.add_target(
                manager.name, manager.metrics, node=manager.node.name
            )
        if self.health is not None:
            self.health.watch_manager(manager)
        self._index_refresh(self.devices.get(manager.name))

    def deregister_manager(self, manager_name: str) -> bool:
        """Forget a retired device; refuses while instances are allocated."""
        if (manager_name not in self.devices
                or self.functions.instances_on_device(manager_name)):
            return False
        self._commit("deregister_manager", manager=manager_name)
        if self.gatherer is not None:
            self.gatherer.scraper.remove_target(manager_name)
        if self.health is not None:
            self.health.unwatch_manager(manager_name)
        self.index.remove(manager_name)
        self._valid_until.pop(manager_name, None)
        return True

    # -- public API ----------------------------------------------------------
    def register_function(self, name: str, query: DeviceQuery) -> None:
        """Pre-register a function's device requirements."""
        self._commit("register_function", function=name,
                     query=_query_triple(query))

    def _view_of(self, record: DeviceRecord,
                 metrics: Optional[Dict[str, float]] = None) -> DeviceView:
        """Build one device's Algorithm 1 snapshot."""
        if metrics is None:
            metrics = (
                self.gatherer.device_metrics(record.name)
                if self.gatherer
                else {}
            )
        workloads = tuple(
            (inst.name, self.functions.get(inst.function)
             .device_query.accelerator)
            for inst in self.functions.instances_on_device(record.name)
        )
        # The Registry's own Functions Service is authoritative (and
        # fresher than the last scrape) for connected-function counts.
        metrics["connected_functions"] = float(len(workloads))
        self._apply("promise_kept", {"manager": record.name},
                    self._known_managers)
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
        if record is None:
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
            self._index_refresh(self.devices.find(name))

    def _on_scrape(self, now: float) -> None:
        """Scrape listener: fold fresh samples into the allocator index."""
        for record in self.devices.all():
            if record.alive:
                self._index_refresh(record)

    # -- admission (allocation) -------------------------------------------------
    def _allocate(self, query: DeviceQuery,
                  node_hint: str) -> AllocationDecision:
        """Run Algorithm 1 on the incremental index."""
        start = _time.perf_counter()
        self._refresh_stale(self.env.now)
        decision = self.index.allocate(query, node_hint)
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
        self.register_function(spec.function, spec.device_query)
        query = self.functions.get(spec.function).device_query
        decision = self._allocate(query, spec.node_name)

        record = self.devices.get(decision.device.name)
        spec.env[MANAGER_ENV] = record.name
        spec.shm_volume = self.use_shm
        if not spec.node_name:
            spec.node_name = decision.node

        self._commit(
            "admit", instance=spec.name, function=spec.function,
            node=spec.node_name, device=record.name,
            pending=(query.accelerator if decision.needs_reconfiguration
                     else None),
        )
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
            self.evacuate(instance_name)

    def complete_live_migration(self, instance_name: str,
                                source_name: str, target_name: str) -> None:
        """Bookkeeping after the migration plane moved an instance.

        The pod never restarted — only its accelerator side moved — so the
        cluster object survives; its Device Manager env var is patched to
        the new address and the Registry's indexes are re-pointed.  A move
        that finishes while the Registry is down patches the pod alone;
        reconciliation re-points the services from it after the restart.
        """
        self._commit("move_instance", instance=instance_name,
                     device=target_name)
        if instance_name in self.cluster.pods:
            self.cluster.patch_pod(instance_name,
                                   **{MANAGER_ENV: target_name})
        self.migrations += 1
        self.live_migrations += 1
        self._index_refresh(self.devices.find(source_name))
        self._index_refresh(self.devices.find(target_name))

    # -- failure detection and recovery ---------------------------------------
    def enable_health(self, network, policy=None, wheel=None):
        """Arm the heartbeat/lease protocol between managers and Registry.

        Returns the :class:`~repro.core.registry.health.HealthMonitor`.
        Without this call no health machinery runs at all (the default).
        ``wheel`` shares a :class:`~repro.sim.TimerWheel` with other
        periodic work (only used by a coalescing policy).
        """
        from .health import HealthMonitor

        if self.health is not None:
            return self.health
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
        if not self._commit("device_dead", manager=device_name):
            return []
        record = self.devices.get(device_name)
        self.device_failures += 1
        self._index_refresh(record)  # drops the dead device from the index
        affected = sorted(
            inst.name for inst in self.functions.instances_on_device(
                record.name))
        for instance_name in affected:
            self.evacuate(instance_name)
        return affected

    def evacuate(self, instance_name: str):
        """Count one move of a known instance and start it.

        Returns the :meth:`_evacuate` process, or None for an instance the
        Functions Service does not know.
        """
        instance = self.functions.instance(instance_name)
        if instance is None:
            return None
        self.migrations += 1
        return self.env.process(
            self._evacuate(instance_name, instance.function)
        )

    def _evacuate(self, instance_name: str, function: str):
        """Process: move one instance off a dead device.

        Algorithm 1 (inside the admission hook the migrator triggers)
        picks the target among live devices; when no compatible device is
        left the pod is shed with a plain delete — graceful degradation,
        the endpoint queue upstream holds requests until capacity returns.
        The guard also covers a move whose replacement fails to start
        (e.g. its target got reprogrammed meanwhile).
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
        self._commit("device_alive", manager=device_name)
        self._index_refresh(self.devices.find(device_name))

    # -- watch ------------------------------------------------------------------
    def _on_watch(self, event: WatchEvent) -> None:
        if not self.alive:
            # A dead Registry sees nothing; the post-restart reconciliation
            # pass heals whatever these events would have recorded.
            self.missed_watch_events += 1
            return
        if event.type is WatchEventType.DELETED:
            pod = event.pod
            instance = self.functions.instance(pod.name)
            if self._commit("remove_instance", function=pod.spec.function,
                            instance=pod.name):
                self._index_refresh(self.devices.find(instance.device))

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

    def _commit(self, op: str, **args: object) -> bool:
        """Apply one live operation; log it if it changed the state.

        Nothing is applied while the Registry is down: its services died
        with the process, and reconciliation heals what it missed.
        Returns True if the state changed.
        """
        if not self.alive or not self._apply(op, args, self._known_managers):
            return False
        if self.store is not None:
            self.store.append(op, **args)
        return True

    def _attach(self, manager: DeviceManager) -> DeviceRecord:
        """Enter a manager into the Devices Service and wire its validator."""
        record = self.devices.register(manager)
        manager.reconfiguration_validator = self._validate_reconfiguration
        self._known_managers[manager.name] = manager
        return record

    def _apply(self, op: str, args: Dict[str, object],
               resolver: Dict[str, DeviceManager],
               wal_seq: Optional[int] = None) -> bool:
        """Apply one operation to the services: the only code that changes
        device membership, liveness, pending bitstreams, function
        registration or instance placement (its one record is the
        instance's device in the Functions Service).

        Live writes (via :meth:`_commit`), WAL replay (with the record's
        ``wal_seq``) and reconciliation all land here.  Each op states a
        result rather than a step, so re-applying one the state already
        reflects is a no-op.  Returns True if the state changed.
        """
        devices, functions = self.devices, self.functions
        if op == "promise_kept":
            # Unlogged: the board runs the promised bitstream, so the
            # promise is dropped when a view reads it (a pure function of
            # the board, which replay re-derives).
            device = devices.find(args["manager"])
            if (device is None or device.pending_bitstream is None
                    or device.pending_bitstream != device.configured_bitstream):
                return False
            device.pending_bitstream = None
            return True
        if op == "register_manager":
            manager = resolver.get(args["manager"])
            if manager is None or manager.name in devices:
                return False
            self._attach(manager)
            return True
        if op == "deregister_manager":
            if devices.remove(args["manager"]) is None:
                return False
            self._known_managers.pop(args["manager"], None)
            return True
        if op == "register_function":
            if functions.known(args["function"]):
                return False
            functions.register(args["function"], DeviceQuery(*args["query"]))
            return True
        if op == "admit":
            name, function = args["instance"], args["function"]
            changed = functions.instance(name) is None
            if changed:
                if not functions.known(function):
                    return False  # its register_function record was lost
                instance = InstanceRecord(
                    name=name, function=function,
                    node=args["node"], device=args["device"],
                )
                if wal_seq is None:
                    functions.add_instance(function, instance)
                else:
                    instance.function_seq = functions.get(function).seq
                    instance.seq = self._logged_instance_seq(wal_seq)
                    functions.restore_instance(instance)
            device = devices.find(args["device"])
            pending = args.get("pending")
            if device is not None and pending:
                # The reconfiguration promise is re-made even when the
                # instance is already known: an older device_dead replayed
                # before this record has just cleared it.  None is held for
                # the bitstream the board runs already, so a kept promise
                # is dropped here too.
                changed |= device.effective_bitstream != pending
                device.pending_bitstream = (
                    None if pending == device.configured_bitstream
                    else pending)
            return changed
        if op == "remove_instance":
            return functions.remove_instance(args["function"],
                                             args["instance"]) is not None
        if op == "move_instance":
            instance = functions.instance(args["instance"])
            if instance is None or instance.device == args["device"]:
                return False
            functions.move_instance(instance.name, args["device"])
            return True
        if op in ("device_dead", "device_alive"):
            device = devices.find(args["manager"])
            if device is None:
                return False
            alive = op == "device_alive"
            # Absolute, not a toggle: a dead device holds no promise even
            # if a replayed admit re-made one on the already-dead record.
            changed = device.alive != alive or (
                not alive and device.pending_bitstream is not None)
            device.alive = alive
            if not alive:
                device.pending_bitstream = None
            return changed
        return False  # "epoch" or an unknown op: forward-compatible skip

    def snapshot_state(self) -> dict:
        """Deterministic full-state snapshot (plain JSON-clean dict).

        Each device cell still lists its instances, written from the
        Functions Service, although :meth:`_install_state` reads placement
        from the function cells alone: the snapshot keeps its bytes, and
        with them the simulated time a restart spends loading it.
        """
        devices = {
            record.name: {
                "alive": record.alive,
                "pending_bitstream": record.pending_bitstream,
                "instances": sorted(
                    inst.name for inst in
                    self.functions.instances_on_device(record.name)),
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
            record = self._attach(manager)
            record.alive = cell["alive"]
            record.pending_bitstream = cell["pending_bitstream"]
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
        self.index = DeviceIndex(self.metrics_order, self.metrics_filters)
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
        the manager-name → :class:`DeviceManager` address book.  A
        restart during the replay of an earlier one returns that
        recovery (its store and address book stay).
        """
        if self.alive:
            return None
        if self._replay is not None:
            return self._replay
        if store is not None:
            self.store = store
        if self.store is None:
            raise RuntimeError(
                "volatile registry has no durable store to restart from"
            )
        self._replay = self.env.process(self._recover(resolver))
        return self._replay

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
        if snapshot is not None:
            self._install_state(snapshot, resolver)
        for record in records:
            if self._apply(record.op, record.args, resolver,
                           wal_seq=record.seq):
                self.replay_applied += 1
        self.replayed_ops += len(records)
        self.store.record_epoch(self.epoch)
        # Replay done: the control plane serves again (blackout over).
        self.alive = True
        self._replay = None
        self.recoveries += 1
        self.recovered_at = self.env.now
        if self.crashed_at is not None:
            self.blackout_seconds += self.env.now - self.crashed_at
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
        Functions Service, and divergence heals through the live write
        path and the existing Algorithm-1 / ``_evacuate`` paths.  The pass
        stops at any ``yield`` after which its incarnation is gone (the
        Registry crashed, or crashed and restarted).
        """
        from ...rpc.transport import CONTROL_MESSAGE_BYTES
        from .health import REGISTRY_HOST

        epoch = self.epoch
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
            if not self.alive or self.epoch != epoch:
                return
            try:
                report = manager.registry_command(epoch, "report_state")
            except DeviceManagerError:
                report = None  # dead manager process: nothing answered
            yield from network.transfer(manager.node, registry_host,
                                        CONTROL_MESSAGE_BYTES)
            if not self.alive or self.epoch != epoch:
                return
            if report is not None and name not in self.devices:
                self.register_manager(manager)
                diffs["adopted_devices"] += 1
            alive = report is not None and report["alive"]
            if self._commit("device_alive" if alive else "device_dead",
                            manager=name):
                diffs["revived_devices" if alive else "dead_devices"] += 1
            for client in report["clients"] if report is not None else ():
                if self.functions.instance(client) is None:
                    diffs["orphan_sessions"] += 1

        # Cluster pods vs the replayed Functions Service.
        pods = self.cluster.pods
        for function in self.functions.all():
            for instance_name in sorted(function.instances):
                pod = pods.get(instance_name)
                if pod is None:
                    # The pod died while the Registry was dark.
                    self._commit("remove_instance", function=function.name,
                                 instance=instance_name)
                    diffs["dropped_instances"] += 1
                    continue
                actual = pod.spec.env.get(MANAGER_ENV, "")
                if actual and self._commit("move_instance",
                                           instance=instance_name,
                                           device=actual):
                    diffs["moved_instances"] += 1
        for pod_name, pod in sorted(pods.items()):
            allocated = pod.spec.env.get(MANAGER_ENV, "")
            if not allocated or self.functions.instance(pod_name) is not None:
                continue
            # An allocation the replayed log never heard of (lost tail).
            self.register_function(pod.spec.function, pod.spec.device_query)
            # Re-make the admission's reconfiguration promise: the adopted
            # instance needs its accelerator on the device.
            device = self.devices.find(allocated)
            accelerator = pod.spec.device_query.accelerator
            pending = (accelerator if device is not None and accelerator
                       and device.effective_bitstream != accelerator
                       else None)
            node = pod.spec.node_name or (pod.node.name if pod.node else "")
            self._commit("admit", instance=pod_name,
                         function=pod.spec.function, node=node,
                         device=allocated, pending=pending)
            diffs["adopted_instances"] += 1

        # Instances stranded on dead devices: the usual failure path.
        for device in self.devices.all():
            if not device.alive:
                for instance_name in sorted(
                        inst.name for inst in
                        self.functions.instances_on_device(device.name)):
                    if self.evacuate(instance_name) is not None:
                        diffs["evacuated_instances"] += 1
        for device in self.devices.all():
            self._index_refresh(device)
        for key, value in diffs.items():
            self.reconciliation[key] = (
                self.reconciliation.get(key, 0) + value
            )
