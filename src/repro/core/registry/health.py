"""Heartbeat/lease protocol between Device Managers and the Registry.

Every Device Manager renews a lease by sending a heartbeat control message
to the Registry's well-known endpoint.  Heartbeats ride the same simulated
network as everything else, so partitions and message loss from the fault
plane delay or eat them — exactly how a real lease protocol misfires.

A manager only heartbeats while its server process is alive *and* its board
responds; a crashed manager or a locked-up board stops beating, the lease
expires after :attr:`~repro.faults.HealthPolicy.lease_timeout`, and the
Registry marks the device dead — deallocating it and migrating its
instances through Algorithm 1.  A later heartbeat (restart/recovery)
revives the device.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...faults import HealthPolicy
from ...rpc import Message, Network, RpcEndpoint, make_transport
from ...sim import Environment, Interrupt

#: Network identity of the Registry (the cluster master node).
REGISTRY_HOST = "registry"

HEARTBEAT = "Heartbeat"


class HealthMonitor:
    """Lease bookkeeping on the Registry side plus per-manager beaters.

    Two modes, selected by :attr:`~repro.faults.HealthPolicy.coalesce`:

    * **per-board** (default): every manager runs its own heartbeat
      process and every beat is a control message on the simulated
      network — full fault-plane fidelity, O(boards) DES events per
      heartbeat interval;
    * **coalesced**: one shared :class:`~repro.sim.TimerWheel` tick renews
      every healthy manager's lease and runs the expiry check — O(1)
      periodic events regardless of fleet size.  Failure detection
      semantics (lease age vs ``lease_timeout``, revival on recovery) are
      unchanged, but heartbeats no longer traverse the network, so
      message-level faults cannot delay them.
    """

    def __init__(self, env: Environment, registry, network: Network,
                 policy: HealthPolicy | None = None, wheel=None):
        self.env = env
        self.registry = registry
        self.network = network
        self.policy = policy if policy is not None else HealthPolicy()
        self.host = network.host(REGISTRY_HOST)
        self.inbox = RpcEndpoint(env, "registry/heartbeats")
        #: Last lease renewal per device, simulation seconds.
        self.last_seen: Dict[str, float] = {}
        #: (time, device) log of detected failures / recoveries.
        self.failures_detected: List[Tuple[float, str]] = []
        self.recoveries_detected: List[Tuple[float, str]] = []
        self._procs = []
        self._managers = []
        #: Per-manager heartbeat sender (per-board mode), for unwatching.
        self._beaters: Dict[str, object] = {}
        self.wheel = None
        self._subscription = None
        if self.policy.coalesce:
            from ...sim import TimerWheel

            self.wheel = wheel if wheel is not None else TimerWheel(
                env, self.policy.heartbeat_interval
            )
            self._subscription = self.wheel.every(
                self.wheel.ticks_for(self.policy.heartbeat_interval),
                self._tick,
            )
        for record in registry.devices.all():
            self.watch_manager(record.manager)
        self._procs.append(env.process(self._receiver()))
        if not self.policy.coalesce:
            self._procs.append(env.process(self._checker()))

    def stop(self) -> None:
        for process in self._procs:
            if process.is_alive:
                process.interrupt("health monitor stopped")
        if self.wheel is not None and self._subscription is not None:
            self.wheel.cancel(self._subscription)
            self._subscription = None

    def watch_manager(self, manager) -> None:
        """Start a heartbeat sender on a manager's node."""
        self.last_seen[manager.name] = self.env.now
        self._managers.append(manager)
        if self.policy.coalesce:
            return  # the shared wheel tick covers this manager
        transport = make_transport(self.env, self.network, manager.node,
                                   self.host)
        beater = self.env.process(self._beat(manager, transport))
        self._procs.append(beater)
        self._beaters[manager.name] = beater

    def unwatch_manager(self, manager_name: str) -> None:
        """Forget a deregistered manager: drop its lease and kill its beater.

        Without this, a removed manager leaves a ``last_seen`` entry that
        the lease checker expires forever after, and (in per-board mode) a
        heartbeat process that keeps renewing a lease nobody owns.
        """
        self.last_seen.pop(manager_name, None)
        self._managers = [m for m in self._managers
                          if m.name != manager_name]
        beater = self._beaters.pop(manager_name, None)
        if beater is not None:
            if beater.is_alive:
                beater.interrupt("manager deregistered")
            if beater in self._procs:
                self._procs.remove(beater)

    # -- coalesced mode ------------------------------------------------------
    def _tick(self) -> None:
        """One wheel tick: renew healthy leases, then expire stale ones."""
        now = self.env.now
        for manager in self._managers:
            if not (manager.healthy and manager.board.alive):
                continue
            self.last_seen[manager.name] = now
            try:
                record = self.registry.devices.get(manager.name)
            except KeyError:
                continue
            if not record.alive:
                self.recoveries_detected.append((now, manager.name))
                self.registry.on_device_recovery(manager.name)
        self._check_leases(now)

    def _check_leases(self, now: float) -> None:
        for name, seen in sorted(self.last_seen.items()):
            if now - seen <= self.policy.lease_timeout:
                continue
            try:
                record = self.registry.devices.get(name)
            except KeyError:
                continue
            if record.alive:
                self.failures_detected.append((now, name))
                self.registry.on_device_failure(name)

    # -- processes -----------------------------------------------------------
    def _beat(self, manager, transport):
        """Process: renew one manager's lease while it is actually healthy."""
        try:
            while True:
                yield self.env.timeout(self.policy.heartbeat_interval)
                if manager.healthy and manager.board.alive:
                    if transport.broken is not None:
                        transport = make_transport(  # reconnect
                            self.env, self.network, manager.node, self.host)
                    yield from transport.deliver_to_server(
                        self.inbox,
                        Message(method=HEARTBEAT, sender=manager.name,
                                id=self.env.new_id("message")),
                    )
        except Interrupt:
            return

    def _receiver(self):
        """Process: renew leases; revive devices that beat after death."""
        try:
            while True:
                message: Message = yield self.inbox.inbox.get()
                name = message.sender
                self.last_seen[name] = self.env.now
                try:
                    record = self.registry.devices.get(name)
                except KeyError:
                    continue
                if not record.alive:
                    self.recoveries_detected.append((self.env.now, name))
                    self.registry.on_device_recovery(name)
        except Interrupt:
            return

    def _checker(self):
        """Process: expire stale leases and trigger failure handling."""
        try:
            while True:
                yield self.env.timeout(self.policy.heartbeat_interval)
                self._check_leases(self.env.now)
        except Interrupt:
            return
