"""Warm-standby Registry replica: WAL tailing and leader-lease takeover.

A replicated Registry keeps a second copy of the durable store on another
host.  A :class:`WarmStandby` process periodically pulls the
leader's WAL delta over the simulated network (paying real transfer time
for the shipped bytes, so replication lag is a function of load and link
speed) and, when the leader stops being seen for longer than its lease,
restarts the Registry from the *standby's* store copy — possibly missing
a lost tail of un-replicated records, which the epoch-fenced
reconciliation pass then heals against board-reported ground truth.

The takeover path reuses :meth:`AcceleratorsRegistry.restart` with the
replica log substituted via its ``store`` argument: the recovered process
runs at a strictly higher epoch than anything the dead leader logged, so
any zombie command from the old incarnation is fenced at the Device
Managers (:class:`~repro.core.device_manager.manager.StaleEpochError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ...rpc import Network
from ...sim import Environment, Interrupt
from ..device_manager.manager import DeviceManager
from .health import REGISTRY_HOST
from .store import RegistryStore

#: Network identity of the standby replica host.
STANDBY_HOST = "registry-standby"


@dataclass(frozen=True)
class StandbyPolicy:
    """Replication and takeover knobs for the warm standby."""

    #: Seconds between WAL-delta pulls from the leader.
    sync_interval: float = 0.25
    #: Seconds without a live leader before the standby takes over.
    lease_timeout: float = 1.0


class WarmStandby:
    """A replica that tails the leader's WAL and takes over on its death."""

    def __init__(self, env: Environment, registry, network: Network,
                 managers: Dict[str, DeviceManager],
                 policy: Optional[StandbyPolicy] = None):
        self.env = env
        self.registry = registry
        self.network = network
        self.managers = dict(managers)
        self.policy = policy if policy is not None else StandbyPolicy()
        #: The replica's copy of the durable store (tails the leader WAL).
        self.log = RegistryStore()
        self.leader_host = network.host(REGISTRY_HOST)
        self.host = network.host(STANDBY_HOST)
        # -- statistics ------------------------------------------------------
        self.records_tailed = 0
        self.snapshots_tailed = 0
        self.bytes_tailed = 0
        self.takeovers = 0
        self.takeover_at: Optional[float] = None
        #: WAL records the leader had logged but the replica had not yet
        #: pulled when it took over (the lost tail reconciliation heals).
        self.lag_records_at_takeover = 0
        self.last_leader_seen = env.now
        self._proc = env.process(self._run())

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("standby stopped")

    @property
    def is_leader(self) -> bool:
        """True once this replica's log became the Registry's store."""
        return self.registry.store is self.log

    def _run(self):
        """Process: tail the leader's WAL; take over when its lease dies."""
        try:
            while True:
                yield self.env.timeout(self.policy.sync_interval)
                if self.is_leader:
                    return  # promoted; nothing left to tail
                leader_store = self.registry.store
                if self.registry.alive and leader_store is not None:
                    snapshot, records, nbytes = leader_store.delta_since(
                        self.log.seq
                    )
                    if nbytes:
                        yield from self.network.transfer(
                            self.leader_host, self.host, nbytes
                        )
                        self.bytes_tailed += nbytes
                    if snapshot is not None:
                        self.snapshots_tailed += 1
                    self.records_tailed += self.log.ingest_delta(
                        snapshot, records,
                        snapshot_seq=leader_store.snapshot_seq,
                        epoch=leader_store.epoch,
                    )
                    self.last_leader_seen = self.env.now
                    continue
                down_for = self.env.now - self.last_leader_seen
                if down_for <= self.policy.lease_timeout:
                    continue
                # Leader lease expired: promote the replica's log copy.
                if leader_store is not None:
                    self.lag_records_at_takeover += len(
                        leader_store.records_since(self.log.seq)
                    )
                self.takeovers += 1
                self.takeover_at = self.env.now
                recovery = self.registry.restart(
                    resolver=self.managers, store=self.log
                )
                if recovery is not None:
                    yield recovery
                return
        except Interrupt:
            return
