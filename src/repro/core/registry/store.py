"""Durable state of the Accelerators Registry: write-ahead log + snapshots.

The Registry keeps its Devices Service and Functions Service in process
memory; a crash erases them.  A :class:`RegistryStore` models the durable
medium that survives the crash — the write-ahead log every live write
and reconciliation step that changed the state is appended to, plus
periodic full snapshots that truncate the log.  Replay feeds the records
back through the same reducer (the Registry's ``_apply``) without logging
them again, and nothing is appended while the Registry is down.  The
store object lives *outside* the Registry (it represents the disk /
replicated log, not the process), so a
:class:`~repro.faults.registry_crash.RegistryCrash` injection clears the
Registry's volatile services but leaves the store intact for replay.

Record vocabulary (``op`` → ``args``), which is also the input of the
Registry's reducer:

* ``register_manager`` / ``deregister_manager`` — Devices Service
  membership (``manager``);
* ``register_function`` — Functions Service registration (``function``,
  ``query`` as a ``[vendor, platform, accelerator]`` triple);
* ``admit`` — one Algorithm-1 allocation (``instance``, ``function``,
  ``node``, ``device``, ``pending`` bitstream or ``None``);
* ``remove_instance`` / ``move_instance`` — instance lifecycle
  (deletion watch, live-migration completion);
* ``device_dead`` / ``device_alive`` — lease events from the health
  monitor;
* ``epoch`` — a Registry (re)start fencing-token bump (``epoch``).

Records and snapshots are sized as ``sorted(keys)`` compact JSON, which is
deterministic, so seeded goldens that embed store statistics stay
reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass(frozen=True)
class WalRecord:
    """One durably logged state-changing operation."""

    seq: int
    op: str
    args: Dict[str, object] = field(default_factory=dict)

    def to_meta(self) -> dict:
        return {"seq": self.seq, "op": self.op, "args": dict(self.args)}

    @property
    def nbytes(self) -> int:
        """Encoded size of this record on the durable medium."""
        return len(_encode(self.to_meta()))


class RegistryStore:
    """The Registry's durable medium: WAL, snapshots, epoch counter."""

    def __init__(self) -> None:
        #: Last state snapshot (a deterministic plain-JSON dict built by
        #: ``AcceleratorsRegistry.snapshot_state``), or ``None``.
        self.snapshot_state: Optional[dict] = None
        #: Highest WAL sequence folded into the snapshot.
        self.snapshot_seq = 0
        #: Log suffix after the snapshot, in append order.
        self.wal: List[WalRecord] = []
        #: Last assigned sequence number (monotonic across snapshots).
        self.seq = 0
        #: Highest fencing epoch durably recorded.
        self.epoch = 0
        # -- statistics (all deterministic, golden-safe) -------------------
        self.appends = 0
        self.appended_bytes = 0
        self.snapshots_taken = 0
        self.truncated_records = 0

    # -- logging ------------------------------------------------------------
    def append(self, op: str, **args: object) -> WalRecord:
        """Durably log one operation; returns the sequenced record."""
        self.seq += 1
        record = WalRecord(seq=self.seq, op=op, args=args)
        self.wal.append(record)
        self.appends += 1
        self.appended_bytes += record.nbytes
        if op == "epoch":
            self.epoch = max(self.epoch, int(args["epoch"]))
        return record

    def record_epoch(self, epoch: int) -> WalRecord:
        """Log a Registry (re)start; the fencing token survives crashes."""
        return self.append("epoch", epoch=int(epoch))

    def take_snapshot(self, state: dict) -> None:
        """Fold the full state into a snapshot and truncate the WAL."""
        self.snapshot_state = state
        self.snapshot_seq = self.seq
        self.snapshots_taken += 1
        self.truncated_records += len(self.wal)
        self.wal = []

    # -- recovery ------------------------------------------------------------
    def replay(self) -> Tuple[Optional[dict], List[WalRecord]]:
        """What a restart reads back: (snapshot, WAL suffix in order)."""
        return self.snapshot_state, list(self.wal)

    def truncate(self, seq: int) -> int:
        """Drop every WAL record after ``seq`` (a lost, unsynced tail).

        Models a crash that outruns the log (or a lagging warm-standby
        copy).  Returns how many records were lost.
        """
        kept = [record for record in self.wal if record.seq <= seq]
        lost = len(self.wal) - len(kept)
        self.wal = kept
        if kept:
            self.seq = kept[-1].seq
        elif self.snapshot_state is not None:
            self.seq = self.snapshot_seq
        else:
            self.seq = min(self.seq, max(seq, 0))
        self.epoch = 0
        for record in kept:
            if record.op == "epoch":
                self.epoch = max(self.epoch, int(record.args["epoch"]))
        if self.snapshot_state is not None:
            self.epoch = max(self.epoch,
                             int(self.snapshot_state.get("epoch", 0)))
        return lost

    # -- replication (warm standby) ------------------------------------------
    def records_since(self, seq: int) -> List[WalRecord]:
        """WAL records strictly newer than ``seq``, in order."""
        return [record for record in self.wal if record.seq > seq]

    def delta_since(self, seq: int) -> Tuple[Optional[dict],
                                             List[WalRecord], int]:
        """What a replica at ``seq`` must fetch to catch up.

        Returns ``(snapshot_or_None, records, nbytes)``: the snapshot is
        included only when the replica's position predates it (the leader
        truncated past the replica), and ``nbytes`` is the wire size of
        everything shipped.
        """
        snapshot = None
        if self.snapshot_state is not None and seq < self.snapshot_seq:
            snapshot = self.snapshot_state
            records = list(self.wal)
        else:
            records = self.records_since(seq)
        nbytes = (len(_encode(snapshot)) if snapshot is not None else 0)
        nbytes += sum(record.nbytes for record in records)
        return snapshot, records, nbytes

    def ingest_delta(self, snapshot: Optional[dict],
                     records: List[WalRecord],
                     snapshot_seq: int = 0, epoch: int = 0) -> int:
        """Apply a leader delta to this (replica) store; returns #records."""
        if snapshot is not None:
            self.snapshot_state = json.loads(_encode(snapshot).decode())
            self.snapshot_seq = snapshot_seq
            self.wal = []
            self.seq = max(self.seq, snapshot_seq)
        applied = 0
        for record in records:
            if record.seq <= self.seq:
                continue  # duplicate delivery; ingest is idempotent
            self.wal.append(record)
            self.seq = record.seq
            if record.op == "epoch":
                self.epoch = max(self.epoch, int(record.args["epoch"]))
            applied += 1
        self.epoch = max(self.epoch, epoch)
        return applied
