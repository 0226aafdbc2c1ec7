"""Board checkpoints: serializable captures of a Device Manager's state.

A :class:`BoardCheckpoint` (or a per-client :class:`SessionCheckpoint`)
captures everything a migration target needs to carry on serving a client
as if nothing happened:

* the **programmed bitstream** the session's kernels require;
* the client's **resource pool** — kernel handles and allocated DDR
  segments, with buffer contents when the board runs functionally;
* the **task backlog** at operation granularity: the unexecuted suffix of
  a preempted task, every queued task (in the scheduler's service order)
  and the still-open (unflushed) accumulator operations;
* **pending write** markers for WRITE operations whose payload has not
  arrived yet, so the target re-arms ``data_ready`` and the payload lands
  there after the stream rebind.

Capture happens only while the source manager is *drained* (see
:meth:`~repro.core.device_manager.manager.DeviceManager.drain`): every
worker parked at an operation boundary, the scheduler frozen, so the
snapshot is consistent by construction.

The wire format (:meth:`BoardCheckpoint.to_wire`) is deterministic —
``sorted(keys)`` JSON metadata plus concatenated binary blobs — so the
round trip ``to_wire → from_wire → to_wire`` is bit-identical, which the
hypothesis property suite asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.device_manager.manager import ClientSession, DeviceManager
from ..core.device_manager.tasks import Operation, OpType, Task
from ..sim import Event

#: Wire-format magic prefix (version 1).
MAGIC = b"BFCK1\n"


class CheckpointError(RuntimeError):
    """The session/board state could not be captured or restored."""


@dataclass
class BufferCheckpoint:
    """One allocated DDR segment, as the client refers to it."""

    buffer_id: int          #: client-visible id (source-side allocator id)
    size: int
    offset: int             #: source-side placement (exact restore only)
    data: Optional[bytes] = None   #: contents; None on timing-only boards


@dataclass
class OperationCheckpoint:
    """One command-queue operation, detached from live simulator objects."""

    type: str               #: OpType value ("write", "read", ...)
    queue_id: int
    tag: Any
    buffer_id: Optional[int] = None
    dst_buffer_id: Optional[int] = None
    nbytes: int = 0
    offset: int = 0
    dst_offset: int = 0
    kernel_id: Optional[int] = None
    kernel_args: Optional[List[Any]] = None
    data: Optional[bytes] = None
    #: True when the WRITE payload had not arrived at capture time: the
    #: restore re-arms ``data_ready`` and registers the pending-write tag.
    pending: bool = False


@dataclass
class TaskCheckpoint:
    """One submitted (or stolen-suffix) task, in service order."""

    queue_id: int
    operations: List[OperationCheckpoint]
    submitted_at: Optional[float] = None


@dataclass
class SessionCheckpoint:
    """Everything needed to re-home one client on another board."""

    client: str
    next_kernel_id: int
    #: kernel_id -> (binary, kernel_name)
    kernels: Dict[int, Tuple[str, str]]
    buffers: List[BufferCheckpoint]
    #: Stolen-suffix tasks first, then queued tasks, in service order.
    tasks: List[TaskCheckpoint]
    #: Unflushed accumulator operations, in arrival order.
    open_operations: List[OperationCheckpoint] = field(default_factory=list)

    @property
    def transfer_nbytes(self) -> int:
        """Bytes that must cross the network to move this session."""
        total = sum(b.size for b in self.buffers)
        for ops in [*(t.operations for t in self.tasks),
                    self.open_operations]:
            total += sum(len(op.data) for op in ops if op.data is not None)
        return total + len(_session_meta(self))


@dataclass
class BoardCheckpoint:
    """A whole board's migratable state (one or many client sessions)."""

    manager: str
    bitstream: Optional[str]
    captured_at: float
    sessions: List[SessionCheckpoint]

    # -- wire format ---------------------------------------------------------
    def to_wire(self) -> bytes:
        """Serialize: MAGIC + 8-byte length + sorted-keys JSON + blobs.

        Everything round-trips bit-identically.
        """
        blobs: List[bytes] = []
        meta = {
            "manager": self.manager,
            "bitstream": self.bitstream,
            "captured_at": self.captured_at,
            "sessions": [_session_meta(s, blobs) for s in self.sessions],
        }
        encoded = json.dumps(meta, sort_keys=True,
                             separators=(",", ":")).encode()
        return b"".join([MAGIC, len(encoded).to_bytes(8, "big"),
                         encoded, *blobs])

    @classmethod
    def from_wire(cls, data: bytes) -> "BoardCheckpoint":
        if not data.startswith(MAGIC):
            raise CheckpointError("not a board checkpoint (bad magic)")
        cursor = len(MAGIC)
        meta_len = int.from_bytes(data[cursor:cursor + 8], "big")
        cursor += 8
        meta = json.loads(data[cursor:cursor + meta_len])
        blob_base = cursor + meta_len

        def blob(ref) -> Optional[bytes]:
            if ref is None:
                return None
            start, length = ref
            return bytes(data[blob_base + start:blob_base + start + length])

        sessions = [_session_from_meta(s, blob) for s in meta["sessions"]]
        return cls(manager=meta["manager"], bitstream=meta["bitstream"],
                   captured_at=meta["captured_at"], sessions=sessions)


# -- metadata helpers ---------------------------------------------------------
def _op_meta(op: OperationCheckpoint, blobs: Optional[List[bytes]],
             offset: List[int]) -> dict:
    ref = None
    if op.data is not None and blobs is not None:
        ref = [offset[0], len(op.data)]
        blobs.append(op.data)
        offset[0] += len(op.data)
    return {
        "type": op.type, "queue_id": op.queue_id, "tag": op.tag,
        "buffer_id": op.buffer_id, "dst_buffer_id": op.dst_buffer_id,
        "nbytes": op.nbytes, "offset": op.offset,
        "dst_offset": op.dst_offset, "kernel_id": op.kernel_id,
        "kernel_args": op.kernel_args, "data": ref, "pending": op.pending,
    }


def _session_meta(session: SessionCheckpoint,
                  blobs: Optional[List[bytes]] = None) -> bytes | dict:
    """JSON metadata of one session; appends binary blobs when collecting.

    Called without ``blobs`` it returns the encoded metadata bytes (used
    to estimate the wire size of :attr:`SessionCheckpoint.transfer_nbytes`
    without building the full image).
    """
    sizing = blobs is None
    offset = [sum(len(b) for b in blobs)] if blobs is not None else [0]
    meta = {
        "client": session.client,
        "next_kernel_id": session.next_kernel_id,
        "kernels": {str(k): list(v) for k, v in session.kernels.items()},
        "buffers": [],
        "tasks": [],
        "open_operations": [_op_meta(op, blobs, offset)
                            for op in session.open_operations],
    }
    for buffer in session.buffers:
        ref = None
        if buffer.data is not None and blobs is not None:
            ref = [offset[0], len(buffer.data)]
            blobs.append(buffer.data)
            offset[0] += len(buffer.data)
        meta["buffers"].append({
            "buffer_id": buffer.buffer_id, "size": buffer.size,
            "offset": buffer.offset, "data": ref,
        })
    for task in session.tasks:
        meta["tasks"].append({
            "queue_id": task.queue_id,
            "submitted_at": task.submitted_at,
            "operations": [_op_meta(op, blobs, offset)
                           for op in task.operations],
        })
    if sizing:
        return json.dumps(meta, sort_keys=True,
                          separators=(",", ":")).encode()
    return meta


def _op_from_meta(meta: dict, blob) -> OperationCheckpoint:
    args = meta["kernel_args"]
    return OperationCheckpoint(
        type=meta["type"], queue_id=meta["queue_id"], tag=meta["tag"],
        buffer_id=meta["buffer_id"], dst_buffer_id=meta["dst_buffer_id"],
        nbytes=meta["nbytes"], offset=meta["offset"],
        dst_offset=meta["dst_offset"], kernel_id=meta["kernel_id"],
        kernel_args=args, data=blob(meta["data"]),
        pending=meta["pending"],
    )


def _session_from_meta(meta: dict, blob) -> SessionCheckpoint:
    return SessionCheckpoint(
        client=meta["client"],
        next_kernel_id=meta["next_kernel_id"],
        kernels={int(k): tuple(v) for k, v in meta["kernels"].items()},
        buffers=[
            BufferCheckpoint(buffer_id=b["buffer_id"], size=b["size"],
                             offset=b["offset"], data=blob(b["data"]))
            for b in meta["buffers"]
        ],
        tasks=[
            TaskCheckpoint(
                queue_id=t["queue_id"],
                submitted_at=t["submitted_at"],
                operations=[_op_from_meta(o, blob) for o in t["operations"]],
            )
            for t in meta["tasks"]
        ],
        open_operations=[_op_from_meta(o, blob)
                         for o in meta["open_operations"]],
    )


# -- capture ------------------------------------------------------------------
def _checkpoint_op(operation: Operation) -> OperationCheckpoint:
    pending = (operation.data_ready is not None
               and not operation.data_ready.triggered)
    data = operation.data
    if data is not None and not isinstance(data, bytes):
        data = bytes(data)  # memoryview / numpy payloads staged earlier
    args = operation.kernel_args
    if args is not None:
        # Normalize (kind, value) pairs to lists so the JSON round trip
        # reproduces the capture bit-identically.
        args = [list(pair) for pair in args]
    return OperationCheckpoint(
        type=operation.type.value, queue_id=operation.queue_id,
        tag=operation.tag, buffer_id=operation.buffer_id,
        dst_buffer_id=operation.dst_buffer_id, nbytes=operation.nbytes,
        offset=operation.offset, dst_offset=operation.dst_offset,
        kernel_id=operation.kernel_id, kernel_args=args,
        data=None if pending else data, pending=pending,
    )


def capture_session(manager: DeviceManager, client: str) -> SessionCheckpoint:
    """Capture one drained client off ``manager`` (destructive).

    Steals the unexecuted suffix of any parked task, pulls the client's
    queued and unflushed work, snapshots buffers/kernels, frees the
    source-side DDR and removes the session — leaving a tombstone
    transport so racing unary calls still receive ``CL_DEVICE_MIGRATING``
    until :meth:`DeviceManager.resume`.
    """
    session = manager.sessions.get(client)
    if session is None:
        raise CheckpointError(f"no session for client {client!r}")
    if not manager.migrating:
        raise CheckpointError("capture requires a drained manager")

    stolen = manager.steal_parked_ops(client)
    queued = manager.take_client_tasks(client)
    open_tasks = manager.accumulator.flush_client(client)

    tasks: List[TaskCheckpoint] = []
    # The stolen suffix resumes first, before any queued task, preserving
    # the per-queue order the client observed.
    if stolen:
        by_queue: Dict[int, List[Operation]] = {}
        for operation in stolen:
            by_queue.setdefault(operation.queue_id, []).append(operation)
        for queue_id, operations in by_queue.items():
            tasks.append(TaskCheckpoint(
                queue_id=queue_id,
                operations=[_checkpoint_op(op) for op in operations],
            ))
    for task in queued:
        tasks.append(TaskCheckpoint(
            queue_id=task.queue_id,
            submitted_at=task.submitted_at,
            operations=[_checkpoint_op(op) for op in task.operations],
        ))
    open_operations = [
        _checkpoint_op(op)
        for task in open_tasks for op in task.operations
    ]

    # Pending-write tags move with the session: their payloads will arrive
    # at the target once the stream rebinds.
    for operation in stolen:
        manager._pending_writes.pop(operation.tag, None)
    for task in [*queued, *open_tasks]:
        for operation in task.operations:
            manager._pending_writes.pop(operation.tag, None)

    buffers: List[BufferCheckpoint] = []
    for buffer_id, buffer in session.buffers.items():
        if buffer.freed:
            continue  # invalidated by an earlier reprogram; stays invalid
        data = (bytes(buffer.read())
                if manager.board.functional else None)
        buffers.append(BufferCheckpoint(
            buffer_id=buffer_id, size=buffer.size,
            offset=buffer.offset, data=data,
        ))
        manager.board.free(buffer)
    session.buffers.clear()

    # Tear the session down; the tombstone keeps rejects answerable.
    manager._migrating_transports[client] = session.transport
    session.connected = False
    del manager.sessions[client]

    return SessionCheckpoint(
        client=client,
        next_kernel_id=session._next_kernel_id,
        kernels=dict(session.kernels),
        buffers=buffers,
        tasks=tasks,
        open_operations=open_operations,
    )


def capture_board(manager: DeviceManager) -> BoardCheckpoint:
    """Capture every session of a drained manager (destructive)."""
    sessions = [capture_session(manager, client)
                for client in sorted(manager.sessions)]
    return BoardCheckpoint(
        manager=manager.name,
        bitstream=manager.configured_bitstream,
        captured_at=manager.env.now,
        sessions=sessions,
    )


# -- restore ------------------------------------------------------------------
def _rebuild_op(meta: OperationCheckpoint, client: str,
                manager: DeviceManager) -> Operation:
    operation = Operation(
        type=OpType(meta.type), client=client, queue_id=meta.queue_id,
        tag=meta.tag, buffer_id=meta.buffer_id,
        dst_buffer_id=meta.dst_buffer_id, nbytes=meta.nbytes,
        offset=meta.offset, dst_offset=meta.dst_offset,
        kernel_id=meta.kernel_id, kernel_args=meta.kernel_args,
        data=meta.data,
    )
    if meta.pending:
        # Re-arm the payload gate; the WRITE_DATA message reaches this
        # manager after the client's stream rebinds.
        operation.data_ready = Event(manager.env)
        manager._pending_writes[operation.tag] = operation
    return operation


def restore_session(manager: DeviceManager, checkpoint: SessionCheckpoint,
                    transport, completion_queue,
                    exact: bool = False) -> ClientSession:
    """Re-home a captured session onto ``manager``.

    ``exact=True`` reproduces the source DDR layout (same offsets, same
    ids) — used when restoring onto a blank board, e.g. the property
    suite's bit-identical round trip.  The default re-places segments
    first-fit and keeps the client's old buffer ids as the session-table
    keys, reserving them in the target allocator so new allocations can
    never collide.

    Raises :class:`CheckpointError` when the target cannot hold the
    session (out of memory); the caller falls back to a restart migration.
    """
    if checkpoint.client in manager.sessions:
        raise CheckpointError(
            f"client {checkpoint.client!r} already has a session on "
            f"{manager.name}"
        )
    session = ClientSession(checkpoint.client, transport, completion_queue)
    session.kernels = dict(checkpoint.kernels)
    session._next_kernel_id = checkpoint.next_kernel_id

    allocator = manager.board.memory
    placed = []
    try:
        for buffer in checkpoint.buffers:
            if exact:
                device_buffer = allocator.allocate_at(
                    buffer.size, buffer.offset, buffer.buffer_id
                )
            else:
                device_buffer = manager.board.allocate(buffer.size)
            if buffer.data is not None and manager.board.functional:
                device_buffer.write(buffer.data)
            session.buffers[buffer.buffer_id] = device_buffer
            placed.append(device_buffer)
    except Exception as exc:
        for device_buffer in placed:
            manager.board.free(device_buffer)
        raise CheckpointError(
            f"target {manager.name} cannot hold session "
            f"{checkpoint.client!r}: {exc}"
        ) from exc
    if checkpoint.buffers:
        allocator.reserve_ids(max(b.buffer_id for b in checkpoint.buffers))

    manager.adopt(session)

    for task_meta in checkpoint.tasks:
        task = Task(checkpoint.client, task_meta.queue_id,
                    manager.env.new_id("task"))
        for op_meta in task_meta.operations:
            task.append(_rebuild_op(op_meta, checkpoint.client, manager))
        manager._submit(task)
        task.submitted_at = task_meta.submitted_at
    for op_meta in checkpoint.open_operations:
        manager.accumulator.add(
            _rebuild_op(op_meta, checkpoint.client, manager)
        )

    return session
