"""Tasks: the atomic unit of execution of BlastFunction.

A *task* is "a sequence of operations that should execute atomically on the
FPGA" (Section III-B).  Command-queue calls append :class:`Operation`
objects to the client's open task; a flush (``clFlush``/``clFinish``/
``clEnqueueBarrier`` or any blocking call) closes the task and submits it to
the Device Manager's central FIFO queue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ...sim import Environment, Event


class OpType(enum.Enum):
    """Kinds of command-queue operations a task may contain."""

    WRITE = "write"
    READ = "read"
    COPY = "copy"
    KERNEL = "kernel"
    MARKER = "marker"

    #: Members are singletons, compared by identity: hash them by identity
    #: too, in C (``Enum.__hash__`` runs Python), as the Device Manager's
    #: per-operation counts key on them.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Operation:
    """One device operation inside a task.

    ``tag`` is the client-side completion-queue tag (the pointer to the
    Remote Library event, per the paper); the Device Manager sends it back
    with every notification so the client can resume the right state
    machine.
    """

    type: OpType
    client: str
    queue_id: int
    tag: Any
    buffer_id: Optional[int] = None
    dst_buffer_id: Optional[int] = None   # copy destination
    nbytes: int = 0
    offset: int = 0
    dst_offset: int = 0
    kernel_id: Optional[int] = None
    kernel_args: Optional[List[Any]] = None
    #: Staged payload for writes (bytes, or None in timing-only runs).
    data: Optional[bytes] = None
    #: Triggered when a write's payload has been staged in the manager.
    data_ready: Optional[Event] = None
    #: Execution timestamps, stamped by the worker (for tracing).
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def needs_data(self) -> bool:
        return self.type is OpType.WRITE


@dataclass(slots=True)
class Task:
    """An atomic, in-order batch of operations from one client queue."""

    client: str
    queue_id: int
    #: Unique within its simulation.
    id: int
    operations: List[Operation] = field(default_factory=list)
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def append(self, operation: Operation) -> None:
        if operation.client != self.client or operation.queue_id != self.queue_id:
            raise ValueError("operation belongs to a different task stream")
        self.operations.append(operation)

    def __len__(self) -> int:
        return len(self.operations)

    @property
    def empty(self) -> bool:
        return not self.operations


class TaskAccumulator:
    """Open tasks per (client, queue) awaiting a flush."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._open: dict[tuple[str, int], Task] = {}

    def add(self, operation: Operation) -> Task:
        """Append an operation to the client's open task (creating one)."""
        key = (operation.client, operation.queue_id)
        task = self._open.get(key)
        if task is None:
            task = Task(operation.client, operation.queue_id,
                        self.env.new_id("task"))
            self._open[key] = task
        # Keyed by the operation's stream: Task.append's check holds.
        task.operations.append(operation)
        return task

    def flush(self, client: str, queue_id: int) -> Optional[Task]:
        """Close and return the open task, or None if it is empty/missing."""
        return self._open.pop((client, queue_id), None)

    def flush_client(self, client: str) -> List[Task]:
        """Close every open task of a client (used on disconnect)."""
        keys = [key for key in self._open if key[0] == client]
        return [self._open.pop(key) for key in keys]

    def open_count(self) -> int:
        return len(self._open)
