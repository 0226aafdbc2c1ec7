"""The Device Manager: time-sharing controller of one FPGA board.

Implements Section III-B of the paper:

* **per-client resource pools** (buffers, kernels) enforcing isolation;
* **context and information methods** served synchronously; board
  reconfiguration is the one blocking exception;
* **command-queue methods** accumulated into per-(client, queue) *tasks*;
  a flush submits the task to the central FIFO queue;
* a **worker** that pulls tasks and executes them on the FPGA in FIFO
  order, notifying the client's completion queue per operation;
* Prometheus-style metrics (FPGA time utilization, per-client busy time,
  task/op counters) for the Accelerators Registry's Metrics Gatherer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ...fpga.bitstream import Bitstream, BitstreamLibrary
from ...fpga.board import (
    BoardError,
    BoardUnavailableError,
    FPGABoard,
    KernelFault,
    ReconfigurationError,
    StepSplit,
)
from ...fpga.ddr import DeviceBuffer, OutOfMemoryError, materialize
from ...metrics import MetricsRegistry
from ...ocl.errors import (
    CL_BUILD_PROGRAM_FAILURE,
    CL_DEVICE_MIGRATING,
    CL_DEVICE_NOT_AVAILABLE,
    CL_INVALID_BINARY,
    CL_INVALID_BUFFER_SIZE,
    CL_INVALID_KERNEL_NAME,
    CL_INVALID_MEM_OBJECT,
    CL_INVALID_OPERATION,
    CL_INVALID_VALUE,
    CL_MEM_OBJECT_ALLOCATION_FAILURE,
    CL_OUT_OF_RESOURCES,
    CL_STALE_REGISTRY_EPOCH,
)
from ...rpc import (
    Message,
    Network,
    NetworkHost,
    RpcEndpoint,
    RpcError,
    Transport,
    reply,
    reply_error,
)
from ...sim import Environment, Event, Interrupt
from . import protocol
from .schedulers import TaskScheduler, make_scheduler
from .tasks import Operation, OpType, Task, TaskAccumulator

#: Operation type of each streamed command-queue method.
_OP_TYPES = {
    protocol.ENQUEUE_WRITE: OpType.WRITE,
    protocol.ENQUEUE_READ: OpType.READ,
    protocol.ENQUEUE_COPY: OpType.COPY,
    protocol.ENQUEUE_KERNEL: OpType.KERNEL,
    protocol.ENQUEUE_MARKER: OpType.MARKER,
}

#: What each field absent from a command-queue payload means.
_ENQUEUE_DEFAULTS = {
    "queue": 0, "buffer_id": None, "dst_buffer_id": None, "nbytes": 0,
    "offset": 0, "dst_offset": 0, "kernel_id": None, "args": None,
}


class ClientSession:
    """Server-side state of one connected client (isolated resource pool)."""

    def __init__(self, name: str, transport: Transport,
                 completion_queue: RpcEndpoint):
        self.name = name
        self.transport = transport
        self.completion_queue = completion_queue
        self.buffers: Dict[int, DeviceBuffer] = {}
        self.kernels: Dict[int, tuple[str, str]] = {}
        self._next_kernel_id = 1
        self.connected = True

    def new_kernel_id(self) -> int:
        kernel_id = self._next_kernel_id
        self._next_kernel_id += 1
        return kernel_id


class _ParkedTask:
    """A worker's task held at an operation boundary during a drain.

    The migration plane may *steal* the unexecuted suffix of the task
    (``operations[index:]``) while the worker sleeps; the worker then
    skips the remainder on resume — those operations finish on the
    migration target instead.
    """

    __slots__ = ("task", "index", "stolen")

    def __init__(self, task: Task, index: int):
        self.task = task
        self.index = index
        self.stolen = False


class DeviceManagerError(RuntimeError):
    """Protocol/resource error raised while serving a client request.

    ``cl_code`` is the structured OpenCL error code surfaced to the
    client (``CL_INVALID_OPERATION`` when nothing more specific applies).
    """

    def __init__(self, message: str, cl_code: Optional[int] = None):
        super().__init__(message)
        self.cl_code = (cl_code if cl_code is not None
                        else CL_INVALID_OPERATION)


class StaleEpochError(DeviceManagerError):
    """A registry control command carried an out-of-date fencing epoch.

    Raised by :meth:`DeviceManager.registry_command` when a command's epoch
    is older than the highest this manager has seen — the sender is a
    zombie registry instance (pre-crash leader, or a deposed leader after a
    standby takeover) and must not be allowed to mutate board state.
    """

    def __init__(self, message: str):
        super().__init__(message, CL_STALE_REGISTRY_EPOCH)


def _continue(generator, event):
    """Finish ``generator``, suspended at ``yield event`` outside any
    process, as ``yield from generator`` would inside one."""
    while True:
        try:
            value = yield event
        except BaseException as exc:  # an Interrupt thrown into the server
            resume, value = generator.throw, exc
        else:
            resume = generator.send
        try:
            event = resume(value)
        except StopIteration as stop:
            return stop.value


def _error_code(exc: Exception) -> int:
    """Map a server-side failure to the OpenCL error code clients see."""
    code = getattr(exc, "cl_code", None)
    if code is not None:
        return code
    if isinstance(exc, OutOfMemoryError):
        return CL_MEM_OBJECT_ALLOCATION_FAILURE
    if isinstance(exc, KernelFault):
        return CL_OUT_OF_RESOURCES
    if isinstance(exc, ReconfigurationError):
        return CL_BUILD_PROGRAM_FAILURE
    if isinstance(exc, BoardUnavailableError):
        return CL_DEVICE_NOT_AVAILABLE
    if isinstance(exc, ValueError):
        return CL_INVALID_VALUE
    return CL_INVALID_OPERATION


class DeviceManager:
    """One Device Manager, bound to one board on one node."""

    #: Worker-side processing overhead per operation (dequeue, bookkeeping).
    OP_OVERHEAD = 20e-6

    def __init__(
        self,
        env: Environment,
        name: str,
        board: FPGABoard,
        library: BitstreamLibrary,
        network: Network,
        node: NetworkHost,
        reconfiguration_validator: Optional[Callable[[str, str], bool]] = None,
        batching: bool = True,
        workers: Optional[int] = None,
        scheduler: "str | TaskScheduler" = "fifo",
    ):
        self.env = env
        self.name = name
        self.board = board
        self.library = library
        self.network = network
        self.node = node
        self.endpoint = RpcEndpoint(env, name, handler=self._on_message)
        #: True while the serve process waits on an empty inbox: the next
        #: message may then be served in its arrival callback.  False while
        #: a message is served or queued, and while the manager is down.
        self._idle = False
        self.sessions: Dict[str, ClientSession] = {}
        self.accumulator = TaskAccumulator(self.env)
        #: Central task queue policy; the paper's system is FIFO.
        self.scheduler: TaskScheduler = (
            make_scheduler(scheduler, env)
            if isinstance(scheduler, str) else scheduler
        )
        self._pending_writes: Dict[Any, Operation] = {}
        #: Hook the Accelerators Registry installs to validate reconfiguration
        #: requests (client, bitstream) → allowed.
        self.reconfiguration_validator = reconfiguration_validator
        #: Multi-operation task batching (the paper's design).  When off,
        #: every command-queue call becomes its own single-op task — the
        #: op-at-a-time baseline the batching ablation compares against.
        self.batching = batching
        #: Observers called with each Operation after it executes (used by
        #: tests, tracing and the batching ablation).
        self.op_listeners: list[Callable[[Operation], None]] = []
        #: Observers called with each Task after it finishes.
        self.task_listeners: list[Callable[[Task], None]] = []
        #: False after :meth:`crash` until :meth:`restart`.
        self.alive = True
        self.crashes = 0
        #: Streamed messages dropped because no handler could serve them
        #: (unknown client after a restart, unknown write tag, ...).
        self.rejected_messages = 0

        # -- registry epoch fencing (see docs/failure_model.md) --------------
        #: Highest Registry fencing epoch observed on a control command;
        #: commands carrying an older epoch are rejected (zombie registry).
        self.registry_epoch = 0
        #: Stale-epoch control commands rejected by the fence.
        self.fenced_commands = 0
        #: Instance names the current-epoch Registry says belong here
        #: (last ``sync_instances`` payload; observability only).
        self.synced_instances: list = []

        # -- live-migration drain state (see docs/live_migration.md) --------
        #: True while the drain protocol holds the workers at an operation
        #: boundary.  While set, submits divert to ``_drain_backlog`` (the
        #: scheduler stays frozen), workers park between operations, and
        #: unary calls from ``migrating_clients`` are rejected with
        #: ``CL_DEVICE_MIGRATING`` for idempotent replay after the rebind.
        self.migrating = False
        #: Clients currently being checkpointed off this board.
        self.migrating_clients: set = set()
        #: Old transports of sessions already captured, kept so racing
        #: unary calls can still be answered with ``CL_DEVICE_MIGRATING``.
        self._migrating_transports: Dict[str, Transport] = {}
        self._drain_resume: Optional[Event] = None
        self._drain_backlog: list[Task] = []
        self._parked: list[_ParkedTask] = []
        self._busy_workers = 0
        self._drain_started = 0.0
        #: Cumulative drain / board-reprogramming seconds (also exported
        #: as gauges for the scraper and the chaos downtime ledger).
        self.drain_seconds = 0.0
        self.reconfiguration_seconds = 0.0

        #: Per-operation and per-task accounting, kept as plain
        #: accumulators: the families below read them when collected.
        self._busy_seconds = 0.0
        self._client_busy_seconds: Dict[str, float] = {}
        self._op_counts: Dict[OpType, int] = {}
        self._tasks = 0
        #: Every counter and gauge is read from this manager's (or its
        #: board's) state at collection; only the histogram is pushed.
        metrics = self.metrics = MetricsRegistry(namespace="dm")
        metrics.counter(
            "busy_seconds_total",
            "Seconds the FPGA spent computing OpenCL calls",
            collect=lambda: (((), self._busy_seconds),),
        )
        metrics.counter(
            "client_busy_seconds_total", "Per-client FPGA busy seconds",
            labelnames=["client"],
            collect=lambda: [((client,), seconds) for client, seconds
                             in self._client_busy_seconds.items()],
        )
        metrics.counter(
            "ops_total", "Operations executed", labelnames=["type"],
            collect=lambda: [((op_type.value,), float(count))
                             for op_type, count in self._op_counts.items()],
        )
        metrics.counter("tasks_total", "Tasks executed",
                        collect=lambda: (((), float(self._tasks)),))
        metrics.gauge("connected_clients", "Currently connected clients",
                      collect=lambda: (((), float(len(self.sessions))),))
        metrics.gauge("task_queue_depth", "Tasks waiting in the central queue",
                      collect=lambda: (((), float(len(self.scheduler))),))
        self._task_latency = metrics.histogram(
            "task_latency_seconds", "Submit-to-finish task latency"
        )
        metrics.counter(
            "reconfigurations_total", "Board reconfigurations performed",
            collect=lambda: (((), float(board.reconfigurations
                                        + board.partial_reconfigurations)),),
        )
        metrics.gauge(
            "board_drain_seconds",
            "Cumulative seconds workers spent quiesced for live migration",
            collect=lambda: (((), self.drain_seconds),),
        )
        metrics.gauge(
            "board_reconfiguration_seconds",
            "Cumulative seconds the board spent being reprogrammed",
            collect=lambda: (((), self.reconfiguration_seconds),),
        )
        board.add_busy_listener(self._on_board_activity)

        self._serve_proc = env.process(self._serve())
        # One worker per PR slot (space-sharing boards execute one task per
        # slot concurrently); classic boards get the single FIFO worker.
        worker_count = workers if workers is not None else board.slot_count
        self._worker_count = max(1, worker_count)
        #: One worker on a one-slot board: nothing but the worker and the
        #: requests that split its step touch the link and the slot.
        self._solo = self._worker_count == 1 and board.slot_count == 1
        self._worker_procs = [
            env.process(self._worker()) for _ in range(self._worker_count)
        ]

    # ------------------------------------------------------------------ API
    @property
    def connected_clients(self) -> int:
        return len(self.sessions)

    @property
    def configured_bitstream(self) -> Optional[str]:
        return self.board.bitstream.name if self.board.bitstream else None

    def registry_command(self, epoch: int, command: str,
                         payload=None):
        """Serve an epoch-fenced control command from the Registry.

        Every Registry (re)start bumps a fencing epoch; commands carry it
        and this manager rejects any epoch older than the highest seen
        (:class:`StaleEpochError`) — a zombie pre-crash leader cannot
        mutate board-side state after a recovery or standby takeover.
        """
        if not self.alive:
            raise DeviceManagerError(
                f"device manager {self.name!r} is down",
                CL_DEVICE_NOT_AVAILABLE,
            )
        if epoch < self.registry_epoch:
            self.fenced_commands += 1
            raise StaleEpochError(
                f"stale registry epoch {epoch} < {self.registry_epoch} "
                f"at {self.name!r}"
            )
        self.registry_epoch = max(self.registry_epoch, epoch)
        if command == "report_state":
            # Ground truth for post-crash reconciliation: what this board
            # is actually running and who is actually connected.
            return {
                "manager": self.name,
                "epoch": self.registry_epoch,
                "alive": self.alive and self.board.alive,
                "bitstream": self.configured_bitstream,
                "clients": sorted(self.sessions),
            }
        if command == "sync_instances":
            self.synced_instances = sorted(payload or [])
            return {"manager": self.name, "synced":
                    len(self.synced_instances)}
        raise DeviceManagerError(f"unknown registry command {command!r}")

    def stop(self) -> None:
        """Shut the manager down (used in tests and migrations)."""
        self.board.split()
        self._idle = False
        for process in (self._serve_proc, *self._worker_procs):
            if process.is_alive:
                process.interrupt("device manager stopped")

    def _on_board_activity(self, seconds: float, activity: str) -> None:
        """Board busy listener: account reconfiguration downtime."""
        if activity == "reconfigure":
            self.reconfiguration_seconds += seconds

    # ------------------------------------------------------------------ drain
    #: Poll period while waiting for workers to reach an op boundary.  The
    #: poll (rather than event choreography) also closes the race where a
    #: scheduler get has already triggered but its worker has not resumed:
    #: that wakeup is scheduled before the first poll tick fires.
    DRAIN_POLL = 50e-6

    def drain(self):
        """Process: quiesce every worker at its next operation boundary.

        While draining, submits divert to ``_drain_backlog`` (the central
        queue stays frozen), workers park between operations — long tasks
        are preempted at op boundaries rather than run to completion — and
        the board goes quiet.  Returns once no worker is executing.
        Callers must pair this with :meth:`resume`.
        """
        if not self.migrating:
            self.migrating = True
            self._drain_resume = Event(self.env)
            self._drain_started = self.env.now
        while True:
            yield self.env.timeout(self.DRAIN_POLL)
            if self._busy_workers == 0:
                return

    def resume(self) -> None:
        """End a drain: requeue diverted submits and wake the workers."""
        if not self.migrating:
            return
        self.migrating = False
        self.migrating_clients.clear()
        self._migrating_transports.clear()
        self.drain_seconds += self.env.now - self._drain_started
        backlog, self._drain_backlog = self._drain_backlog, []
        for task in backlog:
            self._push(task)
        resume_event, self._drain_resume = self._drain_resume, None
        if resume_event is not None and not resume_event.triggered:
            resume_event.succeed()

    def steal_parked_ops(self, client: str) -> list:
        """Take the unexecuted operations parked workers hold for ``client``.

        Checkpoint capture for a task preempted mid-flight: the executed
        prefix stays accounted on the source, the suffix migrates.
        """
        stolen: list = []
        for parked in self._parked:
            if parked.task.client == client and not parked.stolen:
                stolen.extend(parked.task.operations[parked.index:])
                parked.stolen = True
        return stolen

    def take_client_tasks(self, client: str) -> list:
        """Pull every queued (and drain-diverted) task of ``client``."""
        tasks = list(self.scheduler.take_client(client))
        if self._drain_backlog:
            tasks += [t for t in self._drain_backlog if t.client == client]
            self._drain_backlog = [t for t in self._drain_backlog
                                   if t.client != client]
        return tasks

    @property
    def healthy(self) -> bool:
        return self.alive

    def crash(self) -> None:
        """Fail-stop the manager process.

        Sessions, queued tasks, pending write payloads and everything in
        flight to the server are lost, exactly as when a real manager
        process dies, and every client connection breaks.  The board itself
        keeps its bitstream.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.stop()
        connections = dict.fromkeys(
            [session.transport for session in self.sessions.values()]
            + list(self._migrating_transports.values()))
        self.sessions.clear()
        self._pending_writes.clear()
        self.accumulator = TaskAccumulator(self.env)
        self.scheduler.clear()
        # An in-progress drain dies with the process.
        self.migrating = False
        self.migrating_clients.clear()
        self._migrating_transports.clear()
        self._drain_backlog.clear()
        self._parked.clear()
        self._busy_workers = 0
        self._drain_resume = None
        # A dead server's socket drops whatever was in flight to it.
        self.endpoint.inbox.items.clear()
        for transport in connections:
            transport.break_connection(f"device manager {self.name} crashed")

    def restart(self) -> None:
        """Start a fresh manager process on the same board.

        Clients must reconnect: their old sessions died with the crash.
        """
        if self.alive:
            return
        self.alive = True
        self._serve_proc = self.env.process(self._serve())
        self._worker_procs = [
            self.env.process(self._worker())
            for _ in range(self._worker_count)
        ]

    def kill_worker(self, index: int = 0) -> None:
        """Kill one worker process (its current task dies with it)."""
        process = self._worker_procs[index]
        if process.is_alive:
            self.board.split()
            process.interrupt("worker killed")

    # ------------------------------------------------------------- dispatcher
    def _on_message(self, message: Message) -> None:
        """Endpoint handler: serve ``message`` in its arrival callback when
        the server is idle.

        A handler that waits (a unary reply) is finished by the serve
        process; messages arriving meanwhile queue behind it in the inbox.
        Otherwise the message takes the inbox.
        """
        inbox = self.endpoint.inbox
        if not self._idle:
            self._idle = False
            inbox.put_nowait(message)
            return
        self._idle = False
        serving = self._handle(message)
        if serving is not None:
            try:
                event = serving.send(None)
            except StopIteration:
                pass
            else:
                inbox.put_nowait(_continue(serving, event))
                return
        self._idle = True

    def _serve(self):
        """gRPC server loop: serve inbox messages one at a time, in order.

        The inbox also carries the rest of a handler started on arrival
        (a generator), which is finished before the next message.
        """
        inbox = self.endpoint.inbox
        try:
            while True:
                get = inbox.get()
                self._idle = not get.triggered
                item = yield get
                if type(item) is Message:
                    item = self._handle(item)
                if item is not None:
                    yield from item
        except Interrupt:
            return

    def _handle(self, message: Message):
        """Serve one message.  A streamed command-queue message is served
        at once and None returned; any other returns the process that
        serves it, for the caller to finish with ``yield from``."""
        if message.method not in protocol.STREAM_METHODS:
            return self._serve_message(message)
        try:
            self._METHODS[message.method](self, message)
        except (DeviceManagerError, BoardError):
            # A stray streamed message (e.g. from a session lost in a
            # crash) must not kill the server: drop it.
            self.rejected_messages += 1
        return None

    def _serve_message(self, message: Message):
        """Process: serve a message of a unary method."""
        # Capture the reply path up front: a handler may tear the session
        # down (DISCONNECT) before the reply goes out.
        reply_transport = None
        if message.reply_to is not None:
            session = self._session_of(message)
            reply_transport = (
                session.transport if session is not None
                else message.payload.get("transport")
            )
        if (self.migrating and message.reply_to is not None
                and message.sender in self.migrating_clients):
            # Racing submit from a client being checkpointed off this
            # board: reject it; the connection replays the call against
            # the rebound endpoint once the stream resumes (unary replies
            # are idempotent either way).
            transport = (reply_transport
                         or self._migrating_transports.get(message.sender))
            if transport is None:
                self.rejected_messages += 1
                return
            yield from reply_error(
                transport, message,
                DeviceManagerError(
                    f"client {message.sender!r} is live-migrating",
                    CL_DEVICE_MIGRATING,
                ),
            )
            return
        handler = self._METHODS.get(message.method)
        if handler is None:
            if message.reply_to is not None:
                yield from reply_error(
                    reply_transport, message,
                    DeviceManagerError(f"unknown method {message.method!r}"),
                )
            else:
                self.rejected_messages += 1
            return
        try:
            yield from handler(self, message)
        except Interrupt:
            raise
        except (DeviceManagerError, BoardError) as exc:
            # A bad request must not kill the server: answer it with a
            # structured error, or drop it if it cannot be answered.
            if (message.reply_to is not None
                    and reply_transport is not None
                    and not message.reply_to.triggered):
                yield from reply_error(
                    reply_transport, message,
                    RpcError(str(exc), code=_error_code(exc)),
                )
            else:
                self.rejected_messages += 1

    def _session_of(self, message: Message) -> Optional[ClientSession]:
        return self.sessions.get(message.sender)

    def _require_session(self, message: Message) -> ClientSession:
        try:
            return self.sessions[message.sender]
        except KeyError:
            # Typically a client whose session died with a manager crash:
            # it must reconnect before anything else.
            raise DeviceManagerError(f"unknown client {message.sender!r}",
                                     CL_DEVICE_NOT_AVAILABLE) from None

    # -- context and information methods (synchronous) -----------------------
    def _on_connect(self, message: Message):
        transport: Transport = message.payload["transport"]
        completion_queue: RpcEndpoint = message.payload["completion_queue"]
        self.adopt(ClientSession(message.sender, transport, completion_queue))
        yield from reply(transport, message, {"session": message.sender})

    def adopt(self, session: ClientSession) -> None:
        """Serve ``session`` until its client disconnects or its
        connection breaks."""
        if session.transport.broken is not None:
            return  # the client hung up before it was served
        self.sessions[session.name] = session
        session.transport.on_break.append(
            lambda _transport: self._close_session(session))

    def _close_session(self, session: ClientSession) -> None:
        """Tear a session down: free its buffers, drop its open work and
        release every worker waiting on its ``WRITE_DATA``."""
        if self.sessions.get(session.name) is not session:
            return  # already closed, captured or lost in a crash
        self.board.split()
        for buffer in session.buffers.values():
            if not buffer.freed:
                self.board.free(buffer)
        session.buffers.clear()
        self.accumulator.flush_client(session.name)
        session.connected = False
        del self.sessions[session.name]
        for tag, operation in list(self._pending_writes.items()):
            if operation.client == session.name:
                del self._pending_writes[tag]
                operation.data_ready.succeed()

    def _on_disconnect(self, message: Message):
        session = self._require_session(message)
        self._close_session(session)
        yield from reply(session.transport, message, {})

    def _on_platform_info(self, message: Message):
        session = self._require_session(message)
        yield from reply(session.transport, message, {
            "name": "BlastFunction Remote OpenCL",
            "vendor": "Politecnico di Milano (reproduction)",
            "version": "OpenCL 1.2",
        })

    def _on_device_info(self, message: Message):
        session = self._require_session(message)
        yield from reply(session.transport, message, {
            "name": f"{self.board.spec.name} ({self.board.spec.fpga})",
            "global_mem_size": self.board.spec.memory_bytes,
            "bitstream": self.configured_bitstream,
            "connected_clients": self.connected_clients,
            "node": self.node.name,
        })

    def _on_create_buffer(self, message: Message):
        session = self._require_session(message)
        size = int(message.payload["size"])
        try:
            buffer = self.board.allocate(size)
        except (OutOfMemoryError, ValueError) as exc:
            code = (CL_MEM_OBJECT_ALLOCATION_FAILURE
                    if isinstance(exc, OutOfMemoryError)
                    else CL_INVALID_BUFFER_SIZE)
            yield from reply_error(session.transport, message,
                                   RpcError(str(exc), code=code))
            return
        init_data = message.payload.get("data")
        if init_data is not None and self.board.functional:
            buffer.write(init_data)
        session.buffers[buffer.id] = buffer
        yield from reply(session.transport, message, {"buffer_id": buffer.id})

    def _on_release_buffer(self, message: Message):
        session = self._require_session(message)
        buffer_id = int(message.payload["buffer_id"])
        self.board.split()
        buffer = session.buffers.pop(buffer_id, None)
        if buffer is None:
            yield from reply_error(
                session.transport, message,
                DeviceManagerError(f"unknown buffer {buffer_id}",
                                   CL_INVALID_MEM_OBJECT),
            )
            return
        if not buffer.freed:
            self.board.free(buffer)
        yield from reply(session.transport, message, {})

    def _on_build_program(self, message: Message):
        """Reconfiguration: the one blocking context method (Section III-B)."""
        session = self._require_session(message)
        if self.migrating:
            # A reconfiguration cannot start while the board drains for a
            # live migration: defer it off the dispatcher (other clients
            # keep being served) and re-run it once the drain lifts.
            self.env.process(
                self._deferred_build(message, self._drain_resume)
            )
            return
        binary = message.payload["binary"]
        try:
            bitstream = self.library.get(binary)
        except KeyError as exc:
            yield from reply_error(session.transport, message,
                                   RpcError(str(exc), code=CL_INVALID_BINARY))
            return
        if any(slot is bitstream for slot in self.board.slots):
            # Some slot already runs this image.
            yield from reply(session.transport, message, {"binary": binary})
            return
        if self.board.slot_count > 1:
            # Space-sharing board: partial-reconfigure a free slot (or the
            # last slot as victim) without disturbing the others.
            free = [i for i, slot in enumerate(self.board.slots)
                    if slot is None]
            slot = free[0] if free else self.board.slot_count - 1
            yield from self.board.program_slot(slot, bitstream)
            yield from reply(session.transport, message, {
                "binary": binary, "slot": slot,
            })
            return
        validator = self.reconfiguration_validator
        if validator is not None and not validator(session.name, binary):
            yield from reply_error(
                session.transport, message,
                DeviceManagerError(
                    f"reconfiguration to {binary!r} denied by registry",
                    CL_BUILD_PROGRAM_FAILURE,
                ),
            )
            return
        # Blocks this dispatcher (and the board) for the full
        # reconfiguration time; device buffers are invalidated, but only
        # by a reprogram the board accepts: a locked-up board refuses it
        # and every buffer stays allocated, so no table may forget one.
        if self.board.alive:
            for other in self.sessions.values():
                other.buffers.clear()
        yield from self.board.program(bitstream)
        yield from reply(session.transport, message, {"binary": binary})

    def _deferred_build(self, message: Message, resume_event):
        """Process: run a BUILD_PROGRAM that arrived during a drain."""
        if resume_event is not None:
            yield resume_event
        try:
            yield from self._on_build_program(message)
        except (DeviceManagerError, BoardError) as exc:
            if message.reply_to is None or message.reply_to.triggered:
                self.rejected_messages += 1
                return
            session = self._session_of(message)
            transport = (session.transport if session is not None
                         else message.payload.get("transport"))
            if transport is None:
                self.rejected_messages += 1
                return
            yield from reply_error(
                transport, message,
                RpcError(str(exc), code=_error_code(exc)),
            )

    def _on_create_kernel(self, message: Message):
        session = self._require_session(message)
        binary = message.payload["binary"]
        kernel_name = message.payload["name"]
        try:
            bitstream = self.library.get(binary)
            kernel = bitstream.kernel(kernel_name)
        except KeyError as exc:
            yield from reply_error(
                session.transport, message,
                RpcError(str(exc), code=CL_INVALID_KERNEL_NAME))
            return
        kernel_id = session.new_kernel_id()
        session.kernels[kernel_id] = (binary, kernel_name)
        yield from reply(session.transport, message, {
            "kernel_id": kernel_id,
            "arg_count": len(kernel.args),
        })

    # -- command-queue methods (streamed) --------------------------------------
    def _on_enqueue(self, message: Message):
        session = self._require_session(message)
        fields = {**_ENQUEUE_DEFAULTS, **message.payload}
        operation = Operation(
            type=_OP_TYPES[message.method],
            client=session.name,
            queue_id=int(fields["queue"]),
            tag=message.tag,
            buffer_id=fields["buffer_id"],
            dst_buffer_id=fields["dst_buffer_id"],
            nbytes=int(fields["nbytes"]),
            offset=int(fields["offset"]),
            dst_offset=int(fields["dst_offset"]),
            kernel_id=fields["kernel_id"],
            kernel_args=fields["args"],
        )
        if operation.needs_data():
            operation.data_ready = Event(self.env)
            self._pending_writes[operation.tag] = operation
        self.accumulator.add(operation)
        if not self.batching:
            # Ablation baseline: submit each operation as its own task.
            task = self.accumulator.flush(session.name, operation.queue_id)
            self._submit(task)
        # FIRST step of the client's event state machine: op is enqueued.
        self._notify(session, protocol.OP_ENQUEUED, operation.tag)

    def _on_write_data(self, message: Message):
        operation = self._pending_writes.pop(message.tag, None)
        if operation is None:
            raise DeviceManagerError(
                f"write data for unknown tag {message.tag!r}"
            )
        operation.data = message.payload.get("data")
        assert operation.data_ready is not None
        operation.data_ready.settle()

    def _on_flush(self, message: Message):
        session = self._require_session(message)
        queue_id = int(message.payload.get("queue", 0))
        task = self.accumulator.flush(session.name, queue_id)
        self._submit(task)

    #: The handler of each protocol method: the streamed command-queue
    #: ones are plain functions, the unary ones generators (they reply).
    _METHODS = {
        protocol.CONNECT: _on_connect,
        protocol.DISCONNECT: _on_disconnect,
        protocol.GET_PLATFORM_INFO: _on_platform_info,
        protocol.GET_DEVICE_INFO: _on_device_info,
        protocol.CREATE_BUFFER: _on_create_buffer,
        protocol.RELEASE_BUFFER: _on_release_buffer,
        protocol.BUILD_PROGRAM: _on_build_program,
        protocol.CREATE_KERNEL: _on_create_kernel,
        protocol.ENQUEUE_WRITE: _on_enqueue,
        protocol.ENQUEUE_READ: _on_enqueue,
        protocol.ENQUEUE_COPY: _on_enqueue,
        protocol.ENQUEUE_KERNEL: _on_enqueue,
        protocol.ENQUEUE_MARKER: _on_enqueue,
        protocol.WRITE_DATA: _on_write_data,
        protocol.FLUSH: _on_flush,
    }

    def _submit(self, task: Optional[Task]) -> None:
        """Place a closed task on the central queue."""
        if task is None or task.empty:
            return
        task.submitted_at = self.env.now
        if self.migrating:
            # Drain in progress: hold new work out of the scheduler so the
            # board actually quiesces (and so a pending worker pop cannot
            # grab a task mid-drain).  Requeued by resume().
            self._drain_backlog.append(task)
            return
        self._push(task)

    def _push(self, task: Task) -> None:
        """Queue a task; only a policy that reads estimates gets one."""
        scheduler = self.scheduler
        scheduler.push(task, self._estimate_task(task)
                       if scheduler.uses_estimates else 0.0)

    def _estimate_task(self, task: Task) -> float:
        """Estimated device time of a task (for SJF/WFQ scheduling).

        Uses the same latency models the board executes with; falls back
        to a nominal value when a referenced resource is not resolvable
        yet (e.g. a buffer still being created).
        """
        session = self.sessions.get(task.client)
        total = 0.0
        for operation in task.operations:
            if operation.type in (OpType.WRITE, OpType.READ):
                total += self.board.link.spec.transfer_time(operation.nbytes)
            elif operation.type is OpType.COPY:
                total += operation.nbytes / self.board.DDR_COPY_BANDWIDTH
            elif operation.type is OpType.KERNEL and session is not None:
                try:
                    binary, kernel_name = session.kernels[
                        int(operation.kernel_id)
                    ]
                    kernel = self.library.get(binary).kernel(kernel_name)
                    resolved = []
                    for kind, value in operation.kernel_args or []:
                        if kind == protocol.ARG_BUFFER:
                            resolved.append(self._buffer(session, value))
                        else:
                            resolved.append(value)
                    total += kernel.duration(kernel.resolve_args(resolved))
                except Exception:  # noqa: BLE001 - estimation only
                    total += 1e-3
        return total

    # ----------------------------------------------------------------- worker
    def _worker(self):
        """Pull tasks from the central queue, execute them FIFO on the FPGA."""
        try:
            while True:
                if self.migrating:
                    # Drained: start no new task until the migration plane
                    # resumes this manager.
                    yield self._drain_resume
                    continue
                # Wait on the scheduler only when no task is queued.
                task = self.scheduler.pop_nowait()
                if task is None:
                    task = yield self.scheduler.pop()
                self._busy_workers += 1
                task.started_at = self.env.now
                stolen = False
                for index, operation in enumerate(task.operations):
                    if self.migrating:
                        # Preemption point: park at the operation boundary
                        # so a long task cannot pin the board through a
                        # drain.  The migration plane may steal the
                        # remaining operations while we sleep.
                        parked = _ParkedTask(task, index)
                        self._parked.append(parked)
                        self._busy_workers -= 1
                        yield self._drain_resume
                        self._parked.remove(parked)
                        self._busy_workers += 1
                        if parked.stolen:
                            stolen = True
                            break
                    ok = yield from self._run_operation(operation)
                    if not ok:
                        # Tasks are atomic: once an operation fails, the
                        # remainder would run against inconsistent state —
                        # abort the rest and notify each waiter.
                        self._abort_remaining(task.operations[index + 1:])
                        break
                self._busy_workers -= 1
                if stolen:
                    continue  # the rest of the task migrated away
                task.finished_at = self.env.now
                self._tasks += 1
                if task.submitted_at is not None:
                    self._task_latency.observe(
                        task.finished_at - task.submitted_at
                    )
                for listener in self.task_listeners:
                    listener(task)
        except Interrupt:
            return

    def _abort_remaining(self, operations) -> None:
        """Fail every not-yet-run operation of an aborted task."""
        for operation in operations:
            session = self.sessions.get(operation.client)
            if session is None:
                continue
            self._notify(session, protocol.OP_FAILED, operation.tag, {
                "error": "task aborted after an earlier operation failed",
                "code": CL_INVALID_OPERATION,
            })

    def _run_operation(self, operation: Operation):
        """Process: execute one op; returns True on success."""
        sessions = self.sessions
        if operation.client not in sessions:
            return False  # client disconnected while the task was queued
        session = sessions[operation.client]
        if operation.needs_data() and operation.data_ready is not None:
            if not operation.data_ready.triggered:
                yield operation.data_ready
                if sessions.get(operation.client) is not session:
                    return False  # the session closed before the payload
        if (self._solo and operation.type is not OpType.MARKER
                and not self.migrating and self.board.idle):
            # The worker alone uses the board: issue the board step now,
            # to start once the overhead has passed (one event, not two).
            lead = self.OP_OVERHEAD
        else:
            lead = 0.0
            yield self.env.timeout(self.OP_OVERHEAD)
        while True:
            started = self.env.now + lead
            failure = None
            try:
                result = yield from self._execute(session, operation, lead)
            except StepSplit:
                # Split before it started (only a step issued ahead can
                # be): the chain resumes here, at the step's start.
                lead = 0.0
                continue
            except Interrupt:
                raise  # manager crash/worker kill, not an operation failure
            except Exception as exc:  # noqa: BLE001 - to a notification
                if self.env.now < started:
                    # Invalid when issued: the chain validates it again
                    # at its start, after whatever lands in between.
                    yield self.env.timeout(lead)
                    lead = 0.0
                    continue
                failure = exc
            break
        operation.started_at = started
        if failure is not None:
            self._notify(session, protocol.OP_FAILED, operation.tag,
                         {"error": str(failure),
                          "code": _error_code(failure)})
            return False
        now = operation.finished_at = self.env.now
        busy = now - started
        self._busy_seconds += busy
        client, client_busy = operation.client, self._client_busy_seconds
        if client in client_busy:
            client_busy[client] += busy
        else:
            client_busy[client] = busy
        op_type, op_counts = operation.type, self._op_counts
        op_counts[op_type] = (op_counts[op_type] + 1 if op_type in op_counts
                              else 1)
        for listener in self.op_listeners:
            listener(operation)
        if operation.type is OpType.READ:
            # COMPLETE step carries the data: OP_COMPLETE arrives after the
            # data-plane transfer back to the client.  The worker proceeds
            # to the next operation before the client observes it, so the
            # live device view must be snapshotted *now* — the remote read
            # path's single real copy (timing-only zero-page views pass
            # through uncopied).
            self._notify(session, protocol.OP_COMPLETE, operation.tag,
                         {"data": materialize(result)}, operation.nbytes)
        else:
            self._notify(session, protocol.OP_COMPLETE, operation.tag)
        return True

    def _notify(self, session: ClientSession, method: str, tag: Any,
                payload: Optional[dict] = None,
                nbytes: Optional[int] = None) -> None:
        """Asynchronously push a notification (and its payload)."""
        message = Message(method=method, payload=payload or {},
                          sender=self.name, tag=tag,
                          id=self.env.new_id("message"))
        session.transport.deliver_to_client(session.completion_queue,
                                            message, nbytes)

    def _execute(self, session: ClientSession, operation: Operation,
                 lead: float = 0.0):
        """The board step of one operation, ``lead`` seconds from now (see
        :meth:`FPGABoard.dma_write`), for the caller to ``yield from``:
        its references are resolved here, the step itself is not started.
        """
        if operation.type is OpType.MARKER:
            return ()
        if operation.type is OpType.WRITE:
            buffer = self._buffer(session, operation.buffer_id)
            return self.board.dma_write(
                buffer, operation.nbytes, operation.data, operation.offset,
                lead,
            )
        if operation.type is OpType.READ:
            buffer = self._buffer(session, operation.buffer_id)
            return self.board.dma_read(
                buffer, operation.nbytes, operation.offset, lead
            )
        if operation.type is OpType.COPY:
            src = self._buffer(session, operation.buffer_id)
            dst = self._buffer(session, operation.dst_buffer_id)
            return self.board.copy_on_device(
                src, dst, operation.nbytes, operation.offset,
                operation.dst_offset, lead,
            )
        if operation.type is OpType.KERNEL:
            binary, kernel_name = self._kernel(session, operation.kernel_id)
            live = [slot.name for slot in self.board.slots
                    if slot is not None]
            if binary not in live:
                raise DeviceManagerError(
                    f"kernel {kernel_name!r} needs bitstream {binary!r}, "
                    f"board has {live or [self.configured_bitstream]!r}"
                )
            resolved = []
            for kind, value in operation.kernel_args or []:
                if kind == protocol.ARG_BUFFER:
                    resolved.append(self._buffer(session, value))
                else:
                    resolved.append(value)
            return self.board.execute(kernel_name, resolved, lead)
        raise DeviceManagerError(f"unsupported operation {operation.type}")

    def _buffer(self, session: ClientSession, buffer_id) -> DeviceBuffer:
        try:
            return session.buffers[int(buffer_id)]
        except (KeyError, TypeError) as exc:
            raise DeviceManagerError(
                f"client {session.name!r} has no buffer {buffer_id!r}",
                CL_INVALID_MEM_OBJECT,
            ) from exc

    def _kernel(self, session: ClientSession, kernel_id):
        try:
            return session.kernels[int(kernel_id)]
        except (KeyError, TypeError) as exc:
            raise DeviceManagerError(
                f"client {session.name!r} has no kernel {kernel_id!r}",
                CL_INVALID_KERNEL_NAME,
            ) from exc
