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

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from ...fpga.bitstream import Bitstream, BitstreamLibrary
from ...fpga.board import (
    BoardError,
    BoardUnavailableError,
    FPGABoard,
    KernelFault,
    ReconfigurationError,
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
    send_to_client,
)
from ...sim import AnyOf, Environment, Event, Interrupt
from . import protocol
from .schedulers import TaskScheduler, make_scheduler
from .tasks import Operation, OpType, Task, TaskAccumulator


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
        data_timeout: Optional[float] = None,
    ):
        self.env = env
        self.name = name
        self.board = board
        self.library = library
        self.network = network
        self.node = node
        self.endpoint = RpcEndpoint(env, name)
        self.sessions: Dict[str, ClientSession] = {}
        self.accumulator = TaskAccumulator()
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
        #: How long a worker waits for a lost WRITE_DATA payload before
        #: failing the op (``None`` = forever, the pre-fault behavior).
        self.data_timeout = data_timeout
        #: False after :meth:`crash` until :meth:`restart`.
        self.alive = True
        self.crashes = 0
        #: Streamed messages dropped because no handler could serve them
        #: (unknown client after a restart, unknown write tag, ...).
        self.rejected_messages = 0
        #: Recent unary replies keyed by (client, request id): an at-least-
        #: once retry of an already-executed request replays its reply
        #: instead of re-executing — what makes client retries idempotent.
        self._replies: "OrderedDict[tuple, tuple]" = OrderedDict()

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

        self.metrics = MetricsRegistry(namespace="dm")
        self._m_busy = self.metrics.counter(
            "busy_seconds_total",
            "Seconds the FPGA spent computing OpenCL calls",
        )
        self._m_client_busy = self.metrics.counter(
            "client_busy_seconds_total",
            "Per-client FPGA busy seconds",
            labelnames=["client"],
        )
        self._m_ops = self.metrics.counter(
            "ops_total", "Operations executed", labelnames=["type"]
        )
        self._m_tasks = self.metrics.counter("tasks_total", "Tasks executed")
        self._m_clients = self.metrics.gauge(
            "connected_clients", "Currently connected clients"
        )
        self._m_queue_depth = self.metrics.gauge(
            "task_queue_depth", "Tasks waiting in the central queue"
        )
        self._m_task_latency = self.metrics.histogram(
            "task_latency_seconds", "Submit-to-finish task latency"
        )
        self._m_reconfigurations = self.metrics.counter(
            "reconfigurations_total", "Board reconfigurations performed"
        )
        self._m_drain_seconds = self.metrics.gauge(
            "board_drain_seconds",
            "Cumulative seconds workers spent quiesced for live migration",
        )
        self._m_reconf_seconds = self.metrics.gauge(
            "board_reconfiguration_seconds",
            "Cumulative seconds the board spent being reprogrammed",
        )
        board.add_busy_listener(self._on_board_activity)

        self._serve_proc = env.process(self._serve())
        # One worker per PR slot (space-sharing boards execute one task per
        # slot concurrently); classic boards get the single FIFO worker.
        worker_count = workers if workers is not None else board.slot_count
        self._worker_count = max(1, worker_count)
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
        for process in (self._serve_proc, *self._worker_procs):
            if process.is_alive:
                process.interrupt("device manager stopped")

    def _on_board_activity(self, seconds: float, activity: str) -> None:
        """Board busy listener: account reconfiguration downtime."""
        if activity == "reconfigure":
            self.reconfiguration_seconds += seconds
            self._m_reconf_seconds.set(self.reconfiguration_seconds)

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
        self._m_drain_seconds.set(self.drain_seconds)
        backlog, self._drain_backlog = self._drain_backlog, []
        for task in backlog:
            self.scheduler.push(task, self._estimate_task(task))
        self._m_queue_depth.set(len(self.scheduler))
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
        self._m_queue_depth.set(len(self.scheduler))
        return tasks

    @property
    def healthy(self) -> bool:
        return self.alive

    def crash(self) -> None:
        """Fail-stop the manager process.

        Sessions, queued tasks, pending write payloads, cached replies and
        everything in flight to the server are lost, exactly as when a
        real manager process dies.  The board itself keeps its bitstream.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.stop()
        self.sessions.clear()
        self._m_clients.set(0)
        self._pending_writes.clear()
        self._replies.clear()
        self.accumulator = TaskAccumulator()
        self.scheduler.clear()
        self._m_queue_depth.set(0)
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
            process.interrupt("worker killed")

    # ------------------------------------------------------------- dispatcher
    #: Unary replies remembered for retry deduplication.
    REPLY_CACHE_SIZE = 512

    def _serve(self):
        """gRPC server loop: dispatch inbox messages by method group."""
        try:
            while True:
                message: Message = yield self.endpoint.inbox.get()
                # Capture the reply path up front: a handler may tear the
                # session down (DISCONNECT) before the reply goes out.
                reply_transport = None
                key = None
                if message.reply_to is not None:
                    session = self._session_of(message)
                    reply_transport = (
                        session.transport if session is not None
                        else message.payload.get("transport")
                    )
                    key = (message.sender, message.id)
                    cached = self._replies.get(key)
                    if cached is not None:
                        # At-least-once retry of an executed request:
                        # replay the reply, never re-execute.
                        self.env.process(self._replay_reply(message, cached))
                        continue
                if (self.migrating and message.reply_to is not None
                        and message.sender in self.migrating_clients):
                    # Racing submit from a client being checkpointed off
                    # this board: reject it; the connection replays the
                    # call against the rebound endpoint once the stream
                    # resumes (unary replies are idempotent either way).
                    transport = (reply_transport
                                 or self._migrating_transports.get(
                                     message.sender))
                    if transport is None:
                        self.rejected_messages += 1
                        continue
                    yield from reply_error(
                        transport, message,
                        DeviceManagerError(
                            f"client {message.sender!r} is live-migrating",
                            CL_DEVICE_MIGRATING,
                        ),
                    )
                    continue
                handler = self._handlers().get(message.method)
                if handler is None:
                    if message.reply_to is not None:
                        yield from reply_error(
                            reply_transport, message,
                            DeviceManagerError(
                                f"unknown method {message.method!r}"
                            ),
                        )
                    else:
                        self.rejected_messages += 1
                    continue
                try:
                    yield from handler(message)
                except Interrupt:
                    raise
                except (DeviceManagerError, BoardError) as exc:
                    # A bad request must not kill the server: answer unary
                    # calls with a structured error, drop stray streamed
                    # messages (e.g. from sessions lost in a crash).
                    if (message.reply_to is not None
                            and reply_transport is not None
                            and not message.reply_to.triggered):
                        yield from reply_error(
                            reply_transport, message,
                            RpcError(str(exc), code=_error_code(exc)),
                        )
                    else:
                        self.rejected_messages += 1
                if key is not None and message.reply_to.triggered:
                    self._cache_reply(key, reply_transport, message.reply_to)
        except Interrupt:
            return

    def _cache_reply(self, key, transport, reply_event) -> None:
        self._replies[key] = (transport, reply_event.ok, reply_event.value)
        if len(self._replies) > self.REPLY_CACHE_SIZE:
            self._replies.popitem(last=False)

    def _replay_reply(self, message: Message, cached):
        """Process: answer a duplicate request from the reply cache."""
        transport, ok, value = cached
        yield from transport.control_to_client()
        if message.reply_to.triggered:
            return  # a duplicated delivery of an already-answered message
        if ok:
            message.reply_to.succeed(value)
        else:
            message.reply_to.fail(value)

    def _handlers(self):
        return {
            protocol.CONNECT: self._on_connect,
            protocol.DISCONNECT: self._on_disconnect,
            protocol.GET_PLATFORM_INFO: self._on_platform_info,
            protocol.GET_DEVICE_INFO: self._on_device_info,
            protocol.CREATE_BUFFER: self._on_create_buffer,
            protocol.RELEASE_BUFFER: self._on_release_buffer,
            protocol.BUILD_PROGRAM: self._on_build_program,
            protocol.CREATE_KERNEL: self._on_create_kernel,
            protocol.ENQUEUE_WRITE: self._on_enqueue,
            protocol.ENQUEUE_READ: self._on_enqueue,
            protocol.ENQUEUE_COPY: self._on_enqueue,
            protocol.ENQUEUE_KERNEL: self._on_enqueue,
            protocol.ENQUEUE_MARKER: self._on_enqueue,
            protocol.WRITE_DATA: self._on_write_data,
            protocol.FLUSH: self._on_flush,
        }

    def _session_of(self, message: Message) -> Optional[ClientSession]:
        return self.sessions.get(message.sender)

    def _require_session(self, message: Message) -> ClientSession:
        session = self.sessions.get(message.sender)
        if session is None:
            # Typically a client whose session died with a manager crash:
            # it must reconnect before anything else.
            raise DeviceManagerError(f"unknown client {message.sender!r}",
                                     CL_DEVICE_NOT_AVAILABLE)
        return session

    # -- context and information methods (synchronous) -----------------------
    def _on_connect(self, message: Message):
        transport: Transport = message.payload["transport"]
        completion_queue: RpcEndpoint = message.payload["completion_queue"]
        session = ClientSession(message.sender, transport, completion_queue)
        self.sessions[message.sender] = session
        self._m_clients.set(len(self.sessions))
        yield from reply(transport, message, {"session": message.sender})

    def _on_disconnect(self, message: Message):
        session = self._require_session(message)
        for buffer in session.buffers.values():
            if not buffer.freed:
                self.board.free(buffer)
        session.buffers.clear()
        self.accumulator.flush_client(session.name)
        session.connected = False
        del self.sessions[session.name]
        self._m_clients.set(len(self.sessions))
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
            self._m_reconfigurations.inc()
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
        # reconfiguration time; device buffers are invalidated.
        for other in self.sessions.values():
            other.buffers.clear()
        yield from self.board.program(bitstream)
        self._m_reconfigurations.inc()
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
        payload = message.payload
        op_type = {
            protocol.ENQUEUE_WRITE: OpType.WRITE,
            protocol.ENQUEUE_READ: OpType.READ,
            protocol.ENQUEUE_COPY: OpType.COPY,
            protocol.ENQUEUE_KERNEL: OpType.KERNEL,
            protocol.ENQUEUE_MARKER: OpType.MARKER,
        }[message.method]
        operation = Operation(
            type=op_type,
            client=session.name,
            queue_id=int(payload.get("queue", 0)),
            tag=message.tag,
            buffer_id=payload.get("buffer_id"),
            dst_buffer_id=payload.get("dst_buffer_id"),
            nbytes=int(payload.get("nbytes", 0)),
            offset=int(payload.get("offset", 0)),
            dst_offset=int(payload.get("dst_offset", 0)),
            kernel_id=payload.get("kernel_id"),
            kernel_args=payload.get("args"),
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
        self._notify(session, Message(method=protocol.OP_ENQUEUED,
                                      tag=operation.tag, sender=self.name))
        return
        yield  # pragma: no cover - marks this handler as a generator

    def _on_write_data(self, message: Message):
        operation = self._pending_writes.pop(message.tag, None)
        if operation is None:
            raise DeviceManagerError(
                f"write data for unknown tag {message.tag!r}"
            )
        operation.data = message.payload.get("data")
        assert operation.data_ready is not None
        operation.data_ready.succeed()
        return
        yield  # pragma: no cover - marks this handler as a generator

    def _on_flush(self, message: Message):
        session = self._require_session(message)
        queue_id = int(message.payload.get("queue", 0))
        task = self.accumulator.flush(session.name, queue_id)
        self._submit(task)
        return
        yield  # pragma: no cover - marks this handler as a generator

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
        self.scheduler.push(task, self._estimate_task(task))
        self._m_queue_depth.set(len(self.scheduler))

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
                task: Task = yield self.scheduler.pop()
                self._m_queue_depth.set(len(self.scheduler))
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
                self._m_tasks.inc()
                if task.submitted_at is not None:
                    self._m_task_latency.observe(
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
            self._notify(session, Message(
                method=protocol.OP_FAILED, tag=operation.tag,
                payload={"error": "task aborted after an earlier operation "
                                  "failed",
                         "code": CL_INVALID_OPERATION},
                sender=self.name,
            ))

    def _run_operation(self, operation: Operation):
        """Process: execute one op; returns True on success."""
        session = self.sessions.get(operation.client)
        if session is None:
            return False  # client disconnected while the task was queued
        if operation.needs_data() and operation.data_ready is not None:
            if not operation.data_ready.triggered:
                if self.data_timeout is None:
                    yield operation.data_ready
                else:
                    expiry = self.env.timeout(self.data_timeout)
                    yield AnyOf(self.env, [operation.data_ready, expiry])
                    if not operation.data_ready.triggered:
                        # The WRITE_DATA payload was lost on the wire: fail
                        # the op instead of wedging this worker forever.
                        self._pending_writes.pop(operation.tag, None)
                        self._notify(session, Message(
                            method=protocol.OP_FAILED, tag=operation.tag,
                            payload={"error": "write payload never arrived",
                                     "code": CL_INVALID_OPERATION},
                            sender=self.name,
                        ))
                        return False
        yield self.env.timeout(self.OP_OVERHEAD)
        started = self.env.now
        operation.started_at = started
        try:
            result = yield from self._execute(session, operation)
        except Interrupt:
            raise  # manager crash/worker kill, not an operation failure
        except Exception as exc:  # noqa: BLE001 - converted to notification
            self._notify(session, Message(
                method=protocol.OP_FAILED, tag=operation.tag,
                payload={"error": str(exc), "code": _error_code(exc)},
                sender=self.name,
            ))
            return False
        operation.finished_at = self.env.now
        busy = self.env.now - started
        self._m_busy.inc(busy)
        self._m_client_busy.labels(operation.client).inc(busy)
        self._m_ops.labels(operation.type.value).inc()
        for listener in self.op_listeners:
            listener(operation)
        if operation.type is OpType.READ:
            # COMPLETE step carries the data: pay the data-plane transfer
            # back to the client, then notify.  The worker proceeds to the
            # next operation before the client observes OP_COMPLETE, so the
            # live device view must be snapshotted *now* — the remote read
            # path's single real copy (timing-only zero-page views pass
            # through uncopied).
            data = materialize(result)
            session.transport.data_to_client_then(
                operation.nbytes,
                lambda: self._notify(session, Message(
                    method=protocol.OP_COMPLETE, tag=operation.tag,
                    payload={"data": data}, sender=self.name,
                )),
            )
        else:
            self._notify(session, Message(
                method=protocol.OP_COMPLETE, tag=operation.tag,
                sender=self.name,
            ))
        return True

    def _notify(self, session: ClientSession, message: Message) -> None:
        """Asynchronously push a notification to the client."""
        send_to_client(session.transport, session.completion_queue, message)

    def _execute(self, session: ClientSession, operation: Operation):
        """Process: perform one operation on the board."""
        if operation.type is OpType.MARKER:
            return None
        if operation.type is OpType.WRITE:
            buffer = self._buffer(session, operation.buffer_id)
            yield from self.board.dma_write(
                buffer, operation.nbytes, operation.data, operation.offset
            )
            return None
        if operation.type is OpType.READ:
            buffer = self._buffer(session, operation.buffer_id)
            data = yield from self.board.dma_read(
                buffer, operation.nbytes, operation.offset
            )
            return data
        if operation.type is OpType.COPY:
            src = self._buffer(session, operation.buffer_id)
            dst = self._buffer(session, operation.dst_buffer_id)
            yield from self.board.copy_on_device(
                src, dst, operation.nbytes, operation.offset,
                operation.dst_offset,
            )
            return None
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
            yield from self.board.execute(kernel_name, resolved)
            return None
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
