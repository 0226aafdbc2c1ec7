"""Client↔Device-Manager connection: stream and completion queue.

Mirrors Figure 2 of the paper:

* an ordered **outbound stream** carries command-queue calls (and write
  payloads) to the manager — the sender process pays the transport costs,
  so per-call control latency and data-plane copies land on the simulated
  clock exactly once, in order;
* a **completion queue** receives the manager's asynchronous notifications
  and plays the paper's connection thread: on arrival it retrieves the
  event state machine by tag and advances it, synchronously.

The transport underneath delivers every message once and in order, or
breaks; a break fails every operation in flight at once.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...faults import RetryPolicy
from ...ocl.errors import CL_DEVICE_MIGRATING, CL_DEVICE_NOT_AVAILABLE
from ...rpc import (
    Message,
    Network,
    NetworkHost,
    RpcEndpoint,
    RpcError,
    Transport,
    make_transport,
    unary_call,
)
from ...sim import Environment, Event, Interrupt, Store
from ..device_manager import protocol
from .events import RemoteEventMachine


#: One outbound stream element is a tuple ``(message, data_nbytes, gates,
#: finalize)``: the message; the bytes of the bulk payload it announces;
#: events to wait for before transmitting it (e.g. buffer handles still
#: being created server-side, or cross-queue wait lists); and ``None`` or
#: a late payload binding, called just before transmission so remote ids
#: resolved by the gates can be filled in.


class Connection:
    """One client's connection to one Device Manager."""

    def __init__(
        self,
        env: Environment,
        client_name: str,
        network: Network,
        client_host: NetworkHost,
        manager_endpoint: RpcEndpoint,
        manager_host: NetworkHost,
        prefer_shm: bool = True,
        recovery: Optional[RetryPolicy] = None,
    ):
        self.env = env
        self.client_name = client_name
        #: ``None`` (default) = no op guards.  A :class:`RetryPolicy` arms a
        #: per-op deadline that resolves stuck event machines to an error.
        self.recovery = recovery
        #: Unary calls replayed after a ``CL_DEVICE_MIGRATING`` refusal.
        self.retries = 0
        self.network = network
        self.client_host = client_host
        self._prefer_shm = prefer_shm
        self.manager_endpoint = manager_endpoint
        self.transport: Transport = self._open(manager_host, prefer_shm)
        self.completion_queue = RpcEndpoint(
            env, f"{client_name}/completions", handler=self._on_completion
        )
        self._machines: Dict[Any, RemoteEventMachine] = {}
        self._outbound: Store = Store(env)
        self._sender_proc = env.process(self._sender())
        self.connected = False
        # -- live-migration stream state (see docs/live_migration.md) -------
        #: While True the sender holds items untransmitted; queued and
        #: in-hand items flow to the (possibly rebound) endpoint on resume.
        self._paused = False
        self._stream_resume: Optional[Event] = None
        self._sender_busy = False
        #: Endpoint rebinds performed on this connection (observability).
        self.rebinds = 0

    # -- lifecycle -----------------------------------------------------------
    def connect(self):
        """Process: register this client with the Device Manager."""
        try:
            yield from self.call(protocol.CONNECT, {
                "transport": self.transport,
                "completion_queue": self.completion_queue,
            })
        except BaseException:
            # Given up (moved while waiting on a crashed manager, say):
            # hang up, so the manager opens no session nobody uses.
            self.transport.break_connection("connect abandoned")
            raise
        self.connected = True
        return self

    def disconnect(self):
        """Process: tear down the session server-side and stop workers."""
        if self.connected:
            yield from self.call(protocol.DISCONNECT, {})
            self.connected = False
        self.close()

    def close(self) -> None:
        if self._sender_proc.is_alive:
            self._sender_proc.interrupt("connection closed")
        # Later notifications queue unread in the inbox, so any machine
        # still in flight can never hear back: resolve it to a structured
        # error, not a hang.
        self.completion_queue.handler = None
        self._fail_all("connection closed with operation in flight")
        # Hang up: the manager closes the session (and frees its buffers)
        # when its connection breaks.
        self.transport.break_connection("connection closed")

    def _open(self, manager_host: NetworkHost, prefer_shm: bool) -> Transport:
        transport = make_transport(self.env, self.network, self.client_host,
                                   manager_host, prefer_shm=prefer_shm)
        transport.on_break.append(self._on_break)
        return transport

    def _on_break(self, transport: Transport) -> None:
        """The connection broke: fail every operation in flight at once."""
        if transport is self.transport:
            self._fail_all(f"connection broken: {transport.broken}")

    def _fail_all(self, error: str) -> None:
        for tag in list(self._machines):
            self._fail_machine(tag, error, code=CL_DEVICE_NOT_AVAILABLE)
        self._machines.clear()

    # -- live migration -------------------------------------------------------
    #: Poll period while waiting for the sender to finish its in-flight item.
    PAUSE_POLL = 100e-6

    def pause_stream(self):
        """Process: quiesce the outbound stream at an item boundary.

        Sets the pause flag (the sender parks *before* transmitting its
        next item, so nothing is torn mid-message) and waits until any
        item currently on the wire has finished sending.  The paused items
        stay queued client-side and transmit after :meth:`resume_stream` —
        against the rebound endpoint if :meth:`rebind` ran in between.
        """
        if not self._paused:
            self._paused = True
            self._stream_resume = Event(self.env)
        while True:
            yield self.env.timeout(self.PAUSE_POLL)
            if not self._sender_busy:
                return

    def resume_stream(self) -> None:
        """Release a paused stream; held items transmit immediately."""
        self._paused = False
        event, self._stream_resume = self._stream_resume, None
        if event is not None and not event.triggered:
            event.succeed()

    def rebind(self, manager_endpoint: RpcEndpoint,
               manager_host: NetworkHost,
               prefer_shm: Optional[bool] = None) -> Transport:
        """Point this connection at a new Device Manager (live migration).

        Must be called with the stream paused.  Every queued item, every
        later unary call and every outstanding event machine's traffic
        flows over a fresh transport to the new endpoint; the completion
        queue routes completions by tag, so machines restored server-side
        resolve on the new manager without the client observing an error.
        """
        if prefer_shm is None:
            prefer_shm = self._prefer_shm
        self.manager_endpoint = manager_endpoint
        self.transport = self._open(manager_host, prefer_shm)
        self.rebinds += 1
        return self.transport

    # -- unary (context and information) calls ----------------------------------
    def call(self, method: str, payload: dict):
        """Process: synchronous unary call to the manager.

        An error reply is a definitive answer, and so is a broken
        connection — except ``CL_DEVICE_MIGRATING``, which means the
        manager refused to execute at all: the call replays once the
        migration settles, reaching the rebound endpoint.
        """
        while True:
            try:
                result = yield from unary_call(
                    self.transport, self.manager_endpoint, method, payload,
                    sender=self.client_name,
                )
                return result
            except RpcError as exc:
                if getattr(exc, "code", None) != CL_DEVICE_MIGRATING:
                    raise
                self.retries += 1
                yield from self._await_migration()

    def _await_migration(self):
        """Process: wait until this connection's live migration settles."""
        while True:
            if self._paused and self._stream_resume is not None:
                yield self._stream_resume
            else:
                # Rejected before the migrator paused this connection:
                # back off until the pause/resume cycle happens (or the
                # server stops rejecting us).
                yield self.env.timeout(10 * self.PAUSE_POLL)
            if not self._paused:
                return

    def call_async(self, method: str, payload: dict) -> Event:
        """Issue a unary call in the background; returns an event with the
        result (used for eager resource creation, see the remote driver)."""
        done = Event(self.env)

        def runner():
            try:
                result = yield from self.call(method, payload)
            except Exception as exc:  # noqa: BLE001 - forwarded to waiter
                done.fail(exc)
                done.defused = True
            else:
                done.settle(result)

        self.env.process(runner())
        return done

    # -- streamed command-queue calls ---------------------------------------
    def register_machine(self, machine: RemoteEventMachine) -> None:
        self._machines[machine.tag] = machine
        policy = self.recovery
        if policy is not None and policy.op_deadline is not None:
            self.env.process(self._op_guard(machine.tag, policy.op_deadline))

    def _op_guard(self, tag: Any, deadline: float):
        """Process: resolve an op stuck past its deadline to an error.

        The guard simply wakes at the deadline; if the machine already
        reached COMPLETE/FAILED it was forgotten and this is a no-op, so
        no cancellation bookkeeping is needed.
        """
        yield self.env.timeout(deadline)
        if tag in self._machines:
            self._fail_machine(
                tag, f"operation deadline of {deadline}s exceeded",
                code=CL_DEVICE_NOT_AVAILABLE,
            )

    def forget(self, tag: Any) -> None:
        self._machines.pop(tag, None)

    @property
    def inflight(self) -> int:
        return len(self._machines)

    def stream_send(self, method: str, payload: dict, tag: Any = None) -> None:
        """Queue a control message on the ordered outbound stream."""
        message = Message(method=method, payload=payload,
                          sender=self.client_name, tag=tag,
                          id=self.env.new_id("message"))
        self._outbound.hand_over((message, 0, (), None))

    def stream_send_op(self, method: str, finalize, tag: Any,
                       gates: list) -> None:
        """Queue a command-queue call whose payload resolves at send time.

        ``finalize`` is called once all ``gates`` have triggered; if a gate
        fails (e.g. the referenced buffer could not be allocated) the call's
        event state machine is failed locally instead of transmitting.
        """
        message = Message(method=method, payload={},
                          sender=self.client_name, tag=tag,
                          id=self.env.new_id("message"))
        self._outbound.hand_over((message, 0, tuple(gates), finalize))

    def stream_write_data(self, tag: Any, data: Any,
                          nbytes: int) -> None:
        """Queue a bulk write payload (the BUFFER step) on the stream.

        ``data`` is any bytes-like object (bytes, memoryview, numpy array)
        or ``None`` in timing-only mode; it rides the stream uncopied and
        is written into device DDR by the manager — the write path's
        single real copy.
        """
        message = Message(method=protocol.WRITE_DATA,
                          payload={"data": data},
                          sender=self.client_name, tag=tag,
                          id=self.env.new_id("message"))
        self._outbound.hand_over((message, nbytes, (), None))

    # -- worker processes -----------------------------------------------------
    def _sender(self):
        """Transmit stream items in order, paying transport costs.

        A queued item is taken without an event; on an empty stream the
        sender waits on a get, which ``hand_over`` settles.
        """
        outbound = self._outbound
        try:
            while True:
                if outbound.items:
                    item = outbound.items.pop(0)
                else:
                    item = yield outbound.get()
                message, data_nbytes, gates, finalize = item
                if gates and not (yield from self._resolve_gates(
                        message, gates)):
                    continue
                while self._paused:
                    # Live migration: hold the item untransmitted; on
                    # resume it goes to whatever endpoint/transport the
                    # connection is bound to by then.
                    yield self._stream_resume
                if self.transport.broken is not None:
                    self._fail_machine(
                        message.tag,
                        f"connection broken: {self.transport.broken}",
                        code=CL_DEVICE_NOT_AVAILABLE)
                    continue
                self._sender_busy = True
                try:
                    if finalize is not None:
                        try:
                            message.payload = finalize()
                        except Exception as exc:  # noqa: BLE001
                            self._fail_machine(message.tag, str(exc))
                            continue
                    # Bulk payloads ride the data plane; a slim control
                    # message still announces them.
                    yield from self.transport.deliver_to_server(
                        self.manager_endpoint, message,
                        data_nbytes or None)
                finally:
                    self._sender_busy = False
        except Interrupt:
            return

    def _resolve_gates(self, message: Message, gates: tuple):
        """Process: wait for the gates of ``message``; False if any gate
        failed."""
        for gate in gates:
            if gate.triggered and gate.ok:
                continue
            try:
                yield gate
            except Exception as exc:  # noqa: BLE001 - routed to the machine
                self._fail_machine(message.tag, str(exc))
                return False
        return True

    def _fail_machine(self, tag: Any, error: str,
                      code: Optional[int] = None) -> None:
        machine = self._machines.get(tag)
        if machine is not None:
            machine.on_notification(Message(
                method=protocol.OP_FAILED,
                payload={"error": error, "code": code},
                sender="local", tag=tag, id=self.env.new_id("message"),
            ))

    def _on_completion(self, message: Message) -> None:
        """The connection thread: route a notification to its machine."""
        machine = self._machines.get(message.tag)
        if machine is not None:
            machine.on_notification(message)
        # Unknown tags: the machine already failed/completed; drop.
