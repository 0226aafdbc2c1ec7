"""Data-plane transports between the Remote OpenCL Library and a Device
Manager.

Two mechanisms, as in Section III-B of the paper:

* :class:`GrpcTransport` — protobuf serialization plus multiple data copies.
  The paper measures ~4× native latency for large transfers and attributes
  it to "protobuf overheads and 3 copies of the data buffers".
* :class:`ShmTransport` — POSIX shared memory between containers on the
  same node: exactly **one** copy ("from four to one"), the single copy
  retained to keep full OpenCL compatibility.  Control signalling still
  rides gRPC.

Every copy is counted in :class:`CopyStats` so the 4-vs-1 claim is a tested
invariant, not prose.

Under a fault plane each transport is a reliable, ordered connection in
each direction, as gRPC's HTTP/2 over TCP is: a lost transmission is sent
again after a retransmission timeout that doubles per resend, and a
message a fault holds (a delay, or resends) holds every later message of
its direction.  Loss reaches the application only when the connection
breaks: when its Device Manager crashes, or when a transmission goes
unacknowledged for :data:`USER_TIMEOUT`.  A break fails every unary call
awaiting an answer and tells each ``on_break`` listener.
"""

from __future__ import annotations

import abc
from collections import deque
from copy import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..ocl.errors import CL_DEVICE_NOT_AVAILABLE
from ..sim import Environment, Event
from .messages import RpcError
from .network import Network, NetworkHost

#: Size of a control message on the wire (call metadata, acks), bytes.
CONTROL_MESSAGE_BYTES = 256

#: Host-side handling of one control message (encode, dispatch, handler).
#: Calibrated so the minimum BlastFunction RTT (one blocking write + read)
#: lands near the ~2 ms of control signalling the paper reports in Fig. 4.
CONTROL_HANDLING_OVERHEAD = 225e-6

#: First retransmission timeout, seconds: Linux's ``TCP_RTO_MIN``, the
#: floor RFC 6298 (section 2.4) lets a sender use below its conservative
#: 1 s.  Each resend doubles it (RFC 6298, section 5.5).
RTO = 0.2

#: Seconds a transmission may go unacknowledged before its connection
#: breaks: a ``TCP_USER_TIMEOUT`` (RFC 5482) of gRPC's default keepalive
#: timeout, 20 s, which gRPC installs as the socket's user timeout.
USER_TIMEOUT = 20.0


@dataclass
class CopyStats:
    """Accounting of host data copies along a transport's data path."""

    copies: int = 0
    bytes_copied: int = 0

    def record(self, count: int, nbytes: int) -> None:
        self.copies += count
        self.bytes_copied += count * nbytes


class Transport(abc.ABC):
    """One client↔server connection's data plane."""

    #: Host data copies performed per bulk payload moved.
    data_copies: int = 0

    def __init__(
        self,
        env: Environment,
        network: Network,
        client: NetworkHost,
        server: NetworkHost,
        stats: CopyStats | None = None,
    ):
        self.env = env
        self.network = network
        self.client = client
        self.server = server
        self.stats = stats if stats is not None else CopyStats()
        # Frozen host and network specs: fixed costs, the same both ways.
        self._local = network.is_local(client, server)
        self._control_overhead = CONTROL_HANDLING_OVERHEAD * max(
            client.host.speed_factor, server.host.speed_factor)
        self._wire_time = network.local.transfer_time(CONTROL_MESSAGE_BYTES)
        #: Why the connection broke; ``None`` while it is up.
        self.broken: Optional[str] = None
        #: Called with this transport when the connection breaks.
        self.on_break: List[Callable[["Transport"], None]] = []
        #: Reply events of the unary calls awaiting an answer (a dict, so
        #: a break fails them in call order).
        self.calls: Dict[Event, None] = {}
        #: Per direction (to the server, to the client): the messages a
        #: fault holds and those sent after them, in send order.  Made
        #: when a fault first holds a message.
        self._held: Optional[Tuple[deque, deque]] = None

    # -- control plane -----------------------------------------------------
    def _arrival(self, src: NetworkHost, nbytes=None, value=None) -> Event:
        """The arrival event, carrying ``value``, of one control message
        that ``src`` sends now to the other end, after the ``nbytes``
        payload it carries, if any: the floats the chain of Timeouts
        would end on.

        Same node: one event at ``((now + copy) + overhead) + transfer``;
        the copies are recorded on arrival.  Across nodes the bytes queue
        on ``src``'s NIC (:meth:`Network.book`): the end of the handling
        overhead is an event that books the message, and the arrival is
        scheduled at its landing.  A payload adds one event before it,
        at the encode end, which records the sender's copies, books the
        payload and schedules the handling end at its landing plus the
        overhead; the wire copy is recorded at the handling end.
        """
        env = self.env
        if self._local:
            sent = env.now if nbytes is None else self._landing(nbytes)
            arrival = env.timeout_at(
                (sent + self._control_overhead) + self._wire_time, value)
            if nbytes is not None:
                arrival.callbacks.append(lambda _: self._landed(nbytes))
            return arrival
        arrival = Event(env)
        book = self.network.book

        def handled(_event):
            arrival._ok = True
            arrival._value = value
            env.schedule_at(arrival, book(src, CONTROL_MESSAGE_BYTES))

        if nbytes is None:
            env.timeout(self._control_overhead).callbacks.append(handled)
            return arrival

        def landed(_event):
            self.stats.record(1, nbytes)  # the wire traversal
            handled(_event)

        def encoded(_event):
            self.stats.record(self.data_copies, nbytes)
            env.timeout_at(book(src, nbytes) + self._control_overhead) \
                .callbacks.append(landed)

        env.timeout(self._encode_time(nbytes)).callbacks.append(encoded)
        return arrival

    def control_to_server(self):
        """Process: one-way control message (gRPC in both transports)."""
        yield self._arrival(self.client)

    def control_to_client(self):
        yield self._arrival(self.server)

    # -- control plane with delivery ------------------------------------------
    def deliver_to_server(self, endpoint, message, nbytes=None):
        """Process: send one control message client→server, after the
        ``nbytes`` payload it announces, if any, and deliver it.  The
        sender pays the send cost; a message a fault holds finishes its
        delivery in the background."""
        if self.network.faults is not None:
            held = self._hold(0, self.client, self.server, endpoint.deliver,
                              message, message)
            if held is not None:
                yield self._arrival(self.client, nbytes)
                self.env.process(held)
                return
        yield self._arrival(self.client, nbytes)
        if self.broken is None:  # a break drops what is in flight
            endpoint.deliver(message)

    def deliver_to_client(self, endpoint, message, nbytes=None) -> Event:
        """Send one control message server→client, after the ``nbytes``
        payload it carries, if any; returns its arrival.

        Fire-and-forget: the arrival event's callback delivers it.  A
        message a fault holds runs as a process, which is the returned
        event.
        """
        if self.network.faults is not None:
            held = self._hold(1, self.server, self.client, endpoint.deliver,
                              message, message)
            if held is not None:
                return self.env.process(self._send_held(nbytes, held))
        arrival = self._arrival(self.server, nbytes, message)
        arrival.callbacks.append(endpoint.arrive)
        return arrival

    def answer(self, message, land: Callable, value):
        """Process: reply server→client to the unary call ``message``;
        ``land(value)`` settles its reply event on arrival.  Under a fault
        plane the reply draws its own verdicts, keyed by its request's."""
        if self.network.faults is not None:
            key = copy(message)
            key.attempt = 0
            held = self._hold(1, self.server, self.client, land, value, key,
                              reply=True)
            if held is not None:
                yield self._arrival(self.server)
                self.env.process(held)
                return
        yield self._arrival(self.server)
        if self.broken is None:  # a break drops what is in flight
            land(value)

    def _send_held(self, nbytes, held):
        """Process: send a held notification, then finish its delivery."""
        yield self._arrival(self.server, nbytes)
        yield from held

    # -- reliable, ordered delivery under a fault plane -----------------------
    def _hold(self, direction: int, src: NetworkHost, dst: NetworkHost,
              land: Callable, value, key, reply: bool = False):
        """Judge a message about to be sent on ``direction`` (0 to the
        server, 1 to the client), drawing its verdicts for ``key``.

        ``None`` when its verdict passes and no earlier message of its
        direction is held: it takes the fault-free path.  Otherwise it
        queues, and this returns the process that finishes its delivery,
        ``land(value)`` in send order, once it has been sent."""
        faults = self.network.faults
        verdict = faults.message_action(src.name, dst.name, key, reply)
        held = self._held
        queue = None if held is None else held[direction]
        if not (verdict.drop or verdict.delay or queue):
            return None
        if queue is None:
            held = self._held = (deque(), deque())
            queue = held[direction]
        entry = [False, land, value]
        queue.append(entry)
        return self._carry(queue, entry, src, dst, key, verdict, reply)

    def _carry(self, queue, entry, src, dst, key, verdict, reply):
        """Process: resend a lost message every RTO, doubled each time,
        until a copy gets through or it has waited :data:`USER_TIMEOUT`
        (the connection then breaks); wait out a fault delay; then land
        it, and every message queued behind it that is ready too."""
        rto, waited = RTO, 0.0
        while verdict.drop:
            if waited + rto >= USER_TIMEOUT:
                yield self.env.timeout(USER_TIMEOUT - waited)
                self.break_connection(
                    f"{src.name}->{dst.name} unacknowledged for "
                    f"{USER_TIMEOUT}s")
                return
            yield self.env.timeout(rto)
            if self.broken is not None:
                return
            waited += rto
            rto *= 2
            key.attempt += 1
            verdict = self.network.faults.message_action(
                src.name, dst.name, key, reply)
        if verdict.delay:
            yield self.env.timeout(verdict.delay)
        if self.broken is not None:
            return
        entry[0] = True
        while queue and queue[0][0]:
            _ready, land, value = queue.popleft()
            land(value)

    def break_connection(self, reason: str) -> None:
        """Break this connection: drop what it holds, fail every unary
        call awaiting an answer, and tell each ``on_break`` listener."""
        if self.broken is not None:
            return
        self.broken = reason
        for queue in self._held or ():
            queue.clear()
        calls, self.calls = self.calls, {}
        for response in calls:
            if not response.triggered:
                # Defused: the caller may still be sending its request.
                response.fail(RpcError(f"connection broken: {reason}",
                                       code=CL_DEVICE_NOT_AVAILABLE))
                response.defused = True
        for listener in list(self.on_break):
            listener(self)

    # -- data plane -----------------------------------------------------------
    @abc.abstractmethod
    def send_data(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        """Process: move a bulk payload one way."""

    def data_to_server(self, nbytes: int):
        yield from self.send_data(self.client, self.server, nbytes)

    def data_to_client(self, nbytes: int):
        yield from self.send_data(self.server, self.client, nbytes)

    @abc.abstractmethod
    def _encode_time(self, nbytes: int) -> float:
        """Host work on a payload before it reaches the wire."""

    @abc.abstractmethod
    def _landing(self, nbytes: int) -> float:
        """When a same-node payload sent now lands, as send_data would."""

    @abc.abstractmethod
    def _landed(self, nbytes: int) -> None:
        """Account a landed payload, as send_data does."""

    def _slow_memcpy_bandwidth(self) -> float:
        return min(
            self.client.host.memcpy_bandwidth,
            self.server.host.memcpy_bandwidth,
        )

    def _slow_protobuf_bandwidth(self) -> float:
        return min(
            self.client.host.protobuf_bandwidth,
            self.server.host.protobuf_bandwidth,
        )


class GrpcTransport(Transport):
    """Pure-gRPC data plane ("BlastFunction" curves in Figure 4).

    One payload costs: two explicit buffer copies (into the protobuf arena
    on the sender, out of it on the receiver), protobuf encode+decode, plus
    the wire — which, on the local virtual network stack, is itself a
    memcpy-class traversal, giving the paper's "3 copies" versus native.
    """

    name = "grpc"
    #: Explicit host copies; the local-stack wire traversal adds a third
    #: copy-equivalent, and DMA from the manager's staging buffer is the 4th
    #: copy of the overall BlastFunction path the paper counts.
    data_copies = 2

    def _encode_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("negative payload size")
        copy_time = self.data_copies * nbytes / self._slow_memcpy_bandwidth()
        proto_time = nbytes / self._slow_protobuf_bandwidth()
        return copy_time + proto_time

    def send_data(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        yield self.env.timeout(self._encode_time(nbytes))
        self.stats.record(self.data_copies, nbytes)
        yield from self.network.transfer(src, dst, nbytes)
        self.stats.record(1, nbytes)  # wire traversal (local stack copy)

    def _landing(self, nbytes: int) -> float:
        return ((self.env.now + self._encode_time(nbytes))
                + self.network.local.transfer_time(nbytes))

    def _landed(self, nbytes: int) -> None:
        self.stats.record(self.data_copies + 1, nbytes)


class ShmTransport(Transport):
    """Shared-memory data plane ("BlastFunction shm" in Figure 4).

    Requires client and server on the same node.  One memcpy into the
    shared region per payload; control messages still use gRPC.
    """

    name = "shm"
    data_copies = 1

    def __init__(self, env, network, client, server, stats=None):
        if client.name != server.name:
            raise ValueError(
                "shared memory requires colocation on one node "
                f"(client on {client.name}, server on {server.name})"
            )
        super().__init__(env, network, client, server, stats)

    def _encode_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("negative payload size")
        return nbytes / self._slow_memcpy_bandwidth()

    def send_data(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        yield self.env.timeout(self._encode_time(nbytes))
        self._landed(nbytes)

    def _landing(self, nbytes: int) -> float:
        return self.env.now + self._encode_time(nbytes)

    def _landed(self, nbytes: int) -> None:
        self.stats.record(self.data_copies, nbytes)


def make_transport(
    env: Environment,
    network: Network,
    client: NetworkHost,
    server: NetworkHost,
    prefer_shm: bool = True,
    stats: CopyStats | None = None,
) -> Transport:
    """Choose the transport the paper's logic would pick.

    Shared memory when client and Device Manager share a node (and shm is
    allowed); gRPC otherwise.
    """
    if prefer_shm and network.is_local(client, server):
        return ShmTransport(env, network, client, server, stats)
    return GrpcTransport(env, network, client, server, stats)
