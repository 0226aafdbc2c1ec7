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
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Environment, Event
from .network import Network, NetworkHost

#: Size of a control message on the wire (call metadata, acks), bytes.
CONTROL_MESSAGE_BYTES = 256

#: Host-side handling of one control message (encode, dispatch, handler).
#: Calibrated so the minimum BlastFunction RTT (one blocking write + read)
#: lands near the ~2 ms of control signalling the paper reports in Fig. 4.
CONTROL_HANDLING_OVERHEAD = 225e-6


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

    # -- control plane -----------------------------------------------------
    def _control_overhead(self, src: NetworkHost, dst: NetworkHost) -> float:
        return CONTROL_HANDLING_OVERHEAD * max(
            src.host.speed_factor, dst.host.speed_factor
        )

    def _control_arrival(self, src: NetworkHost,
                         dst: NetworkHost) -> Optional[Event]:
        """The arrival event of a fault-free, same-node control message.

        One event at ``(now + overhead) + transfer``: the float the
        handling-overhead and local-transfer Timeouts would end on.
        ``None`` when the message needs the full path: a fault plane is
        installed, or the message crosses nodes and queues on the NIC.
        """
        network = self.network
        if network.faults is not None or not network.is_local(src, dst):
            return None
        return network.local_arrival(
            src, CONTROL_MESSAGE_BYTES, self._control_overhead(src, dst))

    def send_control(self, src: NetworkHost, dst: NetworkHost):
        """Process: one-way control message (gRPC in both transports)."""
        arrival = self._control_arrival(src, dst)
        if arrival is not None:
            yield arrival
            return
        yield self.env.timeout(self._control_overhead(src, dst))
        yield from self.network.transfer(src, dst, CONTROL_MESSAGE_BYTES)

    def control_to_server(self):
        yield from self.send_control(self.client, self.server)

    def control_to_client(self):
        yield from self.send_control(self.server, self.client)

    # -- control plane with delivery (fault-injection point) ----------------
    def deliver_to_server(self, endpoint, message):
        """Process: send one control message and deliver it client→server.

        This is where the network fault plane bites: with
        ``network.faults`` installed the message may be dropped, delayed
        or duplicated.
        """
        yield from self._deliver(self.client, self.server, endpoint, message)

    def deliver_to_client(self, endpoint, message) -> Event:
        """Send one control message server→client; returns its arrival.

        Fire-and-forget: a fault-free, same-node message is one scheduled
        callback delivering into ``endpoint``.  The fault-plane and
        cross-node paths run as a process, which is the returned event.
        """
        arrival = self._control_arrival(self.server, self.client)
        if arrival is None:
            return self.env.process(
                self._deliver(self.server, self.client, endpoint, message))
        arrival.callbacks.append(lambda _: endpoint.deliver(message))
        return arrival

    def _deliver(self, src, dst, endpoint, message):
        faults = self.network.faults
        if faults is None:
            yield from self.send_control(src, dst)
            endpoint.deliver(message)
            return
        # The sender always pays the send cost — it cannot know the fabric
        # ate the message.
        verdict = faults.message_action(src.name, dst.name)
        yield from self.send_control(src, dst)
        if verdict.drop:
            return
        if verdict.delay:
            yield self.env.timeout(verdict.delay)
        endpoint.deliver(message)
        if verdict.duplicate:
            endpoint.deliver(message)

    # -- data plane -----------------------------------------------------------
    @abc.abstractmethod
    def send_data(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        """Process: move a bulk payload one way."""

    def data_to_server(self, nbytes: int):
        yield from self.send_data(self.client, self.server, nbytes)

    def data_to_client(self, nbytes: int):
        yield from self.send_data(self.server, self.client, nbytes)

    def data_to_client_then(self, nbytes: int,
                            then: Callable[[], None]) -> None:
        """Move a bulk payload to the client in the background, then call
        ``then()`` the instant it has landed (a read result's data)."""
        def run():
            yield from self.data_to_client(nbytes)
            then()

        self.env.process(run())

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

    def send_data(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        if nbytes < 0:
            raise ValueError("negative payload size")
        copy_time = self.data_copies * nbytes / self._slow_memcpy_bandwidth()
        proto_time = nbytes / self._slow_protobuf_bandwidth()
        yield self.env.timeout(copy_time + proto_time)
        self.stats.record(self.data_copies, nbytes)
        yield from self.network.transfer(src, dst, nbytes)
        self.stats.record(1, nbytes)  # wire traversal (local stack copy)


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

    def _copy_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("negative payload size")
        return nbytes / self._slow_memcpy_bandwidth()

    def send_data(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        yield self.env.timeout(self._copy_time(nbytes))
        self.stats.record(self.data_copies, nbytes)

    def data_to_client_then(self, nbytes: int,
                            then: Callable[[], None]) -> None:
        """One scheduled callback: the memcpy's Timeout, then ``then()``."""
        def landed(_event) -> None:
            self.stats.record(self.data_copies, nbytes)
            then()

        self.env.timeout(self._copy_time(nbytes)).callbacks.append(landed)


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
