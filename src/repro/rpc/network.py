"""Network fabric: hosts, links and raw byte movement.

Two path classes, as in the paper's testbed: the *local virtual network
stack* within a node (container-to-container over the bridge/loopback,
memcpy-class bandwidth) and 1 Gb/s Ethernet between nodes.  Cross-node
traffic serializes on the sending host's NIC, a FIFO queue that sends one
booking at a time.
"""

from __future__ import annotations

from typing import Dict

from ..fpga.hwspec import ETHERNET_1G, HOST_I7_6700, HostSpec, NetworkSpec
from ..sim import Environment

#: Local (same-node) virtual network stack: memcpy-class byte movement.
LOCAL_STACK = NetworkSpec(bandwidth=13.9e9, latency=25e-6)


class NetworkHost:
    """A network identity: one node's stack and NIC."""

    def __init__(self, env: Environment, name: str,
                 host: HostSpec = HOST_I7_6700):
        self.env = env
        self.name = name
        self.host = host
        #: When the NIC has sent every byte booked on it so far: a FIFO
        #: queue of capacity one, kept as the time it drains.
        self.nic_free = 0.0


class Network:
    """Moves raw bytes between hosts with the appropriate path model."""

    def __init__(
        self,
        env: Environment,
        local: NetworkSpec = LOCAL_STACK,
        remote: NetworkSpec = ETHERNET_1G,
    ):
        self.env = env
        self.local = local
        self.remote = remote
        self._hosts: Dict[str, NetworkHost] = {}
        #: Optional :class:`~repro.faults.NetworkFaultPlane` judging every
        #: control message; ``None`` (the default) delivers them all.
        self.faults = None

    def host(self, name: str, host_spec: HostSpec = HOST_I7_6700) -> NetworkHost:
        """Get (creating if needed) the network identity for a node."""
        found = self._hosts.get(name)
        if found is None:
            found = NetworkHost(self.env, name, host_spec)
            self._hosts[name] = found
        return found

    def is_local(self, src: NetworkHost, dst: NetworkHost) -> bool:
        return src.name == dst.name

    def book(self, src: NetworkHost, nbytes: int) -> float:
        """Queue ``nbytes`` on ``src``'s NIC now; returns when they land.

        The bytes start when the NIC has sent everything booked before
        them, and take the Ethernet transfer time: the float a grant of a
        capacity-one FIFO ``Resource`` followed by a transfer Timeout
        would end on.  A booking is never withdrawn.
        """
        now = self.env.now
        start = src.nic_free if src.nic_free > now else now
        src.nic_free = landed = start + self.remote.transfer_time(nbytes)
        return landed

    def transfer(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        """Process: move ``nbytes`` from ``src`` to ``dst``.

        Same-node traffic flows through the local stack without NIC
        contention; cross-node traffic is booked on the sender's NIC and
        costs one event, at its landing.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if self.is_local(src, dst):
            yield self.env.timeout(self.local.transfer_time(nbytes))
        else:
            yield self.env.timeout_at(self.book(src, nbytes))
