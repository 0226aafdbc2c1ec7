"""Network fabric: hosts, links and raw byte movement.

Two path classes, as in the paper's testbed: the *local virtual network
stack* within a node (container-to-container over the bridge/loopback,
memcpy-class bandwidth) and 1 Gb/s Ethernet between nodes.  Cross-node
traffic serializes on the sending host's NIC.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..fpga.hwspec import ETHERNET_1G, HOST_I7_6700, HostSpec, NetworkSpec
from ..sim import Environment, Event, Resource

#: Local (same-node) virtual network stack: memcpy-class byte movement.
LOCAL_STACK = NetworkSpec(bandwidth=13.9e9, latency=25e-6)


class NetworkHost:
    """A network identity: one node's stack and NIC."""

    def __init__(self, env: Environment, name: str,
                 host: HostSpec = HOST_I7_6700):
        self.env = env
        self.name = name
        self.host = host
        self.nic = Resource(env, capacity=1)
        self.bytes_sent = 0

    def __repr__(self) -> str:
        return f"<NetworkHost {self.name}>"


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
        #: Optional :class:`~repro.faults.NetworkFaultPlane`.  ``None`` (the
        #: default) keeps every delivery on the exact pre-fault-injection
        #: code path — goldens stay bit-identical.
        self.faults = None

    def host(self, name: str, host_spec: HostSpec = HOST_I7_6700) -> NetworkHost:
        """Get (creating if needed) the network identity for a node."""
        found = self._hosts.get(name)
        if found is None:
            found = NetworkHost(self.env, name, host_spec)
            self._hosts[name] = found
        return found

    def spec_between(self, src: NetworkHost, dst: NetworkHost) -> NetworkSpec:
        return self.local if src.name == dst.name else self.remote

    def is_local(self, src: NetworkHost, dst: NetworkHost) -> bool:
        return src.name == dst.name

    def local_arrival(self, src: NetworkHost, nbytes: int,
                      after: float) -> Event:
        """Event at which ``nbytes`` sent over the local stack ``after``
        seconds from now have arrived: ``(now + after) + transfer``, the
        time a delay Timeout followed by :meth:`transfer` would end on.
        """
        env = self.env
        src.bytes_sent += nbytes
        return env.timeout_at(
            (env.now + after) + self.local.transfer_time(nbytes))

    def transfer(self, src: NetworkHost, dst: NetworkHost, nbytes: int):
        """Process: move ``nbytes`` from ``src`` to ``dst``.

        Same-node traffic flows through the local stack without NIC
        contention; cross-node traffic serializes on the sender's NIC.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        spec = self.spec_between(src, dst)
        if self.is_local(src, dst):
            yield self.env.timeout(spec.transfer_time(nbytes))
        else:
            with src.nic.request() as grant:
                yield grant
                yield self.env.timeout(spec.transfer_time(nbytes))
        src.bytes_sent += nbytes
