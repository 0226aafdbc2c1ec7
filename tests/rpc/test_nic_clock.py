"""The NIC as a FIFO clock against the grant-holding chain it replaced.

A cross-node message used to run as a process: protobuf and copies, the
payload's transfer holding a grant of the sending NIC's capacity-one
``Resource``, the handling overhead, then the control bytes under a
second grant.  :class:`ChainNetwork` and :class:`ChainTransport` keep that
chain here as the reference model; the property checks that every
arrival of the FIFO clock lands on the chain's float.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc import GrpcTransport, Message, Network, RpcEndpoint
from repro.rpc.transport import CONTROL_MESSAGE_BYTES
from repro.sim import Environment, Interrupt, Resource


class ChainNetwork(Network):
    """Reference: each NIC is a capacity-one ``Resource`` whose grant a
    process holds while its bytes cross the wire."""

    def __init__(self, env):
        super().__init__(env)
        self.nics = {}

    def transfer(self, src, dst, nbytes):
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if self.is_local(src, dst):
            yield self.env.timeout(self.local.transfer_time(nbytes))
            return
        nic = self.nics.setdefault(src.name, Resource(self.env, capacity=1))
        with nic.request() as grant:
            yield grant
            yield self.env.timeout(self.remote.transfer_time(nbytes))


class ChainTransport(GrpcTransport):
    """Reference: a cross-node message is a process that pays each step
    in turn; same-node messages keep the transport's own path."""

    def _arrival(self, src, nbytes=None, value=None):
        if self._local:
            return super()._arrival(src, nbytes, value)
        dst = self.server if src is self.client else self.client
        return self.env.process(self._chain(src, dst, nbytes, value))

    def _chain(self, src, dst, nbytes, value):
        if nbytes is not None:
            yield from self.send_data(src, dst, nbytes)
        yield self.env.timeout(self._control_overhead)
        yield from self.network.transfer(src, dst, CONTROL_MESSAGE_BYTES)
        return value


HOSTS = ("A", "B", "C")

#: A send: its start, its kind, source and destination host, and the
#: payload size (unused by a control message).
send = st.tuples(
    st.sampled_from([0.0, 1e-3, 2.5e-3]) | st.floats(0.0, 0.05),
    st.sampled_from(["control", "payload", "raw", "data"]),
    st.sampled_from(HOSTS), st.sampled_from(HOSTS),
    # Zero, sizes whose encode time is below the handling overhead, and
    # sizes that keep the 1 Gb/s wire busy for tens of milliseconds.
    st.sampled_from([0, 1, 256]) | st.integers(0, 4096)
    | st.integers(0, 4_000_000),
)


def arrivals(network_class, transport_class, sends):
    """``{tag: arrival time}`` of ``sends`` and the copy totals."""
    env = Environment()
    network = network_class(env)
    hosts = {name: network.host(name) for name in HOSTS}
    transports = {}
    landed = {}
    endpoint = RpcEndpoint(
        env, "endpoint",
        handler=lambda message: landed.setdefault(message.tag, env.now))

    def sender(tag, start, kind, src, dst, nbytes):
        yield env.timeout(start)
        # One connection per host pair: client is the first in HOSTS.
        client, server = sorted((src, dst))
        transport = transports.get((client, server))
        if transport is None:
            transport = transports[client, server] = transport_class(
                env, network, hosts[client], hosts[server])
        to_server = src == client
        message = Message(method="Send", tag=tag, id=env.new_id("message"))
        size = nbytes if kind == "payload" else None
        if kind == "raw":
            yield from network.transfer(hosts[src], hosts[dst], nbytes)
            landed[tag] = env.now
        elif kind == "data":
            yield from transport.send_data(hosts[src], hosts[dst], nbytes)
            landed[tag] = env.now
        elif to_server:
            yield from transport.deliver_to_server(endpoint, message, size)
        else:
            transport.deliver_to_client(endpoint, message, size)

    for tag, args in enumerate(sends):
        env.process(sender(tag, *args))
    env.run()
    copies = sorted((pair, t.stats.copies, t.stats.bytes_copied)
                    for pair, t in transports.items())
    return landed, copies


@settings(deadline=None)
@given(sends=st.lists(send, min_size=1, max_size=12))
def test_fifo_nic_lands_every_message_on_the_chains_float(sends):
    new = arrivals(Network, GrpcTransport, sends)
    reference = arrivals(ChainNetwork, ChainTransport, sends)
    assert new == reference
    assert sorted(new[0]) == list(range(len(sends)))


def test_interrupted_sender_keeps_its_nic_booking():
    # The Resource freed the wire when its holder was interrupted; a
    # booking on the FIFO clock stays, so the next transfer still queues
    # behind the interrupted one's bytes.
    env = Environment()
    network = Network(env)
    a, b = network.host("A"), network.host("B")
    nbytes = 11_700_000
    single = network.remote.transfer_time(nbytes)
    landed = []

    def victim():
        try:
            yield from network.transfer(a, b, nbytes)
        except Interrupt:
            landed.append(("interrupted", env.now))

    def next_sender():
        yield from network.transfer(a, b, CONTROL_MESSAGE_BYTES)
        landed.append(("next", env.now))

    process = env.process(victim())
    env.run(until=single / 2)
    process.interrupt()
    env.process(next_sender())
    env.run()
    assert landed == [
        ("interrupted", single / 2),
        ("next", single + network.remote.transfer_time(
            CONTROL_MESSAGE_BYTES)),
    ]


def test_a_notification_books_the_nic_ahead_of_later_queued_bookings():
    # Its handling end is queued when it is sent, so a booking due at the
    # same instant but queued after the send comes second.  The chain
    # queued the handling end when its process started, after that one.
    env = Environment()
    network = Network(env)
    a, b = network.host("A"), network.host("B")
    transport = GrpcTransport(env, network, a, b)
    landed = []
    endpoint = RpcEndpoint(
        env, "client", handler=lambda message: landed.append(env.now))
    transport.deliver_to_client(
        endpoint, Message(method="Notify", id=env.new_id("message")))
    env.timeout(transport._control_overhead).callbacks.append(
        lambda _: landed.append(network.book(b, CONTROL_MESSAGE_BYTES)))
    env.run()
    wire = network.remote.transfer_time(CONTROL_MESSAGE_BYTES)
    first = transport._control_overhead + wire
    assert landed == [first + wire, first]
