"""RPC layer under the fault plane: drop, delay, partition.

The connection resends what the fabric drops, so a fault costs time; the
delivery model itself is checked in ``test_reliable_delivery.py``.
"""

import pytest

from repro.faults import NetworkFaultPlane
from repro.rpc import (
    GrpcTransport,
    Message,
    Network,
    RpcEndpoint,
    RpcTimeout,
    reply,
    unary_call,
)
from repro.rpc.transport import RTO
from repro.sim import Environment


@pytest.fixture
def setup():
    env = Environment()
    network = Network(env)
    client_host = network.host("client-host")
    server_host = network.host("server-host")
    transport = GrpcTransport(env, network, client_host, server_host)
    endpoint = RpcEndpoint(env, "server")
    return env, network, transport, endpoint


def test_disabled_plane_is_inert(setup):
    env, network, transport, endpoint = setup
    assert network.faults is None

    def server():
        message = yield endpoint.inbox.get()
        yield from reply(transport, message, {"ok": True})

    def client():
        return (yield from unary_call(transport, endpoint, "Ping"))

    env.process(server())
    assert env.run(until=env.process(client())) == {"ok": True}


def test_dropped_request_times_out(setup):
    env, network, transport, endpoint = setup
    network.faults = NetworkFaultPlane(seed=1, drop_rate=1.0)

    def client():
        try:
            yield from unary_call(transport, endpoint, "Ping", timeout=0.5)
        except RpcTimeout:
            return env.now
        return None

    assert env.run(until=env.process(client())) == pytest.approx(0.5,
                                                                 abs=0.01)
    assert len(endpoint.inbox.items) == 0
    # The first transmission and its resend one RTO later.
    assert network.faults.counters["dropped"] == 2


def test_delay_postpones_delivery(setup):
    env, network, transport, endpoint = setup
    arrivals = []

    def server():
        while True:
            yield endpoint.inbox.get()
            arrivals.append(env.now)

    def sender():
        yield from transport.deliver_to_server(
            endpoint,
            Message(method="Notify", sender="c", id=env.new_id("message")),
        )

    env.process(server())
    env.run(until=env.process(sender()))
    env.run()
    baseline = arrivals[0]

    env2 = Environment()
    network2 = Network(env2)
    transport2 = GrpcTransport(env2, network2, network2.host("client-host"),
                               network2.host("server-host"))
    endpoint2 = RpcEndpoint(env2, "server")
    network2.faults = NetworkFaultPlane(seed=1, delay_rate=1.0, delay=0.25)
    arrivals2 = []

    def server2():
        while True:
            yield endpoint2.inbox.get()
            arrivals2.append(env2.now)

    def sender2():
        yield from transport2.deliver_to_server(
            endpoint2,
            Message(method="Notify", sender="c", id=env2.new_id("message")),
        )

    env2.process(server2())
    env2.run(until=env2.process(sender2()))
    env2.run()
    assert arrivals2[0] == pytest.approx(baseline + 0.25)


def test_partition_blocks_until_healed(setup):
    env, network, transport, endpoint = setup
    plane = NetworkFaultPlane(seed=1)
    network.faults = plane
    plane.partition("client-host", "server-host")

    def server():
        while True:
            message = yield endpoint.inbox.get()
            yield from reply(transport, message, {"ok": True})

    def client(timeout):
        try:
            result = yield from unary_call(transport, endpoint, "Ping",
                                           timeout=timeout)
        except RpcTimeout:
            return "timeout"
        return result

    env.process(server())
    assert env.run(until=env.process(client(0.3))) == "timeout"
    plane.heal("client-host", "server-host")
    # The next call waits behind the first request's next resend.
    assert env.run(until=env.process(client(1.0))) == {"ok": True}
    assert env.now == pytest.approx(3 * RTO, abs=0.01)


def test_lost_reply_is_resent(setup):
    env, network, transport, endpoint = setup
    served = []

    def server():
        message = yield endpoint.inbox.get()
        served.append(message.method)
        # Arm total loss only now, so exactly the reply leg is hit; heal
        # it before the reply's first resend.
        network.faults = NetworkFaultPlane(seed=1, drop_rate=1.0)
        yield from reply(transport, message, {"ok": True})
        network.faults = NetworkFaultPlane(seed=1)

    def client():
        return (yield from unary_call(transport, endpoint, "Ping"))

    env.process(server())
    started = env.now
    assert env.run(until=env.process(client())) == {"ok": True}
    assert served == ["Ping"]  # served once; only its reply was resent
    assert RTO < env.now - started < RTO + 0.01
