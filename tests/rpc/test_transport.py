"""Tests for the network fabric and the gRPC/shm transports."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import HOST_I7_6700, HOST_XEON_W3530
from repro.rpc import (
    CopyStats,
    GrpcTransport,
    Message,
    Network,
    RpcEndpoint,
    ShmTransport,
    make_transport,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def network(env):
    return Network(env)


def run(env, generator):
    return env.run(until=env.process(generator))


class TestNetwork:
    def test_local_path_faster_than_remote(self, env, network):
        a1 = network.host("A")
        a2 = network.host("A")
        b = network.host("B")
        assert a1 is a2
        assert network.is_local(a1, a2)
        assert not network.is_local(a1, b)
        nbytes = 10_000_000
        assert (network.local.transfer_time(nbytes)
                < network.remote.transfer_time(nbytes))

    def test_transfer_advances_clock(self, env, network):
        src = network.host("A")
        dst = network.host("B")
        run(env, network.transfer(src, dst, 1_170_000))
        # 1 Gb/s ethernet: ~10 ms for ~1.17 MB (+latency).
        assert env.now == pytest.approx(0.01, rel=0.05)

    def test_cross_node_serializes_on_nic(self, env, network):
        src = network.host("A")
        dst = network.host("B")
        nbytes = 11_700_000
        env.process(network.transfer(src, dst, nbytes))
        env.process(network.transfer(src, dst, nbytes))
        env.run()
        single = network.remote.transfer_time(nbytes)
        assert env.now == pytest.approx(2 * single, rel=0.01)

    def test_local_transfers_do_not_contend(self, env, network):
        host = network.host("A")
        nbytes = 139_000_000
        env.process(network.transfer(host, host, nbytes))
        env.process(network.transfer(host, host, nbytes))
        env.run()
        single = network.local.transfer_time(nbytes)
        assert env.now == pytest.approx(single, rel=0.01)

    def test_negative_size_rejected(self, env, network):
        host = network.host("A")
        with pytest.raises(ValueError):
            run(env, network.transfer(host, host, -1))


class TestGrpcTransport:
    def test_large_transfer_near_4x_native_pcie(self, env, network):
        """Fig. 4(a): local gRPC data path ≈ 3 copy-equivalents + protobuf,
        landing near 4× the PCIe-only native time for the same bytes."""
        host = network.host("A")
        transport = GrpcTransport(env, network, host, host)
        nbytes = 1 << 30  # 1 GiB one way

        run(env, transport.data_to_server(nbytes))
        grpc_time = env.now
        native_time = nbytes / 6.8e9  # PCIe gen3 effective
        assert 2.5 < (grpc_time + native_time) / native_time < 4.5

    def test_copy_accounting(self, env, network):
        stats = CopyStats()
        host = network.host("A")
        transport = GrpcTransport(env, network, host, host, stats)
        run(env, transport.data_to_server(1000))
        # 2 explicit copies + 1 wire traversal.
        assert stats.copies == 3
        assert stats.bytes_copied == 3000

    def test_control_message_sub_millisecond(self, env, network):
        host = network.host("A")
        transport = GrpcTransport(env, network, host, host)
        run(env, transport.control_to_server())
        assert 50e-6 < env.now < 1e-3

    def test_slow_host_slows_control(self, env, network):
        fast = network.host("B", HOST_I7_6700)
        t_fast = GrpcTransport(env, network, fast, fast)
        run(env, t_fast.control_to_server())
        fast_time = env.now

        env2 = Environment()
        network2 = Network(env2)
        slow = network2.host("A", HOST_XEON_W3530)
        t_slow = GrpcTransport(env2, network2, slow, slow)
        env2.run(until=env2.process(t_slow.control_to_server()))
        assert env2.now > fast_time

    def test_cross_node_data_rides_ethernet(self, env, network):
        a = network.host("A")
        b = network.host("B")
        transport = GrpcTransport(env, network, a, b)
        nbytes = 117_000_000  # ~1 s on 1 Gb/s
        run(env, transport.data_to_server(nbytes))
        assert env.now > 1.0


class TestShmTransport:
    def test_single_copy(self, env, network):
        stats = CopyStats()
        host = network.host("A")
        transport = ShmTransport(env, network, host, host, stats)
        run(env, transport.data_to_server(1000))
        assert stats.copies == 1

    def test_2gb_copy_near_155ms(self, env, network):
        """Fig. 4(a): the shm overhead ceiling is one memcpy of the payload:
        ~155 ms for 2 GB."""
        host = network.host("B", HOST_I7_6700)
        transport = ShmTransport(env, network, host, host)
        run(env, transport.data_to_server(2 * 1024**3))
        assert env.now == pytest.approx(0.155, rel=0.03)

    def test_requires_colocation(self, env, network):
        a = network.host("A")
        b = network.host("B")
        with pytest.raises(ValueError):
            ShmTransport(env, network, a, b)

    def test_faster_than_grpc(self, env, network):
        host = network.host("A")
        shm = ShmTransport(env, network, host, host)
        run(env, shm.data_to_server(1 << 28))
        shm_time = env.now

        env2 = Environment()
        network2 = Network(env2)
        host2 = network2.host("A")
        grpc = GrpcTransport(env2, network2, host2, host2)
        env2.run(until=env2.process(grpc.data_to_server(1 << 28)))
        assert env2.now > 2 * shm_time


class TestMakeTransport:
    def test_prefers_shm_locally(self, env, network):
        host = network.host("A")
        transport = make_transport(env, network, host, host)
        assert isinstance(transport, ShmTransport)

    def test_grpc_across_nodes(self, env, network):
        transport = make_transport(
            env, network, network.host("A"), network.host("B")
        )
        assert isinstance(transport, GrpcTransport)

    def test_shm_can_be_disabled(self, env, network):
        host = network.host("A")
        transport = make_transport(env, network, host, host, prefer_shm=False)
        assert isinstance(transport, GrpcTransport)


def _payload_run(transport_class, speed, sends, folded):
    """Deliveries ``(time, tag)`` and copy totals of ``sends`` —
    ``(start, nbytes, to_server)`` payload messages, each from its own
    sender — over a same-node transport.  ``folded`` sends each
    payload with its message; otherwise the data plane moves it first."""
    env = Environment()
    network = Network(env)
    host = network.host("A", replace(HOST_I7_6700, speed_factor=speed))
    transport = transport_class(env, network, host, host)
    deliveries = []
    endpoint = RpcEndpoint(
        env, "endpoint",
        handler=lambda message: deliveries.append((env.now, message.tag)))

    def sender(tag, start, nbytes, to_server):
        yield env.timeout(start)
        message = Message(id=env.new_id("message"), method="Payload", tag=tag)
        if folded and to_server:
            yield from transport.deliver_to_server(endpoint, message, nbytes)
        elif folded:
            transport.deliver_to_client(endpoint, message, nbytes)
        elif to_server:
            yield from transport.data_to_server(nbytes)
            yield from transport.deliver_to_server(endpoint, message)
        else:
            yield from transport.data_to_client(nbytes)
            transport.deliver_to_client(endpoint, message)

    for tag, send in enumerate(sends):
        env.process(sender(tag, *send))
    env.run()
    stats = transport.stats
    return deliveries, (stats.copies, stats.bytes_copied)


@settings(max_examples=100, deadline=None)
@given(
    transport_class=st.sampled_from([ShmTransport, GrpcTransport]),
    speed=st.floats(min_value=0.25, max_value=4.0),
    sends=st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=0.05),
        st.integers(min_value=0, max_value=1 << 28),
        st.booleans()), min_size=1, max_size=6),
)
def test_folded_payload_matches_the_two_step_path(transport_class, speed,
                                                  sends):
    """One event per payload-carrying message lands at the float, in the
    order and with the copy totals of the copy-then-message chain."""
    assert (_payload_run(transport_class, speed, sends, folded=True)
            == _payload_run(transport_class, speed, sends, folded=False))


def test_cross_node_payload_keeps_the_nic_path():
    env = Environment()
    network = Network(env)
    a, b = network.host("A"), network.host("B")
    transport = GrpcTransport(env, network, a, b)
    endpoint = RpcEndpoint(env, "endpoint", handler=lambda message: None)
    for _ in range(2):
        env.process(transport.deliver_to_server(
            endpoint, Message(method="Payload", id=env.new_id("message")),
            11_700_000))
    env.run()
    # The second payload queued behind the first on A's NIC.
    assert env.now > 2 * network.remote.transfer_time(11_700_000)
