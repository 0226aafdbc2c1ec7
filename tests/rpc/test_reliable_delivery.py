"""The delivery model under a fault plane: one reliable, ordered
connection per transport and direction.

A dropped transmission is sent again after a doubling RTO, a delay holds
every later message of its direction, and loss reaches the application
only when the connection breaks: on a Device Manager crash, or a
partition that outlasts the user timeout.  A break fails every op in
flight at once and closes the manager's session.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_testbed
from repro.core.device_manager import DeviceManager, protocol
from repro.core.registry import AcceleratorsRegistry
from repro.core.remote_lib.router import ManagerAddress, PlatformRouter
from repro.faults import (
    HealthPolicy,
    MessageVerdict,
    NetworkFaultPlane,
    RetryPolicy,
)
from repro.fpga import FPGABoard, standard_library
from repro.ocl.errors import CL_DEVICE_NOT_AVAILABLE, CLError
from repro.rpc import (
    GrpcTransport,
    Message,
    Network,
    RpcEndpoint,
    ShmTransport,
    unary_call,
)
from repro.rpc.transport import USER_TIMEOUT
from repro.serverless import SobelApp
from repro.sim import Environment

_DROP = MessageVerdict(drop=True)


class ScriptedPlane(NetworkFaultPlane):
    """A fault plane whose verdicts come from a table keyed by message id
    and attempt (a pass when absent); partitions work as usual."""

    def __init__(self, fates):
        super().__init__()
        self.fates = fates

    def message_action(self, src, dst, message, reply=False):
        if self.is_partitioned(src, dst):
            return _DROP
        fate = self.fates.get((message.id, message.attempt))
        if fate is None:
            return MessageVerdict()
        if fate == "drop":
            return _DROP
        return MessageVerdict(delay=fate)


#: The fate of one transmission: a drop or a delay, seconds.
FATES = st.one_of(st.just("drop"),
                  st.floats(min_value=1e-4, max_value=0.5))


@settings(deadline=None)
@given(to_server=st.booleans(), same_node=st.booleans(),
       gaps=st.lists(st.floats(min_value=0.0, max_value=0.05),
                     min_size=1, max_size=12),
       fates=st.lists(st.lists(FATES, max_size=4), max_size=12),
       partitions=st.lists(
           st.tuples(st.floats(min_value=0.0, max_value=1.0),
                     st.floats(min_value=0.0, max_value=2.0)),
           max_size=2))
def test_control_messages_arrive_once_and_in_send_order(
        to_server, same_node, gaps, fates, partitions):
    """Whatever drops, delays and healing partitions one direction of a
    connection meets, its payload-free control messages reach the
    receiver exactly as sent, each once, in send order.

    At most four transmissions of a message are scripted to drop, and
    each partition lasts at most 2 s, so every message gets through well
    within the user timeout."""
    env = Environment()
    network = Network(env)
    client = network.host("client")
    server = client if same_node else network.host("server")
    transport = GrpcTransport(env, network, client, server)
    receiver = RpcEndpoint(env, "receiver")
    sent = [Message(method="m", id=env.new_id("message"))
            for _ in gaps]
    plane = network.faults = ScriptedPlane({
        (message.id, attempt): fate
        for message, script in zip(sent, fates)
        for attempt, fate in enumerate(script)})
    for start, length in partitions:
        env.timeout(start).callbacks.append(
            lambda _: plane.partition(client.name, server.name))
        env.timeout(start + length).callbacks.append(
            lambda _: plane.heal(client.name, server.name))

    def sender():
        for gap, message in zip(gaps, sent):
            yield env.timeout(gap)
            if to_server:
                yield from transport.deliver_to_server(receiver, message)
            else:
                transport.deliver_to_client(receiver, message)

    env.process(sender())
    env.run()
    assert transport.broken is None
    assert len(receiver.inbox.items) == len(sent)
    assert all(got is want for got, want in zip(receiver.inbox.items, sent))
    assert receiver.delivered == len(sent)


def remote_rig():
    """A Sobel function on node A, warm on dm-B, with the op deadline
    guard armed far beyond the user timeout."""
    env = Environment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    manager = testbed.managers["dm-B"]
    router = PlatformRouter(
        env, testbed.network, testbed.library,
        recovery=RetryPolicy(op_deadline=3 * USER_TIMEOUT))
    router.add_manager(ManagerAddress.of(manager))
    app = SobelApp()

    def setup():
        platform = yield from router.connect(
            "fn-1", testbed.network.host("A"), manager.name)
        yield from app.setup(env, platform, None)

    env.run(until=env.process(setup()))
    (connection,) = router.connections
    failures = []
    fail_machine = connection._fail_machine

    def record(tag, error, code=None):
        if tag in connection._machines:
            failures.append((env.now, code, error))
        fail_machine(tag, error, code)

    connection._fail_machine = record
    return env, testbed, manager, connection, app, failures


def fail_request(env, app):
    """Run one request to its failure; returns the time it failed at."""
    with pytest.raises(CLError) as excinfo:
        env.run(until=env.process(app.handle(None)))
    assert excinfo.value.code == CL_DEVICE_NOT_AVAILABLE
    return env.now


class TestBreaks:
    def test_a_crash_fails_every_op_in_flight_at_once(self):
        env, _testbed, manager, connection, app, failures = remote_rig()
        crash_at = env.now + 2e-3  # mid-request
        env.timeout(2e-3).callbacks.append(lambda _: manager.crash())
        failed_at = fail_request(env, app)
        assert failed_at == crash_at
        assert len(failures) >= 2  # the write, the kernel and the read
        assert {(when, code) for when, code, _error in failures} == {
            (failed_at, CL_DEVICE_NOT_AVAILABLE)}
        assert all("crashed" in error for _when, _code, error in failures)
        assert connection.inflight == 0

    def test_a_partition_outlasting_the_user_timeout_breaks_it(self):
        env, testbed, manager, connection, app, failures = remote_rig()
        plane = testbed.network.faults = NetworkFaultPlane(seed=1)
        plane.partition("A", "B")
        started = env.now
        failed_at = fail_request(env, app)
        assert USER_TIMEOUT < failed_at - started < USER_TIMEOUT + 0.01
        assert len(failures) >= 2
        assert {(when, code) for when, code, _error in failures} == {
            (failed_at, CL_DEVICE_NOT_AVAILABLE)}
        # The manager's side of the connection closed with it.
        assert "fn-1" not in manager.sessions
        assert connection.inflight == 0
        env.run()
        assert manager.rejected_messages == 0


def test_a_break_releases_a_worker_waiting_on_write_data():
    """An op whose payload never came holds a worker on the session's
    ``WRITE_DATA``; the session's connection breaking releases it."""
    env = Environment()
    network = Network(env)
    node = network.host("B")
    manager = DeviceManager(env, "dm-B", FPGABoard(env), standard_library(),
                            network, node)

    def call(transport, method, payload):
        return (yield from unary_call(transport, manager.endpoint, method,
                                      payload, sender="client"))

    def session(transport):
        """Process: connect and make a buffer; returns its id."""
        yield from call(transport, protocol.CONNECT, {
            "transport": transport,
            "completion_queue": RpcEndpoint(env, "client/completions")})
        created = yield from call(transport, protocol.CREATE_BUFFER,
                                  {"size": 64})
        return created["buffer_id"]

    def stream(transport, method, payload, tag=None):
        yield from transport.deliver_to_server(manager.endpoint, Message(
            method=method, payload=payload, sender="client", tag=tag,
            id=env.new_id("message")))

    transport = ShmTransport(env, network, node, node)
    buffer_id = env.run(until=env.process(session(transport)))

    def stuck_write():
        yield from stream(transport, protocol.ENQUEUE_WRITE,
                          {"buffer_id": buffer_id, "nbytes": 64}, tag=1)
        yield from stream(transport, protocol.FLUSH, {})

    env.run(until=env.process(stuck_write()))
    env.run(until=env.now + 1.0)
    assert manager._busy_workers == 1  # waiting on the payload
    transport.break_connection("test")
    env.run(until=env.now + 1e-3)
    assert manager._busy_workers == 0
    assert manager.sessions == {} and manager._pending_writes == {}

    # The worker serves the next client.
    fresh = ShmTransport(env, network, node, node)
    buffer_id = env.run(until=env.process(session(fresh)))
    completions = manager.sessions["client"].completion_queue

    def marker():
        yield from stream(fresh, protocol.ENQUEUE_MARKER, {}, tag=2)
        yield from stream(fresh, protocol.FLUSH, {})

    env.run(until=env.process(marker()))
    env.run(until=env.now + 1e-3)
    assert [message.method for message in completions.inbox.items] == [
        protocol.OP_ENQUEUED, protocol.OP_COMPLETE]


def test_heartbeats_reconnect_after_a_partition_breaks_them():
    """A partition between a manager and the Registry that outlasts the
    user timeout breaks the heartbeat connection; the manager's lease
    expires, and once the partition heals the beater's new connection
    revives the device."""
    env = Environment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    registry = AcceleratorsRegistry(env, testbed.cluster,
                                    list(testbed.managers.values()))
    health = registry.enable_health(
        network=testbed.network,
        policy=HealthPolicy(heartbeat_interval=0.1, lease_timeout=0.4))
    plane = testbed.network.faults = NetworkFaultPlane(seed=1)
    plane.partition("B", health.host.name)
    env.run(until=USER_TIMEOUT + 1.0)
    assert [name for _when, name in health.failures_detected] == ["dm-B"]
    assert not registry.devices.get("dm-B").alive
    plane.heal("B", health.host.name)
    env.run(until=env.now + 1.0)
    assert [name for _when, name in health.recoveries_detected] == ["dm-B"]
    assert registry.devices.get("dm-B").alive
    health.stop()
