"""Device Manager dispatch on arrival.

An idle manager serves a message inside its arrival callback instead of
waking the serve process through the inbox.  A handler that waits (a
unary reply) is finished by the serve process, and messages arriving
meanwhile queue behind it.  A network fault plane changes none of this.
"""

import pytest

from repro.core.device_manager import DeviceManager, protocol
from repro.faults import NetworkFaultPlane
from repro.fpga import FPGABoard, standard_library
from repro.rpc import (
    Message,
    Network,
    RpcEndpoint,
    RpcError,
    ShmTransport,
    unary_call,
)
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    network = Network(env)
    node = network.host("B")
    manager = DeviceManager(env, "dm-B", FPGABoard(env, functional=True),
                            standard_library(), network, node)
    transport = ShmTransport(env, network, node, node)
    completions = RpcEndpoint(env, "client/completions")
    return env, manager, transport, completions


def logged(env, manager, log, on_start=lambda message: None):
    """Wrap every handler of ``manager`` to log its start and end, and
    whether it started inside the serve process or on arrival."""
    def start(self, method, message):
        where = ("serve" if env.active_process is self._serve_proc
                 else "arrival")
        log.append((method, message.tag, "start", where, env.now))
        on_start(message)

    def wrap(method, handler):
        # A streamed handler is a plain function, a unary one a generator.
        if method in protocol.STREAM_METHODS:
            def run(self, message):
                start(self, method, message)
                handler(self, message)
                log.append((method, message.tag, "end", env.now))
        else:
            def run(self, message):
                start(self, method, message)
                yield from handler(self, message)
                log.append((method, message.tag, "end", env.now))
        return run

    manager._METHODS = {method: wrap(method, handler)
                        for method, handler in manager._METHODS.items()}


def call(env, manager, transport, method, payload, **kwargs):
    def flow():
        result = yield from unary_call(
            transport, manager.endpoint, method, payload,
            sender="client", **kwargs)
        return result

    return env.process(flow())


def connect(env, manager, transport, completions):
    env.run(until=call(env, manager, transport, protocol.CONNECT, {
        "transport": transport, "completion_queue": completions,
    }))


def stream_at(env, manager, delay, method, tag):
    """Deliver a streamed message ``delay`` seconds from now."""
    message = Message(method=method, payload={"queue": 0},
                      id=env.new_id("message"),
                      sender="client", tag=tag)
    env.timeout(delay).callbacks.append(
        lambda _: manager.endpoint.deliver(message))


def test_idle_manager_serves_on_arrival(rig):
    env, manager, transport, completions = rig
    log = []
    logged(env, manager, log)
    connect(env, manager, transport, completions)
    stream_at(env, manager, 1e-3, protocol.ENQUEUE_MARKER, "m")
    env.run()
    starts = [entry[:4] for entry in log if entry[2] == "start"]
    assert starts == [(protocol.CONNECT, None, "start", "arrival"),
                      (protocol.ENQUEUE_MARKER, "m", "start", "arrival")]
    assert manager._idle


def test_stream_messages_during_a_reply_run_after_it_in_order(rig):
    env, manager, transport, completions = rig
    connect(env, manager, transport, completions)

    def during_reply(message):
        if message.method == protocol.GET_PLATFORM_INFO:
            # Two stream messages land while the reply is on the wire.
            stream_at(env, manager, 1e-6, protocol.ENQUEUE_MARKER, 1)
            stream_at(env, manager, 2e-6, protocol.ENQUEUE_MARKER, 2)
            env.timeout(3e-6).callbacks.append(
                lambda _: queued.append(len(manager.endpoint.inbox.items)))

    log = []
    queued = []
    logged(env, manager, log, on_start=during_reply)
    env.run(until=call(env, manager, transport,
                       protocol.GET_PLATFORM_INFO, {}))
    env.run()
    assert queued == [2]
    assert [entry[:4] for entry in log] == [
        (protocol.GET_PLATFORM_INFO, None, "start", "arrival"),
        (protocol.GET_PLATFORM_INFO, None, "end", log[1][3]),
        (protocol.ENQUEUE_MARKER, 1, "start", "serve"),
        (protocol.ENQUEUE_MARKER, 1, "end", log[3][3]),
        (protocol.ENQUEUE_MARKER, 2, "start", "serve"),
        (protocol.ENQUEUE_MARKER, 2, "end", log[5][3]),
    ]
    reply_sent = log[1][3]
    assert log[2][4] == reply_sent > log[0][4]
    assert manager._idle


def test_crash_while_a_reply_is_pending_leaves_no_stale_state(rig):
    env, manager, transport, completions = rig
    connect(env, manager, transport, completions)

    def crash_mid_reply(message):
        if not log[1:]:
            env.timeout(1e-6).callbacks.append(lambda _: manager.crash())

    log = []
    logged(env, manager, log, on_start=crash_mid_reply)
    info = call(env, manager, transport, protocol.GET_PLATFORM_INFO, {})
    # The crash breaks the connection: the call fails at once.
    with pytest.raises(RpcError, match="connection broken"):
        env.run(until=info)
    assert env.now < 1e-3
    # Started on arrival, never finished: no reply went out.
    assert [entry[2:4] for entry in log] == [("start", "arrival")]
    assert not manager.alive and not manager._idle
    env.run()
    assert manager.endpoint.inbox.items == []

    # A dead manager serves nothing: the message waits for the restart.
    stream_at(env, manager, 1e-3, protocol.ENQUEUE_MARKER, "late")
    env.run()
    assert len(manager.endpoint.inbox.items) == 1 and len(log) == 1
    manager.restart()
    env.run()
    assert manager._idle
    transport = ShmTransport(env, manager.network, manager.node, manager.node)
    connect(env, manager, transport, completions)
    assert env.run(until=call(env, manager, transport,
                              protocol.GET_PLATFORM_INFO, {}))["version"]
    assert [entry[1:4] for entry in log if entry[2] == "start"] == [
        (None, "start", "arrival"), ("late", "start", "serve"),
        (None, "start", "arrival"), (None, "start", "arrival")]
    assert manager._idle


def test_a_stopped_manager_serves_nothing_on_arrival(rig):
    env, manager, transport, completions = rig
    log = []
    logged(env, manager, log)
    env.run()
    manager.stop()
    stream_at(env, manager, 1e-3, protocol.ENQUEUE_MARKER, "m")
    env.run()
    assert log == [] and len(manager.endpoint.inbox.items) == 1


def test_under_a_fault_plane_an_idle_manager_serves_on_arrival(rig):
    env, manager, transport, completions = rig
    manager.network.faults = NetworkFaultPlane(seed=3)
    log = []
    logged(env, manager, log)
    connect(env, manager, transport, completions)
    stream_at(env, manager, 1e-3, protocol.ENQUEUE_MARKER, "m")
    env.run()
    assert [entry[3] for entry in log if entry[2] == "start"] == [
        "arrival", "arrival"]


def _tie_order(faults):
    """Whether an unrelated event due at a streamed message's arrival
    instant sees the message served, when queued before and after it."""
    env = Environment()
    network = Network(env)
    node = network.host("B")
    manager = DeviceManager(env, "dm-B", FPGABoard(env), standard_library(),
                            network, node)
    network.faults = faults
    env.run()
    seen = []
    env.timeout(0.5).callbacks.append(
        lambda _: seen.append(("before", manager.rejected_messages)))
    # A streamed message nobody can serve: its handler counts a rejection.
    message = Message(method=protocol.WRITE_DATA, sender="nobody", tag=9,
                      id=env.new_id("message"))
    env.timeout(0.5).callbacks.append(
        lambda _: manager.endpoint.deliver(message))
    env.timeout(0.5).callbacks.append(
        lambda _: seen.append(("after", manager.rejected_messages)))
    env.run()
    assert manager.rejected_messages == 1
    return seen


def test_ties_at_the_arrival_instant():
    """An event due at the arrival instant and queued after the message
    runs after its handler, which is served on arrival; an event queued
    before the message runs before it.  A fault plane changes neither."""
    assert _tie_order(None) == [("before", 0), ("after", 1)]
    assert _tie_order(NetworkFaultPlane(seed=1)) == [
        ("before", 0), ("after", 1)]
