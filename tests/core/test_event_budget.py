"""Exact DES event budgets of the request path.

Events per request are deterministic, so these pins carry zero tolerance:
an extra event anywhere on the RPC path fails them.  The budget of each
hop is documented in docs/simulation.md ("Performance notes").
"""

import pytest

from repro.cluster import build_testbed
from repro.core.remote_lib import remote_platform
from repro.rpc import (
    Message,
    Network,
    RpcEndpoint,
    make_transport,
    send_to_client,
)
from repro.serverless import SobelApp
from repro.sim import Environment, SimError, Store
from repro.sim.events import NORMAL

#: DES events of one full-HD remote Sobel request (write, kernel,
#: blocking read over shared memory) on an idle board.
SOBEL_REQUEST_EVENTS = 39


class CountingEnvironment(Environment):
    """Counts every event passing through ``schedule``."""

    __slots__ = ("scheduled",)

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self.scheduled += 1
        super().schedule(event, delay, priority)


def local_transport(env):
    network = Network(env)
    host = network.host("A")
    return make_transport(env, network, host, host)


def test_remote_sobel_request_budget():
    env = CountingEnvironment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    app = SobelApp()

    def setup():
        platform = yield from remote_platform(
            env, "fn-1", testbed.network.host("B"), testbed.managers["dm-B"],
            testbed.network, testbed.library,
        )
        yield from app.setup(env, platform, None)

    env.run(until=env.process(setup()))
    env.run()
    for _ in range(3):
        before = env.scheduled
        env.process(app.handle(None))
        env.run()
        assert env.scheduled - before == SOBEL_REQUEST_EVENTS


def test_local_control_message_is_one_event():
    env = CountingEnvironment()
    transport = local_transport(env)
    spent = []

    def client(env):
        before = env.scheduled
        yield from transport.control_to_server()
        spent.append(env.scheduled - before)

    env.run(until=env.process(client(env)))
    assert spent == [1]


def test_notification_is_one_event():
    env = CountingEnvironment()
    transport = local_transport(env)
    received = []
    endpoint = RpcEndpoint(env, "completions", handler=received.append)
    message = Message(method="OpComplete", tag=7)
    arrival = send_to_client(transport, endpoint, message)
    assert env.scheduled == 1
    env.run()
    assert env.scheduled == 1
    assert received == [message]
    assert arrival.processed and env.now > 0


def test_put_nowait_schedules_nothing():
    env = CountingEnvironment()
    store = Store(env)
    store.put_nowait("a")
    assert env.scheduled == 0
    assert store.items == ["a"]


def test_put_nowait_wakes_a_waiting_getter_with_one_event():
    env = CountingEnvironment()
    store = Store(env)
    got = store.get()
    before = env.scheduled
    store.put_nowait("a")
    assert env.scheduled - before == 1  # the get's success only
    env.run()
    assert got.value == "a"


def test_put_nowait_refuses_a_full_store():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(SimError, match="full"):
        store.put_nowait("b")
    assert store.items == ["a"]
