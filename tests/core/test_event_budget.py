"""Exact DES event budgets of the request path.

Events per request are deterministic, so these pins carry zero tolerance:
an extra event anywhere on the RPC path fails them.  The budget of each
hop is documented in docs/simulation.md ("Performance notes").
"""

import pytest

from repro.cluster import build_testbed
from repro.core.device_manager import (
    DeviceManager,
    Operation,
    OpType,
    Task,
    protocol,
)
from repro.core.remote_lib import remote_platform
from repro.fpga import FPGABoard, standard_library
from repro.ocl.objects import CLEvent
from repro.ocl.types import CommandType, ExecutionStatus
from repro.rpc import (
    GrpcTransport,
    Message,
    Network,
    RpcEndpoint,
    ShmTransport,
    make_transport,
    send_to_client,
    unary_call,
)
from repro.serverless import SobelApp
from repro.sim import Environment, Resource, SimError, Store
from repro.sim.events import NORMAL

#: DES events of one full-HD remote Sobel request (write, kernel,
#: blocking read over shared memory) on an idle board.  The write's and
#: the kernel's CLEvent completions cost nothing: nobody waits on them,
#: and each payload rides in the event of the message that carries it.
SOBEL_REQUEST_EVENTS = 22


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


def payload_cost(transport_class, to_server):
    """Events one payload-carrying message costs over a same-node
    transport, with the message it delivers and the copies recorded."""
    env = CountingEnvironment()
    network = Network(env)
    host = network.host("A")
    transport = transport_class(env, network, host, host)
    received = []
    endpoint = RpcEndpoint(env, "endpoint", handler=received.append)
    message = Message(method="Payload", tag=7)

    def sender():
        yield from transport.deliver_to_server(endpoint, message, 4096)

    if to_server:
        env.process(sender())
        env.run()
        spent = env.scheduled - 1  # the sender process's start
    else:
        transport.deliver_to_client(endpoint, message, 4096)
        env.run()
        spent = env.scheduled
    assert received == [message]
    return spent, transport.stats.copies


def test_shared_memory_read_result_is_one_event():
    # The read's data and its OP_COMPLETE: the memcpy and the message.
    assert payload_cost(ShmTransport, to_server=False) == (1, 1)


def test_local_grpc_payload_is_one_event():
    # Protobuf and two copies, the local-stack wire copy, then the message.
    assert payload_cost(GrpcTransport, to_server=True) == (1, 3)
    assert payload_cost(GrpcTransport, to_server=False) == (1, 3)


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


def connected_manager(env):
    """A Device Manager with one connected client, run until quiet."""
    network = Network(env)
    node = network.host("B")
    manager = DeviceManager(env, "dm-B", FPGABoard(env), standard_library(),
                            network, node)
    transport = make_transport(env, network, node, node)
    completions = RpcEndpoint(env, "client/completions",
                              handler=lambda message: None)

    def connect():
        yield from unary_call(
            transport, manager.endpoint, protocol.CONNECT,
            {"transport": transport, "completion_queue": completions},
            sender="client",
        )

    env.run(until=env.process(connect()))
    env.run()
    return manager, transport


def streamed_costs(messages):
    """Events each streamed ``(method, payload[, nbytes])`` message costs,
    sent in order to one manager under one tag; ``nbytes`` is the size of
    the bulk payload the message carries on the data plane."""
    env = CountingEnvironment()
    manager, transport = connected_manager(env)
    spent = []

    def client():
        for method, payload, *nbytes in messages:
            before = env.scheduled
            yield from transport.deliver_to_server(
                manager.endpoint,
                Message(method=method, payload=payload, sender="client",
                        tag=1), *nbytes)
            spent.append(env.scheduled - before)

    env.run(until=env.process(client()))
    return manager, spent


def test_streamed_message_into_an_idle_manager_is_its_arrival_only():
    # A flush with no open task: the handler schedules nothing.
    assert streamed_costs([(protocol.FLUSH, {"queue": 0})])[1] == [1]


def test_streamed_enqueue_is_its_arrival_and_its_notification():
    assert streamed_costs([(protocol.ENQUEUE_MARKER, {"queue": 0})])[1] == [2]


def submitted_cost(count):
    """Events from submitting ``count`` one-marker tasks to an idle
    manager until it is quiet again."""
    env = CountingEnvironment()
    manager, _transport = connected_manager(env)
    before = env.scheduled
    for tag in range(count):
        task = Task("client", 0)
        task.append(Operation(type=OpType.MARKER, client="client",
                              queue_id=0, tag=tag))
        manager._submit(task)
    env.run()
    return env.scheduled - before


def test_queued_task_is_taken_without_an_event():
    # The first task wakes the waiting worker (its get's success), then
    # costs its operation's OP_OVERHEAD Timeout and notification.  The
    # second is queued when the worker comes back: taking it is free.
    one = submitted_cost(1)
    assert one == 3
    assert submitted_cost(2) - one == 2


def test_uncontended_grant_schedules_nothing():
    env = CountingEnvironment()
    resource = Resource(env, capacity=1)
    request = resource.request()
    assert env.scheduled == 0
    assert request.processed and resource.users == [request]


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


def test_write_payload_before_the_worker_waits_is_its_arrival_only():
    # The write sits in the open task, so nobody waits on its payload yet:
    # its data_ready settles without an event.
    manager, spent = streamed_costs([
        (protocol.ENQUEUE_WRITE, {"queue": 0, "nbytes": 16, "buffer_id": 1}),
        (protocol.WRITE_DATA, {"data": bytes(16)}),
    ])
    assert spent == [2, 1]
    operation = manager.accumulator.flush("client", 0).operations[0]
    assert operation.data_ready.processed and operation.data == bytes(16)


def test_payload_carrying_message_into_an_idle_manager_is_one_event():
    # The BUFFER step: the payload's memcpy rides in the WriteData
    # message's arrival event.
    manager, spent = streamed_costs([
        (protocol.ENQUEUE_WRITE, {"queue": 0, "nbytes": 16, "buffer_id": 1}),
        (protocol.WRITE_DATA, {"data": bytes(16)}, 16),
    ])
    assert spent == [2, 1]
    assert manager.accumulator.flush("client", 0).operations[0].data_ready \
        .processed


def cl_event(env):
    event = CLEvent(env, CommandType.WRITE_BUFFER)
    event.set_status(ExecutionStatus.SUBMITTED)
    event.set_status(ExecutionStatus.RUNNING)
    return event


def test_unwatched_cl_event_completion_schedules_nothing():
    env = CountingEnvironment()
    event = cl_event(env)
    event.complete("done")
    assert env.scheduled == 0
    assert event.completion.processed and event.completion.value == "done"


def test_waited_cl_event_completion_is_one_event():
    env = CountingEnvironment()
    event = cl_event(env)
    got = []

    def host():
        got.append((yield event.wait()))

    env.process(host())
    env.run()
    before = env.scheduled
    event.complete("done")
    assert env.scheduled - before == 1
    env.run()
    assert got == ["done"]


def test_unjoined_process_end_schedules_nothing():
    env = CountingEnvironment()

    def worker():
        yield env.timeout(1.0)
        return "done"

    process = env.process(worker())
    env.run()
    assert env.scheduled == 2  # its start and its timeout, not its end
    assert process.processed and process.value == "done"


def test_unjoined_process_failure_still_raises_from_run():
    env = CountingEnvironment()

    def worker():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(worker())
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env.scheduled == 3  # the failure keeps its event
