"""Exact DES event budgets of the request path.

Events per request are deterministic, so these pins carry zero tolerance:
an extra event anywhere on the RPC path fails them.  The budget of each
hop is documented in docs/simulation.md ("Performance notes").
"""

from dataclasses import replace

import pytest

from repro.cluster import build_testbed
from repro.cluster.objects import Pod, PodSpec
from repro.core.device_manager import (
    DeviceManager,
    Operation,
    OpType,
    Task,
    make_scheduler,
    protocol,
)
from repro.core.remote_lib import remote_platform
from repro.core.remote_lib.connection import Connection
from repro.faults import GatewayPolicy, NetworkFaultPlane
from repro.fpga import DE5A_NET, FPGABoard, standard_library
from repro.ocl import Context
from repro.ocl.native import native_platform
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
from repro.serverless import FunctionApp, FunctionSpec, Gateway, SobelApp
from repro.serverless.gateway import DeployedFunction
from repro.serverless.instance import FunctionInstance
from repro.sim import Environment, Resource, Store
from repro.sim.events import NORMAL

#: DES events of one full-HD remote Sobel request (write, kernel,
#: blocking read over shared memory) on an idle board.  The write's and
#: the kernel's CLEvent completions cost nothing: nobody waits on them,
#: and each payload rides in the event of the message that carries it.
#: The stream sender's and the worker's wake-ups, the reply to the unary
#: call and the blocking read's completion are hand-offs.  Each of the
#: three operations is one event: its overhead and its board step.
SOBEL_REQUEST_EVENTS = 15

#: The same request with its client on node A and its Device Manager on
#: node B: gRPC over 1 Gb Ethernet, with both NICs idle.  Each of the 11
#: control messages (5 streamed to the manager, 6 notifications) is 2
#: events: the end of its handling overhead, which books its bytes on the
#: sending NIC, and its arrival.  Each of the 2 payloads (the write's
#: ``WriteData``, the read's result) adds 1, at its encode end.  With the
#: 3 board operations and the request's start: 11 * 2 + 2 + 3 + 1.
CROSS_NODE_SOBEL_REQUEST_EVENTS = 28


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


def sobel_request_costs(client_node, transport_class):
    """Events of three remote Sobel requests, one after the other, from a
    client on ``client_node`` to the Device Manager of node B."""
    env = CountingEnvironment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    app = SobelApp()

    def setup():
        platform = yield from remote_platform(
            env, "fn-1", testbed.network.host(client_node),
            testbed.managers["dm-B"], testbed.network, testbed.library,
        )
        yield from app.setup(env, platform, None)

    env.run(until=env.process(setup()))
    env.run()
    (session,) = testbed.managers["dm-B"].sessions.values()
    assert type(session.transport) is transport_class
    spent = []
    for _ in range(3):
        before = env.scheduled
        env.process(app.handle(None))
        env.run()
        spent.append(env.scheduled - before)
    return spent


def test_remote_sobel_request_budget():
    assert sobel_request_costs("B", ShmTransport) == \
        [SOBEL_REQUEST_EVENTS] * 3


def test_cross_node_remote_sobel_request_budget():
    assert sobel_request_costs("A", GrpcTransport) == \
        [CROSS_NODE_SOBEL_REQUEST_EVENTS] * 3


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
    message = Message(id=env.new_id("message"), method="Payload", tag=7)

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
    message = Message(id=env.new_id("message"), method="OpComplete", tag=7)
    arrival = send_to_client(transport, endpoint, message)
    assert env.scheduled == 1
    env.run()
    assert env.scheduled == 1
    assert received == [message]
    assert arrival.callbacks is None and env.now > 0


def connected_manager(env, slots=1, workers=None):
    """A Device Manager with one connected client, run until quiet; its
    board has ``slots`` PR slots and the manager, by default, one worker
    per slot."""
    network = Network(env)
    node = network.host("B")
    board = FPGABoard(env, spec=replace(DE5A_NET, pr_slots=slots))
    manager = DeviceManager(env, "dm-B", board, standard_library(),
                            network, node, workers=workers)
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
                        id=env.new_id("message"),
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
        task = Task("client", 0, env.new_id("task"))
        task.append(Operation(type=OpType.MARKER, client="client",
                              queue_id=0, tag=tag))
        manager._submit(task)
    env.run()
    return env.scheduled - before


def test_queued_task_is_taken_without_an_event():
    # The first task is handed to the waiting worker, then costs its
    # operation's OP_OVERHEAD Timeout and notification.  The second is
    # queued when the worker comes back: taking it is free.
    one = submitted_cost(1)
    assert one == 2
    assert submitted_cost(2) - one == 2


def test_task_pushed_to_a_waiting_worker_is_handed_off():
    # Every policy: the heap-ordered ones unwrap an entry as it is taken.
    for policy in ("fifo", "sjf", "wfq"):
        env = CountingEnvironment()
        scheduler = make_scheduler(policy, env)
        taken = []

        def worker():
            taken.append((yield scheduler.pop()))

        env.process(worker())
        env.run()
        before = env.scheduled
        task = Task("client", 0, env.new_id("task"))
        scheduler.push(task, 0.0)
        assert env.scheduled - before == 0, policy
        assert taken == [task], policy


def copy_cost(slots, workers=None):
    """Events of one device-side copy task, submitted to an idle manager
    whose board has ``slots`` PR slots, until it is quiet again."""
    env = CountingEnvironment()
    manager, _transport = connected_manager(env, slots, workers)
    session = manager.sessions["client"]
    src, dst = manager.board.allocate(4096), manager.board.allocate(4096)
    session.buffers.update({src.id: src, dst.id: dst})
    before = env.scheduled
    task = Task("client", 0, env.new_id("task"))
    task.append(Operation(type=OpType.COPY, client="client", queue_id=0,
                          tag=1, buffer_id=src.id, dst_buffer_id=dst.id,
                          nbytes=4096))
    manager._submit(task)
    env.run()
    return env.scheduled - before


def test_a_solo_board_operation_is_one_event():
    # One worker, one slot: the overhead and the copy are one event, the
    # notification the other.
    assert copy_cost(1) == 2


def test_a_space_sharing_board_operation_is_still_two_events():
    # Two slots: the overhead Timeout, then the copy's, with one worker
    # per slot or a single worker.
    assert copy_cost(2) == 3
    assert copy_cost(2, workers=1) == 3


def test_dm_message_under_a_fault_plane_costs_no_event():
    # A verdict is keyed by the message, not drawn in event order, so an
    # idle manager serves on arrival under a fault plane too.
    env = CountingEnvironment()
    manager, _transport = connected_manager(env)
    manager.network.faults = NetworkFaultPlane(seed=1)
    before = env.scheduled
    manager.endpoint.deliver(Message(method=protocol.FLUSH,
                                     id=env.new_id("message"),
                                     payload={"queue": 0}, sender="client"))
    env.run()
    assert env.scheduled - before == 0


def test_native_command_queue_wake_up_is_one_event():
    # A command reaches the native queue's worker by a scheduled get, so
    # the command is still QUEUED when enqueue returns.
    env = CountingEnvironment()
    platform = native_platform(env, FPGABoard(env), standard_library())
    queue = Context(platform.get_devices()).create_queue()
    env.run()
    before = env.scheduled
    event = queue.enqueue_marker()
    assert env.scheduled - before == 1
    assert event._status is ExecutionStatus.QUEUED


def test_stream_item_into_an_idle_sender_is_its_arrival_only():
    # The idle sender takes the item inside stream_send and sends it at
    # once: the message's arrival is the only event.
    env = CountingEnvironment()
    manager, transport = connected_manager(env)
    connection = Connection(env, "client", manager.network, transport.client,
                            manager.endpoint, transport.server)
    env.run()
    before = env.scheduled
    connection.stream_send(protocol.FLUSH, {"queue": 0})
    assert env.scheduled - before == 1
    env.run()
    assert env.scheduled - before == 1
    assert manager.endpoint.delivered == 2  # CONNECT and the flush


def test_uncontended_grant_schedules_nothing():
    env = CountingEnvironment()
    resource = Resource(env, capacity=1)
    request = resource.request()
    assert env.scheduled == 0
    assert request.callbacks is None and resource.users == [request]


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


def test_write_payload_before_the_worker_waits_is_its_arrival_only():
    # The write sits in the open task, so nobody waits on its payload yet:
    # its data_ready settles without an event.
    manager, spent = streamed_costs([
        (protocol.ENQUEUE_WRITE, {"queue": 0, "nbytes": 16, "buffer_id": 1}),
        (protocol.WRITE_DATA, {"data": bytes(16)}),
    ])
    assert spent == [2, 1]
    operation = manager.accumulator.flush("client", 0).operations[0]
    assert (operation.data_ready.callbacks is None
            and operation.data == bytes(16))


def test_payload_carrying_message_into_an_idle_manager_is_one_event():
    # The BUFFER step: the payload's memcpy rides in the WriteData
    # message's arrival event.
    manager, spent = streamed_costs([
        (protocol.ENQUEUE_WRITE, {"queue": 0, "nbytes": 16, "buffer_id": 1}),
        (protocol.WRITE_DATA, {"data": bytes(16)}, 16),
    ])
    assert spent == [2, 1]
    assert manager.accumulator.flush("client", 0).operations[0].data_ready \
        .callbacks is None


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
    assert (event.completion.callbacks is None
            and event.completion.value == "done")


def test_waited_cl_event_completion_hands_off():
    # The lone waiting host process resumes inside complete().
    env = CountingEnvironment()
    event = cl_event(env)
    got = []

    def host():
        got.append((yield event.wait()))

    env.process(host())
    env.run()
    before = env.scheduled
    event.complete("done")
    assert env.scheduled - before == 0
    assert got == ["done"]


class EchoApp(FunctionApp):
    """Answers each request after one simulated millisecond, and records
    the events scheduled when it starts handling one."""

    host_overhead = 1e-3

    def setup(self, env, platform, node):
        self.env = env
        self.handled = []
        return
        yield  # pragma: no cover - marks a generator

    def handle(self, request):
        self.handled.append(self.env.scheduled)
        yield self.env.timeout(1e-3)
        return request.payload


def echo_gateway(policy=None):
    """A gateway in front of one idle native echo instance."""
    env = CountingEnvironment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    gateway = Gateway(env, cluster=None, policy=policy)
    spec = FunctionSpec(name="echo", app_factory=EchoApp, runtime="native")
    function = gateway.functions["echo"] = DeployedFunction(env, spec)
    instance = FunctionInstance(
        env, function, Pod(PodSpec(name="echo-i1", function="echo")),
        testbed.cluster.node("A"), router=None)
    env.run()
    return env, gateway, instance


def invocation_costs():
    """Events from an invoke's start until an idle native instance starts
    handling it, and from there until the invoke returns."""
    env, gateway, instance = echo_gateway()
    spent = []

    def client():
        start = env.scheduled
        _latency, result = yield from gateway.invoke("echo", {"n": 1})
        spent.extend([instance.app.handled[0] - start,
                      env.scheduled - instance.app.handled[0]])
        assert result == {"n": 1}

    env.process(client())
    env.run()
    return spent


def test_request_into_an_idle_instance_is_handed_off():
    # The gateway's and the instance's overhead Timeouts; the waiting
    # instance takes the request without an event.
    assert invocation_costs()[0] == 2


def test_response_to_a_waiting_gateway_is_handed_off():
    # The handler's own Timeout; the gateway resumes inside the settle.
    assert invocation_costs()[1] == 1


def sequential_invocations_cost(policy, count):
    """Events of ``count`` invokes, one after the other, until quiet."""
    env, gateway, _instance = echo_gateway(policy)
    before = env.scheduled

    def client():
        for n in range(count):
            yield from gateway.invoke("echo", {"n": n})

    env.process(client())
    env.run()
    return env.scheduled - before


def test_a_request_deadline_is_one_timer_per_gateway():
    # Answered attempts cost what they cost with no deadline: the gateway
    # arms one timer, for the oldest deadline, and the attempt waits on
    # its response alone.
    plain = sequential_invocations_cost(GatewayPolicy(), 3)
    timed = sequential_invocations_cost(GatewayPolicy(request_timeout=2.0),
                                        3)
    assert timed == plain + 1


def test_unjoined_process_end_schedules_nothing():
    env = CountingEnvironment()

    def worker():
        yield env.timeout(1.0)
        return "done"

    process = env.process(worker())
    env.run()
    assert env.scheduled == 2  # its start and its timeout, not its end
    assert process.callbacks is None and process.value == "done"


def test_unjoined_process_failure_still_raises_from_run():
    env = CountingEnvironment()

    def worker():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(worker())
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env.scheduled == 3  # the failure keeps its event
