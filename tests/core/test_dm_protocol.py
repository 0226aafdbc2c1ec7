"""Protocol-level Device Manager tests (raw messages, no remote library).

Exercises failure paths a well-behaved client never takes: unknown
resources, unknown methods, failed operations, disconnects with queued
work, and the batching-off mode.
"""

import pytest

from repro.core.device_manager import DeviceManager, protocol
from repro.fpga import FPGABoard, standard_library
from repro.ocl.errors import CL_DEVICE_NOT_AVAILABLE
from repro.rpc import Message, RpcEndpoint, RpcError, ShmTransport, unary_call
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    from repro.rpc import Network

    network = Network(env)
    node = network.host("B")
    board = FPGABoard(env, functional=True)
    manager = DeviceManager(env, "dm-B", board, standard_library(),
                            network, node)
    transport = ShmTransport(env, network, node, node)
    completions = RpcEndpoint(env, "client/completions")
    return env, manager, transport, completions


def connect(env, manager, transport, completions, client="raw-client"):
    def flow():
        result = yield from unary_call(
            transport, manager.endpoint, protocol.CONNECT,
            {"transport": transport, "completion_queue": completions},
            sender=client,
        )
        return result

    return env.run(until=env.process(flow()))


def call(env, manager, transport, method, payload, client="raw-client"):
    def flow():
        result = yield from unary_call(
            transport, manager.endpoint, method, payload, sender=client
        )
        return result

    return env.run(until=env.process(flow()))


def stream(env, manager, transport, method, payload, tag=None,
           client="raw-client"):
    """Deliver a streamed (no-reply) message with transport delay."""

    def flow():
        yield from transport.control_to_server()
        manager.endpoint.deliver(Message(
            id=env.new_id("message"),
            method=method, payload=payload, sender=client, tag=tag
        ))

    env.run(until=env.process(flow()))


class TestUnaryErrors:
    def test_unknown_method_replies_error(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        with pytest.raises(RpcError, match="unknown method"):
            call(env, manager, transport, "NoSuchMethod", {})

    def test_release_unknown_buffer_replies_error(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        with pytest.raises(RpcError, match="unknown buffer"):
            call(env, manager, transport, protocol.RELEASE_BUFFER,
                 {"buffer_id": 999})

    def test_unknown_bitstream_build_replies_error(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        with pytest.raises(RpcError, match="unknown bitstream"):
            call(env, manager, transport, protocol.BUILD_PROGRAM,
                 {"binary": "missing"})

    def test_unknown_kernel_replies_error(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        with pytest.raises(RpcError):
            call(env, manager, transport, protocol.CREATE_KERNEL,
                 {"binary": "sobel", "name": "missing_kernel"})

    def test_oom_create_buffer_replies_error(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        with pytest.raises(RpcError):
            call(env, manager, transport, protocol.CREATE_BUFFER,
                 {"size": 16 * 1024 ** 3})


class TestOperationFailures:
    def test_kernel_with_unknown_id_notifies_failure(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        stream(env, manager, transport, protocol.ENQUEUE_KERNEL,
               {"queue": 0, "kernel_id": 42, "args": []}, tag=7)
        stream(env, manager, transport, protocol.FLUSH, {"queue": 0})

        def collect():
            while True:
                message = yield completions.inbox.get()
                if message.method == protocol.OP_FAILED:
                    return message

        message = env.run(until=env.process(collect()))
        assert message.tag == 7
        assert "no kernel" in message.payload["error"]

    def test_read_unknown_buffer_notifies_failure(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        stream(env, manager, transport, protocol.ENQUEUE_READ,
               {"queue": 0, "buffer_id": 5, "nbytes": 4}, tag=3)
        stream(env, manager, transport, protocol.FLUSH, {"queue": 0})

        def collect():
            while True:
                message = yield completions.inbox.get()
                if message.method == protocol.OP_FAILED:
                    return message

        message = env.run(until=env.process(collect()))
        assert message.tag == 3

    def test_mismatched_bitstream_kernel_fails(self, rig):
        """A kernel registered for one bitstream fails if another is live."""
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        result = call(env, manager, transport, protocol.CREATE_KERNEL,
                      {"binary": "sobel", "name": "sobel"})
        call(env, manager, transport, protocol.BUILD_PROGRAM,
             {"binary": "mm"})  # board now runs mm
        stream(env, manager, transport, protocol.ENQUEUE_KERNEL,
               {"queue": 0, "kernel_id": result["kernel_id"], "args": []},
               tag=9)
        stream(env, manager, transport, protocol.FLUSH, {"queue": 0})

        def collect():
            while True:
                message = yield completions.inbox.get()
                if message.method == protocol.OP_FAILED:
                    return message

        message = env.run(until=env.process(collect()))
        assert "needs bitstream" in message.payload["error"]


class TestLifecycle:
    def test_disconnect_discards_open_tasks(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        result = call(env, manager, transport, protocol.CREATE_BUFFER,
                      {"size": 64})
        stream(env, manager, transport, protocol.ENQUEUE_READ,
               {"queue": 0, "buffer_id": result["buffer_id"], "nbytes": 4},
               tag=1)
        # Never flushed; disconnect must clean up.
        call(env, manager, transport, protocol.DISCONNECT, {})
        assert manager.connected_clients == 0
        assert manager.accumulator.open_count() == 0
        assert manager.board.memory.used == 0

    def test_queued_task_of_disconnected_client_is_skipped(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        result = call(env, manager, transport, protocol.CREATE_BUFFER,
                      {"size": 64})
        stream(env, manager, transport, protocol.ENQUEUE_READ,
               {"queue": 0, "buffer_id": result["buffer_id"], "nbytes": 64},
               tag=1)
        stream(env, manager, transport, protocol.FLUSH, {"queue": 0})
        call(env, manager, transport, protocol.DISCONNECT, {})
        env.run(until=env.now + 1.0)
        # No crash; the worker dropped the orphaned task.
        assert manager.metrics.get("tasks_total").value >= 0

    def test_second_client_gets_distinct_session(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions, client="a")
        other_completions = RpcEndpoint(env, "b/completions")
        connect(env, manager, transport, other_completions, client="b")
        assert manager.connected_clients == 2
        assert set(manager.sessions) == {"a", "b"}

    def test_a_refused_reprogram_keeps_every_session_buffer(self, rig):
        # A locked-up board refuses BUILD_PROGRAM before reconfiguring, so
        # every buffer stays allocated: no session may lose its handle.
        env, manager, transport, completions = rig
        buffers = {}
        for client in ("a", "b"):
            connect(env, manager, transport,
                    RpcEndpoint(env, f"{client}/completions"), client=client)
            buffers[client] = call(env, manager, transport,
                                   protocol.CREATE_BUFFER, {"size": 8192},
                                   client=client)["buffer_id"]
        manager.board.lock_up()
        with pytest.raises(RpcError) as refused:
            call(env, manager, transport, protocol.BUILD_PROGRAM,
                 {"binary": "mm"}, client="a")
        assert refused.value.code == CL_DEVICE_NOT_AVAILABLE == -2
        assert {client: list(manager.sessions[client].buffers)
                for client in buffers} == {
                    client: [buffer_id]
                    for client, buffer_id in buffers.items()}
        assert manager.board.memory.used == 16384


class TestBatchingFlag:
    def test_batching_off_submits_per_op_tasks(self, rig):
        env, manager, transport, completions = rig
        manager.batching = False
        connect(env, manager, transport, completions)
        result = call(env, manager, transport, protocol.CREATE_BUFFER,
                      {"size": 64})
        for tag in (1, 2, 3):
            stream(env, manager, transport, protocol.ENQUEUE_READ,
                   {"queue": 0, "buffer_id": result["buffer_id"],
                    "nbytes": 4}, tag=tag)
        env.run(until=env.now + 1.0)
        # Three ops → three tasks, no flush needed.
        assert manager.metrics.get("tasks_total").value == 3
