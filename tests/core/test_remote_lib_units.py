"""Focused unit tests for Remote OpenCL Library internals."""

import pytest

from repro.core.device_manager import DeviceManager, protocol
from repro.core.remote_lib import (
    FsmState,
    ManagerAddress,
    PlatformRouter,
    RemoteEventMachine,
    remote_platform,
)
from repro.fpga import FPGABoard, standard_library
from repro.ocl import CLError, CommandType, Context
from repro.ocl.objects import CLEvent
from repro.rpc import Message, Network
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    network = Network(env)
    library = standard_library()
    node = network.host("B")
    board = FPGABoard(env, functional=True)
    manager = DeviceManager(env, "dm-B", board, library, network, node)
    return env, network, library, node, board, manager


def run(env, generator):
    return env.run(until=env.process(generator))


def _note(env, method, **fields):
    """A notification as the Device Manager would send it."""
    return Message(method=method, id=env.new_id("message"), **fields)


class TestRouter:
    def test_empty_router_raises(self, rig):
        env, network, library, node, *_ = rig
        router = PlatformRouter(env, network, library)
        with pytest.raises(LookupError, match="no Device Managers"):
            run(env, router.connect("c", node))

    def test_unknown_manager_name(self, rig):
        env, network, library, node, board, manager = rig
        router = PlatformRouter(env, network, library)
        router.add_manager(ManagerAddress.of(manager))
        with pytest.raises(LookupError, match="unknown Device Manager"):
            run(env, router.connect("c", node, "dm-Z"))

    def test_default_manager_is_first_sorted(self, rig):
        env, network, library, node, board, manager = rig
        router = PlatformRouter(env, network, library)
        router.add_manager(ManagerAddress.of(manager))
        platform = run(env, router.connect("c", node))
        assert platform.driver.connection.manager_endpoint is \
            manager.endpoint

    def test_remove_manager(self, rig):
        env, network, library, node, board, manager = rig
        router = PlatformRouter(env, network, library)
        router.add_manager(ManagerAddress.of(manager))
        router.remove_manager("dm-B")
        assert router.managers() == []


class TestEventMachineProtocol:
    class FakeConnection:
        def __init__(self):
            self.forgotten = []
            self.writes = []

        def forget(self, tag):
            self.forgotten.append(tag)

        def stream_write_data(self, tag, payload, nbytes):
            self.writes.append((tag, nbytes))

    def make_machine(self, env, write=False):
        event = CLEvent(env, CommandType.WRITE_BUFFER if write
                        else CommandType.READ_BUFFER)
        connection = self.FakeConnection()
        machine = RemoteEventMachine(
            connection, event,
            write_payload=b"x" if write else None,
            write_nbytes=1 if write else 0,
        )
        return machine, event, connection

    def test_read_walks_init_first_complete(self):
        env = Environment()
        machine, event, _ = self.make_machine(env)
        machine.on_notification(_note(env, protocol.OP_ENQUEUED))
        assert machine.state is FsmState.FIRST
        machine.on_notification(_note(env, protocol.OP_COMPLETE,
                                      payload={"data": b"hi"}))
        assert machine.state is FsmState.COMPLETE
        env.run()
        assert event.value == b"hi"

    def test_write_passes_buffer_state_and_sends_data(self):
        env = Environment()
        machine, event, connection = self.make_machine(env, write=True)
        machine.on_notification(_note(env, protocol.OP_ENQUEUED))
        assert machine.state is FsmState.BUFFER
        assert connection.writes == [(machine.tag, 1)]

    def test_duplicate_enqueued_is_protocol_violation(self):
        env = Environment()
        machine, event, _ = self.make_machine(env)
        machine.on_notification(_note(env, protocol.OP_ENQUEUED))
        machine.on_notification(_note(env, protocol.OP_ENQUEUED))
        assert machine.state is FsmState.FAILED
        assert event.status < 0

    def test_unknown_notification_fails_machine(self):
        env = Environment()
        machine, event, _ = self.make_machine(env)
        machine.on_notification(_note(env, "Bogus"))
        assert machine.state is FsmState.FAILED

    def test_failure_carries_error_text(self):
        env = Environment()
        machine, event, _ = self.make_machine(env)
        machine.on_notification(_note(
            env, protocol.OP_FAILED, payload={"error": "board on fire"}
        ))
        env.run()
        with pytest.raises(CLError, match="board on fire"):
            raise event.completion.value

    def test_machine_forgotten_after_terminal_state(self):
        env = Environment()
        machine, event, connection = self.make_machine(env)
        machine.on_notification(_note(env, protocol.OP_ENQUEUED))
        machine.on_notification(_note(env, protocol.OP_COMPLETE))
        assert connection.forgotten == [machine.tag]


class TestEagerResourceFailures:
    def test_failed_buffer_fails_dependent_ops_locally(self, rig):
        """OOM buffer: the gated enqueue fails without reaching the DM."""
        env, network, library, node, board, manager = rig

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            huge = context.create_buffer(board.spec.memory_bytes * 2)
            event = queue.enqueue_read_buffer(huge, nbytes=16)
            queue.flush()
            try:
                yield event.wait()
            except CLError as exc:
                return exc
            return None

        error = run(env, flow())
        assert error is not None
        # The op never reached the manager (no tasks executed).
        assert manager.metrics.get("tasks_total").value == 0

    def test_release_buffer_frees_remote_memory(self, rig):
        env, network, library, node, board, manager = rig

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            buffer = context.create_buffer(2048)
            yield env.timeout(0.05)
            assert board.memory.used == 2048
            buffer.release()
            yield env.timeout(0.05)
            return board.memory.used

        assert run(env, flow()) == 0

    def test_double_release_is_idempotent(self, rig):
        env, network, library, node, board, manager = rig

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            buffer = context.create_buffer(64)
            yield env.timeout(0.05)
            buffer.release()
            buffer.release()
            yield env.timeout(0.05)
            return board.memory.used

        assert run(env, flow()) == 0
