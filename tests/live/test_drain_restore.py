"""Drain protocol + checkpoint/restore against real Device Managers.

The exactness bar: a drained board captured with :func:`capture_board`,
restored with ``exact=True`` onto an identically-programmed blank board
and captured again yields a **bit-identical** wire image (modulo the
board's own name and capture timestamp).
"""

import pytest

from repro.cluster import build_testbed
from repro.core.device_manager import Operation, OpType, Task
from repro.core.device_manager.manager import ClientSession
from repro.live import (
    CheckpointError,
    capture_board,
    capture_session,
    restore_session,
)
from repro.core.device_manager.protocol import OP_COMPLETE
from repro.faults import RegistryCrash
from repro.serverless import SobelApp
from repro.sim import Environment, Event
from repro.system import Load, SystemConfig, build_system


class FakeTransport:
    """Just enough of a transport for hand-built sessions."""

    def __init__(self, env):
        self.env = env
        self.delivered = []
        self.broken = None
        self.on_break = []

    def deliver_to_client(self, endpoint, message, nbytes=None):
        self.delivered.append(message)
        return self.env.timeout(0)


def make_pair(functional=True):
    env = Environment()
    testbed = build_testbed(env, functional=functional)
    a = testbed.managers["dm-A"]
    b = testbed.managers["dm-B"]

    def program():
        yield from a.board.program(testbed.library.get("sobel"))
        yield from b.board.program(testbed.library.get("sobel"))

    env.run(until=env.process(program()))
    return env, testbed, a, b


def drained(env, manager):
    env.run(until=env.process(manager.drain()))


def populate(env, manager, transport):
    """Hand-build a drained client session with every kind of state."""
    session = ClientSession("c1", transport, None)
    manager.sessions["c1"] = session
    session.kernels[1] = ("sobel", "sobel")
    session._next_kernel_id = 5

    big = manager.board.allocate(4096)
    small = manager.board.allocate(1024)
    if manager.board.functional:
        big.write(bytes(range(256)) * 16)
        small.write(b"\x2a" * 1024)
    session.buffers[big.id] = big
    session.buffers[small.id] = small

    # Queued work (diverted to the drain backlog): a marker task, then a
    # write whose payload already arrived, then one still pending.
    marker = Task("c1", 0, env.new_id("task"))
    marker.append(Operation(type=OpType.MARKER, client="c1", queue_id=0,
                            tag=11))
    manager._submit(marker)

    writes = Task("c1", 0, env.new_id("task"))
    writes.append(Operation(
        type=OpType.WRITE, client="c1", queue_id=0, tag=12,
        buffer_id=big.id, nbytes=16, data=b"y" * 16,
    ))
    pending = Operation(
        type=OpType.WRITE, client="c1", queue_id=0, tag=13,
        buffer_id=big.id, nbytes=32, data_ready=Event(env),
    )
    writes.append(pending)
    manager._submit(writes)
    manager._pending_writes[13] = pending

    # An unflushed accumulator operation.
    manager.accumulator.add(Operation(
        type=OpType.MARKER, client="c1", queue_id=1, tag=14,
    ))
    return session


class TestExactRestore:
    def test_round_trip_is_bit_identical(self):
        env, testbed, a, b = make_pair(functional=True)
        ta, tb = FakeTransport(env), FakeTransport(env)
        drained(env, a)
        drained(env, b)
        populate(env, a, ta)

        first = capture_board(a)
        assert a.sessions == {}
        assert 13 not in a._pending_writes

        for session in first.sessions:
            restore_session(b, session, tb, None, exact=True)
        assert 13 in b._pending_writes  # pending write re-armed

        second = capture_board(b)
        first.manager = second.manager = "board"
        first.captured_at = second.captured_at = 0.0
        assert second.to_wire() == first.to_wire()

    def test_restore_rejects_duplicate_session(self):
        env, testbed, a, b = make_pair(functional=False)
        ta = FakeTransport(env)
        drained(env, a)
        populate(env, a, ta)
        checkpoint = capture_session(a, "c1")
        b.sessions["c1"] = ClientSession("c1", ta, None)
        with pytest.raises(CheckpointError):
            restore_session(b, checkpoint, ta, None)

    def test_restore_out_of_memory_rolls_back(self):
        env, testbed, a, b = make_pair(functional=False)
        ta = FakeTransport(env)
        drained(env, a)
        populate(env, a, ta)
        checkpoint = capture_session(a, "c1")
        hog = b.board.allocate(b.board.memory.free)
        with pytest.raises(CheckpointError):
            restore_session(b, checkpoint, ta, None)
        assert "c1" not in b.sessions
        b.board.free(hog)
        assert len(b.board.memory) == 0  # nothing leaked by the rollback


class TestCapturePreconditions:
    def test_capture_requires_drained_manager(self):
        env, testbed, a, _b = make_pair(functional=False)
        a.sessions["c9"] = ClientSession("c9", FakeTransport(env), None)
        with pytest.raises(CheckpointError):
            capture_session(a, "c9")

    def test_capture_unknown_client(self):
        env, testbed, a, _b = make_pair(functional=False)
        drained(env, a)
        with pytest.raises(CheckpointError):
            capture_session(a, "nobody")


class TestDrainProtocol:
    def test_drain_defers_submits_until_resume(self):
        env, testbed, a, _b = make_pair(functional=False)
        transport = FakeTransport(env)
        drained(env, a)
        session = ClientSession("c1", transport, None)
        a.sessions["c1"] = session
        task = Task("c1", 0, env.new_id("task"))
        task.append(Operation(type=OpType.MARKER, client="c1", queue_id=0,
                              tag=11))
        a._submit(task)
        assert task in a._drain_backlog
        env.run(until=env.now + 0.05)
        assert not transport.delivered  # frozen: nothing executed

        a.resume()
        env.run(until=env.now + 0.05)
        tags = [m.tag for m in transport.delivered
                if m.method == OP_COMPLETE]
        assert tags == [11]
        assert a.drain_seconds > 0

    def test_worker_parks_at_op_boundary_and_suffix_is_stealable(self):
        env, testbed, a, _b = make_pair(functional=False)
        transport = FakeTransport(env)
        session = ClientSession("c1", transport, None)
        a.sessions["c1"] = session
        buffer = a.board.allocate(32 << 20)
        session.buffers[buffer.id] = buffer

        task = Task("c1", 0, env.new_id("task"))
        for tag in (21, 22):
            task.append(Operation(
                type=OpType.WRITE, client="c1", queue_id=0, tag=tag,
                buffer_id=buffer.id, nbytes=16 << 20, data=b"",
            ))
        a._submit(task)
        env.run(until=env.now + 1e-3)  # mid-way through the first DMA
        assert a._busy_workers == 1

        drained(env, a)  # returns only once the worker parked
        assert a._busy_workers == 0
        assert len(a._parked) == 1
        assert a._parked[0].index == 1  # first op done, second not started

        stolen = a.steal_parked_ops("c1")
        assert [op.tag for op in stolen] == [22]

        a.resume()
        env.run(until=env.now + 0.1)
        tags = [m.tag for m in transport.delivered
                if m.method == OP_COMPLETE]
        assert tags == [21]  # the stolen suffix never ran here


class TestMoveDuringRegistryBlackout:
    @pytest.mark.parametrize("registry_down", [False, True])
    def test_target_is_programmed_from_the_source_session(self,
                                                          registry_down):
        """A live move reads the bitstream the victim needs from its
        session on the source, so a Registry down at the move still gets
        the blank target programmed, and the function serves as if the
        Registry had stayed up."""
        env = Environment()
        system = build_system(env, SystemConfig(
            boards=2, migration="live", durability="durable"))
        registry, managers = system.registry, system.testbed.managers
        system.deploy([system.function_spec("sobel-0", SobelApp, "sobel")])
        (instance,) = system.controller.live_instances("sobel-0")
        name = instance.pod.name
        source = registry.functions.instance(name).device
        (target,) = set(managers) - {source}
        injector = RegistryCrash(registry)

        def move():
            yield env.timeout(0.5)
            yield from system.live_migrator.migrate(source, [(name, target)])

        def blackout():
            yield env.timeout(0.5)
            injector.kill()
            yield env.timeout(0.5)
            yield injector.restore()

        extra = [move()] + ([blackout()] if registry_down else [])
        (stats,) = system.drive([Load("sobel-0", 20.0, duration=6.0)],
                                extra=extra, settle=0.5)
        assert (stats.completed, stats.errors) == (26, 0)
        assert managers[target].board.reconfigurations == 1
        assert system.live_migrator.fallbacks == 0
