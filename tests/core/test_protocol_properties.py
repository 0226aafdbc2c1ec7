"""Property-based tests of the remote protocol's ordering guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device_manager import DeviceManager
from repro.core.remote_lib import remote_platform
from repro.fpga import FPGABoard, standard_library
from repro.ocl import Context
from repro.rpc import Network
from repro.sim import Environment

BUF_BYTES = 64


def _rig():
    env = Environment()
    network = Network(env)
    library = standard_library()
    node = network.host("B")
    board = FPGABoard(env, functional=True)
    manager = DeviceManager(env, "dm-B", board, library, network, node)
    return env, network, library, node, manager


def _payload(seed: int) -> bytes:
    return bytes((seed * 31 + i) % 256 for i in range(BUF_BYTES))


class TestFlushBoundaryProperties:
    @given(
        # Writes annotated with "flush after this one?"; final read always
        # observes the LAST write regardless of flush grouping.
        writes=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000),
                      st.booleans()),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_last_write_wins_for_any_flush_grouping(self, writes):
        env, network, library, node, manager = _rig()

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(BUF_BYTES)
            for seed, flush in writes:
                queue.enqueue_write_buffer(buffer, _payload(seed))
                if flush:
                    queue.flush()
            data = yield from queue.read_buffer(buffer)
            return data

        data = env.run(until=env.process(flow()))
        assert data == _payload(writes[-1][0])

    @given(
        group_sizes=st.lists(st.integers(min_value=1, max_value=4),
                             min_size=1, max_size=5)
    )
    @settings(max_examples=20, deadline=None)
    def test_task_count_matches_flush_groups(self, group_sizes):
        """Each nonempty flush group becomes exactly one task."""
        env, network, library, node, manager = _rig()

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(BUF_BYTES)
            events = []
            for size in group_sizes:
                for index in range(size):
                    events.append(
                        queue.enqueue_write_buffer(buffer,
                                                   _payload(index))
                    )
                queue.flush()
            from repro.ocl import wait_for_events

            yield wait_for_events(events)

        env.run(until=env.process(flow()))
        assert manager.metrics.get("tasks_total").labels().value == len(group_sizes)
        total_ops = sum(group_sizes)
        assert manager.metrics.get("ops_total").labels("write").value == \
            total_ops

    @given(seeds=st.lists(st.integers(min_value=0, max_value=1000),
                          min_size=2, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_reads_observe_program_order(self, seeds):
        """write_i → read_i pairs: every read returns its own write."""
        env, network, library, node, manager = _rig()

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(BUF_BYTES)
            reads = []
            for seed in seeds:
                queue.enqueue_write_buffer(buffer, _payload(seed))
                reads.append(queue.enqueue_read_buffer(buffer))
            queue.flush()
            from repro.ocl import wait_for_events

            yield wait_for_events(reads)
            return [event.value for event in reads]

        results = env.run(until=env.process(flow()))
        assert results == [_payload(seed) for seed in seeds]
