"""Tests for the clGetEventProfilingInfo-style timestamps of an event."""

import pytest

from repro.fpga import FPGABoard, standard_library
from repro.ocl import Context, ProfilingInfo, native_platform
from repro.sim import Environment


@pytest.fixture
def platform():
    env = Environment()
    board = FPGABoard(env, functional=False)
    return env, native_platform(env, board, standard_library())


class TestEventProfilingInfo:
    def test_stamps_available_after_completion(self, platform):
        env, p = platform
        context = Context(p.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(1 << 20)

        def flow():
            event = queue.enqueue_write_buffer(buffer, nbytes=1 << 20)
            yield event.wait()
            return event

        event = env.run(until=env.process(flow()))
        assert event.profiling[ProfilingInfo.END] > \
            event.profiling[ProfilingInfo.QUEUED]
