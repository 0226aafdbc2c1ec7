"""Tests for clEnqueueCopyBuffer on both runtimes."""

import pytest

from repro.core.device_manager import DeviceManager
from repro.core.remote_lib import remote_platform
from repro.fpga import FPGABoard, standard_library
from repro.ocl import CLError, Context, native_platform
from repro.ocl.errors import CL_INVALID_VALUE
from repro.rpc import Network
from repro.sim import Environment


def run(env, generator):
    return env.run(until=env.process(generator))


class TestNativeCopy:
    @pytest.fixture
    def setup(self):
        env = Environment()
        board = FPGABoard(env, functional=True)
        platform = native_platform(env, board, standard_library())
        context = Context(platform.get_devices())
        queue = context.create_queue()
        return env, board, context, queue

    def test_copy_preserves_data(self, setup):
        env, board, context, queue = setup
        src = context.create_buffer(16)
        dst = context.create_buffer(16)

        def flow():
            yield from queue.write_buffer(src, b"0123456789abcdef")
            event = queue.enqueue_copy_buffer(src, dst)
            yield event.wait()
            data = yield from queue.read_buffer(dst)
            return data

        assert run(env, flow()) == b"0123456789abcdef"

    def test_copy_with_offsets(self, setup):
        env, board, context, queue = setup
        src = context.create_buffer(8)
        dst = context.create_buffer(8)

        def flow():
            yield from queue.write_buffer(src, b"ABCDEFGH")
            event = queue.enqueue_copy_buffer(
                src, dst, nbytes=4, src_offset=2, dst_offset=1
            )
            yield event.wait()
            data = yield from queue.read_buffer(dst)
            return data

        assert run(env, flow())[1:5] == b"CDEF"

    def test_copy_does_not_touch_pcie(self, setup):
        env, board, context, queue = setup
        src = context.create_buffer(1 << 20)
        dst = context.create_buffer(1 << 20)

        def flow():
            event = queue.enqueue_copy_buffer(src, dst)
            yield event.wait()

        before = board.link.transfer_count
        run(env, flow())
        assert board.link.transfer_count == before

    def test_copy_time_uses_ddr_bandwidth(self, setup):
        env, board, context, queue = setup
        nbytes = 100_000_000
        src = context.create_buffer(nbytes)
        dst = context.create_buffer(nbytes)

        def flow():
            start = env.now
            event = queue.enqueue_copy_buffer(src, dst)
            yield event.wait()
            return env.now - start

        elapsed = run(env, flow())
        assert elapsed == pytest.approx(
            nbytes / FPGABoard.DDR_COPY_BANDWIDTH, rel=0.05
        )

    def test_out_of_bounds_rejected(self, setup):
        env, board, context, queue = setup
        src = context.create_buffer(8)
        dst = context.create_buffer(4)
        with pytest.raises(CLError) as excinfo:
            queue.enqueue_copy_buffer(src, dst, nbytes=8)
        assert excinfo.value.code == CL_INVALID_VALUE


class TestRemoteCopy:
    def test_copy_through_device_manager(self):
        env = Environment()
        network = Network(env)
        library = standard_library()
        node = network.host("B")
        board = FPGABoard(env, functional=True)
        manager = DeviceManager(env, "dm-B", board, library, network, node)

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            src = context.create_buffer(16)
            dst = context.create_buffer(16)
            yield from queue.write_buffer(src, b"remote-copy-data")
            event = queue.enqueue_copy_buffer(src, dst)
            queue.flush()
            yield event.wait()
            data = yield from queue.read_buffer(dst)
            return data

        assert run(env, flow()) == b"remote-copy-data"
        assert manager.metrics.get("ops_total").labels("copy").value == 1

    def test_copy_batched_into_task(self):
        """write+copy+read flushed together form one atomic task."""
        env = Environment()
        network = Network(env)
        library = standard_library()
        node = network.host("B")
        board = FPGABoard(env, functional=True)
        manager = DeviceManager(env, "dm-B", board, library, network, node)

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            src = context.create_buffer(8)
            dst = context.create_buffer(8)
            queue.enqueue_write_buffer(src, b"batched!")
            queue.enqueue_copy_buffer(src, dst)
            data = yield from queue.read_buffer(dst)
            return data

        assert run(env, flow()) == b"batched!"
        assert manager.metrics.get("tasks_total").labels().value == 1
