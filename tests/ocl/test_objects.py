"""Tests for the OpenCL object model over the native driver."""

import numpy as np
import pytest

from repro.fpga import FPGABoard, standard_library
from repro.ocl import (
    CLError,
    CommandType,
    Context,
    DeviceType,
    ExecutionStatus,
    MemFlags,
    NativeDriverProfile,
    native_platform,
    wait_for_events,
)
from repro.ocl.errors import (
    CL_INVALID_ARG_INDEX,
    CL_INVALID_BINARY,
    CL_INVALID_COMMAND_QUEUE,
    CL_INVALID_CONTEXT,
    CL_INVALID_EVENT_WAIT_LIST,
    CL_INVALID_KERNEL_ARGS,
    CL_INVALID_KERNEL_NAME,
    CL_INVALID_MEM_OBJECT,
    CL_INVALID_VALUE,
    CL_MEM_OBJECT_ALLOCATION_FAILURE,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def library():
    return standard_library()


@pytest.fixture
def platform(env, library):
    board = FPGABoard(env, name="fpga0", functional=True)
    return native_platform(env, board, library)


def run(env, generator):
    return env.run(until=env.process(generator))


class TestDiscovery:
    def test_platform_reports_vendor(self, platform):
        assert "Intel" in platform.vendor
        assert "FPGA SDK" in platform.name

    def test_get_devices_by_type(self, platform):
        accelerators = platform.get_devices(DeviceType.ACCELERATOR)
        assert len(accelerators) == 1
        assert platform.get_devices(DeviceType.GPU) == []

    def test_device_reports_board_memory(self, platform):
        device = platform.get_devices()[0]
        assert device.global_mem_size == 8 * 1024**3
        assert "DE5a-Net" in device.name


class TestContextAndBuffers:
    def test_context_requires_devices(self):
        with pytest.raises(CLError) as excinfo:
            Context([])
        assert excinfo.value.code == CL_INVALID_VALUE

    def test_buffer_allocates_device_memory(self, platform):
        context = Context(platform.get_devices())
        context.create_buffer(1024)
        assert platform.driver.board.memory._used == 1024

    def test_buffer_release_frees_memory(self, platform):
        context = Context(platform.get_devices())
        buffer = context.create_buffer(1024)
        buffer.release()
        assert platform.driver.board.memory._used == 0

    def test_context_release_frees_everything(self, platform):
        context = Context(platform.get_devices())
        context.create_buffer(100)
        context.create_buffer(200)
        context.release()
        assert platform.driver.board.memory._used == 0
        with pytest.raises(CLError) as excinfo:
            context.create_buffer(10)
        assert excinfo.value.code == CL_INVALID_CONTEXT

    def test_zero_size_buffer_rejected(self, platform):
        context = Context(platform.get_devices())
        with pytest.raises(CLError) as excinfo:
            context.create_buffer(0)
        assert excinfo.value.code == CL_INVALID_VALUE

    def test_device_oom_maps_to_cl_error(self, platform):
        context = Context(platform.get_devices())
        with pytest.raises(CLError) as excinfo:
            context.create_buffer(9 * 1024**3)
        assert excinfo.value.code == CL_MEM_OBJECT_ALLOCATION_FAILURE

    def test_copy_host_ptr_requires_data(self, platform):
        context = Context(platform.get_devices())
        with pytest.raises(CLError):
            context.create_buffer(16, MemFlags.COPY_HOST_PTR)


class TestProgramAndKernel:
    def test_build_reconfigures_board(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("sobel")
        run(env, program.build())
        board = platform.driver.board
        assert board.bitstream.name == "sobel"
        assert env.now == pytest.approx(board.spec.reconfiguration_time)

    def test_rebuild_same_binary_is_free(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("sobel")
        run(env, program.build())
        before = env.now
        run(env, context.create_program("sobel").build())
        assert env.now == before

    def test_unknown_binary_rejected(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("nonexistent")
        with pytest.raises(CLError) as excinfo:
            run(env, program.build())
        assert excinfo.value.code == CL_INVALID_BINARY

    def test_create_kernel_before_build_rejected(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("sobel")
        with pytest.raises(CLError):
            program.create_kernel("sobel")

    def test_unknown_kernel_name_rejected(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("sobel")
        run(env, program.build())
        with pytest.raises(CLError) as excinfo:
            program.create_kernel("mm")
        assert excinfo.value.code == CL_INVALID_KERNEL_NAME

    def test_kernel_arity_exposed(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("mm")
        run(env, program.build())
        kernel = program.create_kernel("mm")
        assert kernel.set_args(*[None] * 6) is None
        with pytest.raises(CLError):
            kernel.set_args(None)

    def test_set_arg_index_validated(self, env, platform):
        context = Context(platform.get_devices())
        program = context.create_program("sobel")
        run(env, program.build())
        kernel = program.create_kernel("sobel")
        with pytest.raises(CLError) as excinfo:
            kernel.set_arg(4, 1)
        assert excinfo.value.code == CL_INVALID_ARG_INDEX

    def test_enqueue_with_unset_args_rejected(self, env, platform):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        program = context.create_program("sobel")
        run(env, program.build())
        kernel = program.create_kernel("sobel")
        kernel.set_arg(2, 10)
        with pytest.raises(CLError) as excinfo:
            queue.enqueue_kernel(kernel)
        assert excinfo.value.code == CL_INVALID_KERNEL_ARGS


class TestCommandQueue:
    def _sobel_setup(self, env, platform, width=8, height=8):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        program = context.create_program("sobel")
        run(env, program.build())
        kernel = program.create_kernel("sobel")
        nbytes = width * height * 4
        in_buf = context.create_buffer(nbytes)
        out_buf = context.create_buffer(nbytes)
        kernel.set_args(in_buf, out_buf, width, height)
        return context, queue, kernel, in_buf, out_buf

    def test_blocking_write_read_roundtrip(self, env, platform):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(16)

        def flow(env):
            yield from queue.write_buffer(buffer, b"0123456789abcdef")
            data = yield from queue.read_buffer(buffer)
            return data

        assert run(env, flow(env)) == b"0123456789abcdef"

    def test_sobel_end_to_end_through_api(self, env, platform):
        width = height = 10
        _, queue, kernel, in_buf, out_buf = self._sobel_setup(
            env, platform, width, height
        )
        rng = np.random.default_rng(0)
        image = rng.integers(0, 1000, size=(height, width), dtype=np.uint32)

        def flow(env):
            yield from queue.write_buffer(in_buf, image)
            yield from queue.run_kernel(kernel)
            data = yield from queue.read_buffer(out_buf)
            return np.frombuffer(data, dtype=np.uint32).reshape(height, width)

        result = run(env, flow(env))
        from repro.kernels import sobel_reference

        np.testing.assert_array_equal(result, sobel_reference(image))

    def test_async_events_and_statuses(self, env, platform):
        _, queue, kernel, in_buf, out_buf = self._sobel_setup(env, platform)
        statuses = []

        def flow(env):
            event = queue.enqueue_kernel(kernel)
            statuses.append(event._status)
            yield event.wait()
            statuses.append(event._status)
            return event

        event = run(env, flow(env))
        assert statuses == [ExecutionStatus.QUEUED, ExecutionStatus.COMPLETE]
        assert event.is_complete

    def test_profiling_timestamps_ordered(self, env, platform):
        from repro.ocl import ProfilingInfo

        _, queue, kernel, *_ = self._sobel_setup(env, platform)

        def flow(env):
            event = yield from queue.run_kernel(kernel)
            return event

        event = run(env, flow(env))
        p = event.profiling
        assert (
            p[ProfilingInfo.QUEUED]
            <= p[ProfilingInfo.SUBMIT]
            <= p[ProfilingInfo.START]
            <= p[ProfilingInfo.END]
        )
        assert p[ProfilingInfo.END] > p[ProfilingInfo.START]

    def test_in_order_execution(self, env, platform):
        """Commands on one queue complete in enqueue order."""
        context = Context(platform.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(1 << 20)
        completions = []

        def flow(env):
            events = [
                queue.enqueue_write_buffer(buffer, nbytes=1 << 20)
                for _ in range(4)
            ]
            for event in events:
                event.wait().callbacks.append(
                    lambda _, ev=event: completions.append(ev.id))
            yield wait_for_events(events)
            return [event.id for event in events]

        expected = run(env, flow(env))
        assert completions == expected

    def test_finish_waits_for_all(self, env, platform):
        _, queue, kernel, in_buf, _ = self._sobel_setup(env, platform, 64, 64)

        def flow(env):
            queue.enqueue_write_buffer(in_buf, nbytes=in_buf.size)
            kernel_event = queue.enqueue_kernel(kernel)
            yield from queue.finish()
            return kernel_event

        event = run(env, flow(env))
        assert event.is_complete

    def test_wait_list_defers_execution(self, env, platform):
        """A command with a wait list waits for events from another queue."""
        context = Context(platform.get_devices())
        q1 = context.create_queue()
        q2 = context.create_queue()
        big = context.create_buffer(64 << 20)
        small = context.create_buffer(64)

        def flow(env):
            slow = q1.enqueue_write_buffer(big, nbytes=big.size)
            gated = q2.enqueue_write_buffer(
                small, nbytes=64, wait_for=[slow]
            )
            yield gated.wait()
            return slow, gated

        slow, gated = run(env, flow(env))
        from repro.ocl import ProfilingInfo

        assert (
            gated.profiling[ProfilingInfo.START]
            >= slow.profiling[ProfilingInfo.END]
        )

    def test_marker_completes_after_prior_work(self, env, platform):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(32 << 20)

        def flow(env):
            write = queue.enqueue_write_buffer(buffer, nbytes=buffer.size)
            marker = queue.enqueue_marker()
            yield marker.wait()
            assert write.is_complete

        run(env, flow(env))

    def test_out_of_bounds_write_rejected(self, env, platform):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(16)
        with pytest.raises(CLError) as excinfo:
            queue.enqueue_write_buffer(buffer, b"x" * 17)
        assert excinfo.value.code == CL_INVALID_VALUE

    def test_released_queue_rejected(self, env, platform):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        queue.release()
        with pytest.raises(CLError) as excinfo:
            queue.enqueue_marker()
        assert excinfo.value.code == CL_INVALID_COMMAND_QUEUE

    def test_released_buffer_rejected(self, env, platform):
        context = Context(platform.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(16)
        buffer.release()
        with pytest.raises(CLError) as excinfo:
            queue.enqueue_read_buffer(buffer)
        assert excinfo.value.code == CL_INVALID_MEM_OBJECT

    def test_empty_wait_for_events_rejected(self, env):
        with pytest.raises(CLError) as excinfo:
            wait_for_events([])
        assert excinfo.value.code == CL_INVALID_EVENT_WAIT_LIST

    def test_sync_delay_applied_on_blocking_calls(self, env, library):
        profile = NativeDriverProfile(
            launch_overhead=0.0, sync_overhead_idle=5e-3
        )
        board = FPGABoard(env, functional=False)
        platform = native_platform(env, board, library, profile)
        context = Context(platform.get_devices())
        queue = context.create_queue()
        buffer = context.create_buffer(100)

        def flow(env):
            yield from queue.write_buffer(buffer, nbytes=100)

        run(env, flow(env))
        transfer = board.link.spec.transfer_time(100)
        assert env.now == pytest.approx(transfer + 5e-3)

    def test_loaded_flag_increases_sync_delay(self, env, library):
        board = FPGABoard(env, functional=False)
        platform = native_platform(env, board, library)
        driver = platform.driver
        idle = driver.host_sync_delay()
        driver.loaded = True
        assert driver.host_sync_delay() > idle
