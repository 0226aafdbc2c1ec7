"""Integration tests: Remote OpenCL Library ↔ Device Manager ↔ board.

These exercise the paper's transparency claim — identical host code against
the native vendor runtime and against BlastFunction — and the Device
Manager's task batching, isolation, reconfiguration and metrics.
"""

import numpy as np
import pytest

from repro.core.device_manager import DeviceManager
from repro.core.remote_lib import FsmState, remote_platform
from repro.fpga import FPGABoard, standard_library
from repro.kernels import sobel_reference
from repro.ocl import CLError, Context, native_platform
from repro.rpc import Network
from repro.sim import AllOf, Environment


@pytest.fixture
def rig():
    """One node with a board, a Device Manager and the standard library."""
    env = Environment()
    network = Network(env)
    library = standard_library()
    node = network.host("B")
    board = FPGABoard(env, name="fpga-B", functional=True)
    manager = DeviceManager(env, "dm-B", board, library, network, node)
    return env, network, library, node, board, manager


def run(env, generator):
    return env.run(until=env.process(generator))


def connect(env, network, library, node, manager, client="fn-1",
            prefer_shm=True):
    """Process: obtain a remote platform for a client on `node`."""
    platform = yield from remote_platform(
        env, client, node, manager, network, library, prefer_shm=prefer_shm
    )
    return platform


class TestConnection:
    def test_platform_identifies_blastfunction(self, rig):
        env, network, library, node, board, manager = rig
        platform = run(env, connect(env, network, library, node, manager))
        assert "BlastFunction" in platform.name
        assert manager.connected_clients == 1

    def test_device_info_reports_board(self, rig):
        env, network, library, node, board, manager = rig
        platform = run(env, connect(env, network, library, node, manager))
        device = platform.get_devices()[0]
        assert "DE5a-Net" in device.name
        assert device.global_mem_size == board.spec.memory_bytes


class TestDataPath:
    def test_write_read_roundtrip(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(16)
            yield from queue.write_buffer(buffer, b"0123456789abcdef")
            data = yield from queue.read_buffer(buffer)
            return data

        assert run(env, flow(env)) == b"0123456789abcdef"

    def test_buffer_allocated_on_board(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            context.create_buffer(4096)
            # Give the eager allocation a moment to land server-side.
            yield env.timeout(0.01)

        run(env, flow(env))
        assert board.memory._used == 4096

    def test_oom_fails_dependent_operations(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            queue = context.create_queue()
            huge = context.create_buffer(board.spec.memory_bytes + 1)
            try:
                yield from queue.write_buffer(huge, nbytes=64)
            except CLError as exc:
                return exc
            return None

        error = run(env, flow(env))
        assert error is not None


class TestTransparency:
    """The same host function body runs on either platform."""

    @staticmethod
    def sobel_host(env, platform, image):
        """Host code written once against the OpenCL object model."""
        height, width = image.shape
        context = Context(platform.get_devices())
        queue = context.create_queue()
        program = context.create_program("sobel")
        yield from program.build()
        kernel = program.create_kernel("sobel")
        in_buf = context.create_buffer(image.nbytes)
        out_buf = context.create_buffer(image.nbytes)
        kernel.set_args(in_buf, out_buf, width, height)
        yield from queue.write_buffer(in_buf, image)
        yield from queue.run_kernel(kernel)
        data = yield from queue.read_buffer(out_buf)
        context.release()
        return np.frombuffer(data, dtype=np.uint32).reshape(image.shape)

    def test_identical_results_native_vs_remote(self, rig):
        env, network, library, node, board, manager = rig
        rng = np.random.default_rng(11)
        image = rng.integers(0, 4096, size=(16, 16), dtype=np.uint32)

        def remote_flow(env):
            platform = yield from connect(env, network, library, node, manager)
            result = yield from self.sobel_host(env, platform, image)
            return result

        remote_result = run(env, remote_flow(env))

        env2 = Environment()
        board2 = FPGABoard(env2, functional=True)
        platform2 = native_platform(env2, board2, standard_library())

        def native_flow(env):
            result = yield from self.sobel_host(env, platform2, image)
            return result

        native_result = env2.run(until=env2.process(native_flow(env2)))
        np.testing.assert_array_equal(remote_result, native_result)
        np.testing.assert_array_equal(remote_result, sobel_reference(image))

    def test_remote_overhead_is_small_constant(self, rig):
        """Fig. 4(b): BlastFunction shm ≈ native + ~2 ms."""
        env, network, library, node, board, manager = rig
        image = np.zeros((64, 64), dtype=np.uint32)

        def remote_flow(env):
            platform = yield from connect(env, network, library, node, manager)
            start = env.now
            yield from self.sobel_host(env, platform, image)
            return env.now - start

        remote_time = run(env, remote_flow(env))

        env2 = Environment()
        board2 = FPGABoard(env2, functional=True)
        platform2 = native_platform(env2, board2, standard_library())

        def native_flow(env):
            start = env.now
            yield from self.sobel_host(env, platform2, image)
            return env.now - start

        native_time = env2.run(until=env2.process(native_flow(env2)))
        overhead = remote_time - native_time
        assert 0.5e-3 < overhead < 4e-3

    def test_grpc_slower_than_shm(self, rig):
        env, network, library, node, board, manager = rig
        image = np.zeros((256, 256), dtype=np.uint32)

        def flow(env, prefer_shm):
            platform = yield from remote_platform(
                env, f"fn-shm-{prefer_shm}", node, manager, network, library,
                prefer_shm=prefer_shm,
            )
            start = env.now
            yield from self.sobel_host(env, platform, image)
            return env.now - start

        run(env, flow(env, True))  # warm-up: pays the one-time reconfiguration
        shm_time = run(env, flow(env, True))
        grpc_time = run(env, flow(env, False))
        assert grpc_time > shm_time


class TestTaskBatching:
    def test_tasks_execute_atomically_fifo(self, rig):
        """Two clients' tasks must not interleave on the board."""
        env, network, library, node, board, manager = rig
        order = []
        board.add_busy_listener(
            lambda dt, kind: order.append((manager._current_client, kind))
        )

        # Expose the executing client through a tiny manager hook.
        manager._current_client = None
        original = manager._run_operation

        def tracking_run(operation):
            manager._current_client = operation.client
            ok = yield from original(operation)
            return ok

        manager._run_operation = tracking_run

        def client_flow(env, name):
            platform = yield from connect(
                env, network, library, node, manager, client=name
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            program = context.create_program("sobel")
            yield from program.build()
            kernel = program.create_kernel("sobel")
            nbytes = 128 * 128 * 4
            in_buf = context.create_buffer(nbytes)
            out_buf = context.create_buffer(nbytes)
            kernel.set_args(in_buf, out_buf, 128, 128)
            queue.enqueue_write_buffer(in_buf, nbytes=nbytes)
            queue.enqueue_kernel(kernel)
            queue.enqueue_read_buffer(out_buf)
            yield from queue.finish()

        def main(env):
            yield AllOf(env, [env.process(client_flow(env, "fn-a")),
                              env.process(client_flow(env, "fn-b"))])

        run(env, main(env))
        # Strip reconfigurations; remaining ops must form contiguous
        # per-client runs of 3 (write, kernel, read).
        op_clients = [client for client, kind in order if kind != "reconfigure"]
        assert len(op_clients) == 6
        assert op_clients[:3] == [op_clients[0]] * 3
        assert op_clients[3:] == [op_clients[3]] * 3
        assert op_clients[0] != op_clients[3]

    def test_marker_only_finish_completes(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            queue = context.create_queue()
            yield from queue.finish()
            return True

        assert run(env, flow(env))


class TestIsolationAndLifecycle:
    def test_sessions_have_independent_buffers(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            p1 = yield from connect(env, network, library, node, manager, "fn-a")
            p2 = yield from connect(env, network, library, node, manager, "fn-b")
            c1 = Context(p1.get_devices())
            c2 = Context(p2.get_devices())
            q1 = c1.create_queue()
            q2 = c2.create_queue()
            b1 = c1.create_buffer(8)
            b2 = c2.create_buffer(8)
            yield from q1.write_buffer(b1, b"AAAAAAAA")
            yield from q2.write_buffer(b2, b"BBBBBBBB")
            d1 = yield from q1.read_buffer(b1)
            d2 = yield from q2.read_buffer(b2)
            return d1, d2

        d1, d2 = run(env, flow(env))
        assert d1 == b"AAAAAAAA"
        assert d2 == b"BBBBBBBB"
        assert manager.connected_clients == 2

    def test_disconnect_frees_resources(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            context.create_buffer(1024)
            yield env.timeout(0.01)
            assert board.memory._used == 1024
            yield from platform.driver.connection.disconnect()

        run(env, flow(env))
        assert manager.connected_clients == 0
        assert board.memory._used == 0

    def test_reconfiguration_via_remote_build(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            program = context.create_program("mm")
            before = env.now
            yield from program.build()
            first_build = env.now - before
            before = env.now
            yield from context.create_program("mm").build()
            second_build = env.now - before
            return first_build, second_build

        first_build, second_build = run(env, flow(env))
        assert first_build >= board.spec.reconfiguration_time
        assert second_build < 0.1
        assert board.bitstream.name == "mm"
        assert manager.metrics.get("reconfigurations_total").labels().value == 1

    def test_metrics_exported(self, rig):
        env, network, library, node, board, manager = rig

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(1 << 20)
            yield from queue.write_buffer(buffer, nbytes=1 << 20)
            yield from queue.read_buffer(buffer)

        run(env, flow(env))
        metrics = manager.metrics
        assert metrics.get("busy_seconds_total").labels().value > 0
        assert metrics.get("tasks_total").labels().value == 2
        client_busy = metrics.get("client_busy_seconds_total")
        assert client_busy.labels("fn-1").value > 0
        assert metrics.get("connected_clients").labels().value == 1


class TestEventStateMachine:
    def test_write_machine_passes_buffer_state(self, rig):
        env, network, library, node, board, manager = rig
        states = []

        def flow(env):
            platform = yield from connect(env, network, library, node, manager)
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(64)
            event = queue.enqueue_write_buffer(buffer, b"x" * 64)
            connection = platform.driver.connection
            machine = connection._machines.get(event.id)
            states.append(machine.state)
            queue.flush()
            yield event.wait()
            states.append(machine.state)
            return connection

        connection = run(env, flow(env))
        assert states[0] is FsmState.INIT
        assert states[1] is FsmState.COMPLETE
        assert connection.inflight == 0  # machines are reclaimed
