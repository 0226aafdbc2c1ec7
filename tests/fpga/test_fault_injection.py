"""Fault injection: device failures must surface cleanly at every layer."""

import pytest

from repro.core.device_manager import DeviceManager
from repro.core.remote_lib import remote_platform
from repro.fpga import FPGABoard, KernelFault, standard_library
from repro.ocl import CLError, Context, native_platform
from repro.rpc import Network
from repro.sim import AllOf, Environment


def every_nth(n):
    """Deterministic injector: fail every n-th kernel run (0-indexed)."""
    return lambda kernel_name, run_index: (run_index + 1) % n == 0


class TestBoardLevel:
    def test_injected_fault_raises_kernel_fault(self):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, functional=False)
        board.fault_injector = lambda name, index: True
        env.run(until=env.process(board.program(library.get("sobel"))))
        bufs = [board.allocate(400) for _ in range(2)]

        def flow():
            yield from board.execute("sobel", [*bufs, 10, 10])

        with pytest.raises(KernelFault):
            env.run(until=env.process(flow()))

    def test_fault_still_counts_busy_time(self):
        """A hung/aborted kernel still occupied the device."""
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, functional=False)
        board.fault_injector = lambda name, index: True
        env.run(until=env.process(board.program(library.get("sobel"))))
        bufs = [board.allocate(400) for _ in range(2)]
        busy_before = board.busy_seconds

        def flow():
            try:
                yield from board.execute("sobel", [*bufs, 10, 10])
            except KernelFault:
                pass

        env.run(until=env.process(flow()))
        assert board.busy_seconds > busy_before

    def test_selective_injection(self):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, functional=False)
        board.fault_injector = every_nth(2)  # fail runs 1, 3, 5, ...
        env.run(until=env.process(board.program(library.get("sobel"))))
        bufs = [board.allocate(400) for _ in range(2)]
        outcomes = []

        def flow():
            for _ in range(4):
                try:
                    yield from board.execute("sobel", [*bufs, 10, 10])
                    outcomes.append("ok")
                except KernelFault:
                    outcomes.append("fault")

        env.run(until=env.process(flow()))
        assert outcomes == ["ok", "fault", "ok", "fault"]


class TestNativeRuntime:
    def test_fault_becomes_cl_error(self):
        env = Environment()
        board = FPGABoard(env, functional=False)
        board.fault_injector = lambda name, index: True
        platform = native_platform(env, board, standard_library())
        context = Context(platform.get_devices())
        queue = context.create_queue()

        def flow():
            program = context.create_program("sobel")
            yield from program.build()
            kernel = program.create_kernel("sobel")
            a = context.create_buffer(400)
            b = context.create_buffer(400)
            kernel.set_args(a, b, 10, 10)
            try:
                yield from queue.run_kernel(kernel)
            except CLError as exc:
                return exc
            return None

        error = env.run(until=env.process(flow()))
        assert error is not None
        assert "failed on board" in str(error)


class TestRemoteRuntime:
    def test_fault_notified_through_device_manager(self):
        env = Environment()
        network = Network(env)
        library = standard_library()
        node = network.host("B")
        board = FPGABoard(env, functional=False)
        board.fault_injector = every_nth(2)
        manager = DeviceManager(env, "dm-B", board, library, network, node)

        def flow():
            platform = yield from remote_platform(
                env, "fn", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            program = context.create_program("sobel")
            yield from program.build()
            kernel = program.create_kernel("sobel")
            a = context.create_buffer(400)
            b = context.create_buffer(400)
            kernel.set_args(a, b, 10, 10)
            outcomes = []
            for _ in range(4):
                try:
                    yield from queue.run_kernel(kernel)
                    outcomes.append("ok")
                except CLError:
                    outcomes.append("fault")
            return outcomes

        outcomes = env.run(until=env.process(flow()))
        assert outcomes == ["ok", "fault", "ok", "fault"]
        # The session survived every fault.
        assert manager.connected_clients == 1

    def test_faults_do_not_poison_other_tenants(self):
        """Tenant A's faults never affect tenant B's results."""
        env = Environment()
        network = Network(env)
        library = standard_library()
        node = network.host("B")
        board = FPGABoard(env, functional=False)
        # Fault only runs whose index is even — affects both tenants'
        # interleaved runs, but each failure is isolated to its op.
        board.fault_injector = every_nth(3)
        manager = DeviceManager(env, "dm-B", board, library, network, node)
        results = {}

        def client(name, count):
            platform = yield from remote_platform(
                env, name, node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            program = context.create_program("sobel")
            yield from program.build()
            kernel = program.create_kernel("sobel")
            a = context.create_buffer(400)
            b = context.create_buffer(400)
            kernel.set_args(a, b, 10, 10)
            ok = 0
            for _ in range(count):
                try:
                    yield from queue.run_kernel(kernel)
                    ok += 1
                except CLError:
                    pass
            results[name] = ok

        def main():
            first = env.process(client("fn-a", 6))
            second = env.process(client("fn-b", 6))
            yield AllOf(env, [first, second])

        env.run(until=env.process(main()))
        # 12 runs total, every 3rd faulted → 8 successes split between them.
        assert results["fn-a"] + results["fn-b"] == 8


class TestServerlessResilience:
    def test_function_keeps_serving_under_faults(self):
        from repro.cluster import DeviceQuery
        from repro.loadgen import run_load
        from repro.serverless import FunctionSpec, SobelApp
        from repro.system import build_system

        env = Environment()
        system = build_system(env)
        gateway, controller = system.gateway, system.controller
        for node in system.testbed.cluster.nodes.values():
            node.board.fault_injector = every_nth(5)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="sobel-1",
                app_factory=lambda: SobelApp(),
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready("sobel-1")
            stats = yield from run_load(
                env, gateway, "sobel-1", rate=20.0, duration=5.0,
            )
            return stats

        stats = env.run(until=env.process(flow()))
        # ~1/5 of requests fail; the rest are served, none hang.
        assert stats.errors > 0
        assert stats.completed > 0
        assert stats.completed + stats.errors == pytest.approx(
            stats.sent, abs=2
        )
        assert 0.1 < stats.errors / (stats.errors + stats.completed) < 0.3