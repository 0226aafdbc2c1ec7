"""Space-sharing through the full remote stack (paper future work).

A two-slot board hosts the Sobel and MM accelerators simultaneously: two
clients build *different* programs without evicting each other, and their
kernels execute concurrently on the device.
"""

from dataclasses import replace

import pytest

from repro.core.device_manager import DeviceManager
from repro.core.remote_lib import remote_platform
from repro.fpga import DE5A_NET, FPGABoard, standard_library
from repro.ocl import Context
from repro.rpc import Network
from repro.sim import AllOf, Environment


@pytest.fixture
def rig():
    env = Environment()
    network = Network(env)
    library = standard_library()
    node = network.host("B")
    board = FPGABoard(env, name="fpga-B",
                      spec=replace(DE5A_NET, pr_slots=2), functional=True)
    manager = DeviceManager(env, "dm-B", board, library, network, node)
    return env, network, library, node, board, manager


def run(env, generator):
    return env.run(until=env.process(generator))


def test_two_accelerators_coexist(rig):
    env, network, library, node, board, manager = rig

    def sobel_client():
        platform = yield from remote_platform(
            env, "fn-sobel", node, manager, network, library
        )
        context = Context(platform.get_devices())
        queue = context.create_queue()
        program = context.create_program("sobel")
        yield from program.build()
        kernel = program.create_kernel("sobel")
        nbytes = 64 * 64 * 4
        in_buf = context.create_buffer(nbytes)
        out_buf = context.create_buffer(nbytes)
        kernel.set_args(in_buf, out_buf, 64, 64)
        yield from queue.run_kernel(kernel)
        return True

    def mm_client():
        platform = yield from remote_platform(
            env, "fn-mm", node, manager, network, library
        )
        context = Context(platform.get_devices())
        queue = context.create_queue()
        program = context.create_program("mm")
        yield from program.build()
        kernel = program.create_kernel("mm")
        bufs = [context.create_buffer(64 * 64 * 4) for _ in range(3)]
        kernel.set_args(*bufs, 64, 64, 64)
        yield from queue.run_kernel(kernel)
        return True

    def main():
        first = env.process(sobel_client())
        second = env.process(mm_client())
        yield AllOf(env, [first, second])

    run(env, main())
    names = {slot.name for slot in board.slots if slot is not None}
    assert names == {"sobel", "mm"}
    # Partial reconfigurations, not full wipes.
    assert board.partial_reconfigurations == 2
    assert board.reconfigurations == 0


def test_rebuild_existing_slot_is_free(rig):
    env, network, library, node, board, manager = rig

    def flow():
        platform = yield from remote_platform(
            env, "fn-1", node, manager, network, library
        )
        context = Context(platform.get_devices())
        program = context.create_program("sobel")
        yield from program.build()
        before = env.now
        yield from context.create_program("sobel").build()
        return env.now - before

    rebuild_time = run(env, flow())
    assert rebuild_time < 0.05
    assert board.partial_reconfigurations == 1


def test_concurrent_kernels_across_slots(rig):
    """Two tenants' heavy kernels overlap on a 2-slot board."""
    env, network, library, node, board, manager = rig
    board.functional = False  # timing-only for the heavy kernels
    completions = []

    def client(name, binary, make_args):
        def flow():
            platform = yield from remote_platform(
                env, name, node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            program = context.create_program(binary)
            yield from program.build()
            kernel = program.create_kernel(binary)
            kernel.set_args(*make_args(context))
            start = env.now
            yield from queue.run_kernel(kernel)
            completions.append((name, start, env.now))

        return flow

    n = 2048
    sobel_args = lambda ctx: (
        ctx.create_buffer(1 << 20), ctx.create_buffer(1 << 20), 512, 512
    )
    mm_args = lambda ctx: (
        ctx.create_buffer(64), ctx.create_buffer(64), ctx.create_buffer(64),
        n, n, n,
    )

    def main():
        a = env.process(client("fn-sobel", "sobel", sobel_args)())
        b = env.process(client("fn-mm", "mm", mm_args)())
        yield AllOf(env, [a, b])

    run(env, main())
    mm_time = library.get("mm").kernel("mm").duration(
        {"m": n, "n": n, "k": n}
    )
    spans = {name: (start, finish) for name, start, finish in completions}
    sobel_span = spans["fn-sobel"]
    mm_span = spans["fn-mm"]
    # The sobel kernel completed inside the mm kernel's execution window:
    # the two slots genuinely ran concurrently.
    assert sobel_span[1] < mm_span[1]
    assert mm_span[1] - mm_span[0] < 1.5 * mm_time + 1.0
