"""Determinism guarantees of the simulation substrate.

Every benchmark in this repository runs a single round; that is only valid
because identical programs produce identical traces.  These tests pin that
property at three levels: the raw kernel, a full remote-stack run, and a
load-test scenario.
"""

import pytest

from repro.sim import Environment, PriorityResource, Resource, Store


def kernel_trace():
    """A mixed workload over the kernel's primitives; returns its trace."""
    env = Environment()
    trace = []
    resource = Resource(env, capacity=2)
    priority = PriorityResource(env)
    store = Store(env, capacity=3)

    def producer(name, delay):
        yield env.timeout(delay)
        for index in range(5):
            yield store.put((name, index))
            trace.append(("put", name, index, env.now))
            yield env.timeout(0.3)

    def consumer(name):
        for _ in range(5):
            item = yield store.get()
            trace.append(("got", name, item, env.now))
            with resource.request() as req:
                yield req
                yield env.timeout(0.7)

    def vip(priority_value, arrival):
        yield env.timeout(arrival)
        with priority.request(priority=priority_value) as req:
            yield req
            trace.append(("vip", priority_value, env.now))
            yield env.timeout(0.1)

    env.process(producer("a", 0.1))
    env.process(producer("b", 0.2))
    env.process(consumer("x"))
    env.process(consumer("y"))
    for p, t in ((3, 0.05), (1, 0.06), (2, 0.07)):
        env.process(vip(p, t))
    env.run()
    return trace, env.now


class TestKernelDeterminism:
    def test_identical_runs_identical_traces(self):
        first_trace, first_end = kernel_trace()
        second_trace, second_end = kernel_trace()
        assert first_trace == second_trace
        assert first_end == second_end


class TestStackDeterminism:
    def _one_run(self):
        from repro.core.device_manager import DeviceManager
        from repro.core.remote_lib import remote_platform
        from repro.fpga import FPGABoard, standard_library
        from repro.ocl import Context
        from repro.rpc import Network

        env = Environment()
        network = Network(env)
        library = standard_library()
        node = network.host("B")
        board = FPGABoard(env, functional=False)
        manager = DeviceManager(env, "dm-B", board, library, network, node)
        timestamps = []

        def client(name):
            platform = yield from remote_platform(
                env, name, node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            program = context.create_program("sobel")
            yield from program.build()
            kernel = program.create_kernel("sobel")
            a = context.create_buffer(256 * 256 * 4)
            b = context.create_buffer(256 * 256 * 4)
            kernel.set_args(a, b, 256, 256)
            for _ in range(3):
                queue.enqueue_write_buffer(a, nbytes=a.size)
                queue.enqueue_kernel(kernel)
                yield from queue.read_buffer(b)
                timestamps.append((name, env.now))

        env.process(client("fn-1"))
        env.process(client("fn-2"))
        env.run()
        return timestamps

    def test_remote_stack_is_deterministic(self):
        assert self._one_run() == self._one_run()


class TestLoadScenarioDeterminism:
    def test_scenario_results_repeat_exactly(self):
        from repro.experiments import run_scenario
        from repro.experiments.config import LoadTiming

        def once():
            result = run_scenario(
                "sobel", "low", timing=LoadTiming(warmup=1.0, duration=4.0))
            return [
                (fn.function, fn.node, fn.utilization, fn.latency,
                 fn.processed)
                for fn in result.functions
            ]

        assert once() == once()
