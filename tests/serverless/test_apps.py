"""Behavioural tests of the three benchmark apps' OpenCL call patterns."""

import pytest

from repro.cluster import DeviceQuery
from repro.serverless import AlexNetApp, FunctionSpec, MMApp, SobelApp
from repro.sim import Environment
from repro.system import build_system


def deploy_and_invoke(app_factory, accelerator, invocations=1):
    env = Environment()
    system = build_system(env)
    testbed, gateway = system.testbed, system.gateway
    controller = system.controller

    def flow():
        yield from gateway.deploy(FunctionSpec(
            name="fn", app_factory=app_factory,
            device_query=DeviceQuery(accelerator=accelerator),
        ))
        yield from controller.wait_ready("fn")
        manager = testbed.managers[
            testbed.cluster.pods["fn-i1"].spec.env["BF_MANAGER"]
        ]
        before_tasks = manager.metrics.get("tasks_total").value
        before_ops = {
            kind: manager.metrics.get("ops_total").labels(kind).value
            for kind in ("write", "read", "kernel", "marker")
        }
        latencies = []
        for _ in range(invocations):
            latency, _result = yield from gateway.invoke("fn")
            latencies.append(latency)
        after_tasks = manager.metrics.get("tasks_total").value
        after_ops = {
            kind: manager.metrics.get("ops_total").labels(kind).value
            for kind in before_ops
        }
        delta_ops = {k: after_ops[k] - before_ops[k] for k in after_ops}
        return (after_tasks - before_tasks) / invocations, delta_ops, \
            latencies

    return env.run(until=env.process(flow()))


class TestSobelCallPattern:
    def test_one_task_per_request(self):
        """write+kernel+read land in a single atomic task."""
        tasks_per_request, ops, _ = deploy_and_invoke(
            lambda: SobelApp(), "sobel", invocations=3
        )
        assert tasks_per_request == 1
        assert ops["write"] == 3
        assert ops["kernel"] == 3
        assert ops["read"] == 3


class TestMMCallPattern:
    def test_blocking_writes_split_tasks(self):
        """Spector MM's two blocking writes close their own tasks."""
        tasks_per_request, ops, _ = deploy_and_invoke(
            lambda: MMApp(n=64), "mm", invocations=2
        )
        # write A | write B | kernel+read  →  3 tasks per request.
        assert tasks_per_request == 3
        assert ops["write"] == 4
        assert ops["kernel"] == 2
        assert ops["read"] == 2


class TestAlexNetCallPattern:
    def test_layer_boundaries_create_tasks(self):
        """PipeCNN waits per layer: 8 layer tasks + the final read task."""
        tasks_per_request, ops, latencies = deploy_and_invoke(
            lambda: AlexNetApp(), "pipecnn_alexnet", invocations=1
        )
        assert tasks_per_request == 9
        # 8 conv + 3 pool + 2 lrn + 8 mem_rd + 8 mem_wr = 29 kernel ops.
        assert ops["kernel"] == 29
        assert ops["read"] == 1
        # Unloaded single inference ≈ device time + per-layer round trips.
        assert 0.09 < latencies[0] < 0.13
