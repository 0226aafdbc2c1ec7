"""Tests for the F1-style node autoscaler (paper future work)."""

import pytest

from repro.cluster import AutoscalerPolicy, DeviceQuery, NodeAutoscaler
from repro.loadgen import run_load
from repro.serverless import FunctionSpec, SobelApp
from repro.sim import Environment
from repro.system import SystemConfig, build_system


def make_stack(env):
    system = build_system(env)
    return (system.testbed, system.registry, system.router, system.gateway,
            system.controller)


class TestScaleOut:
    def test_scale_out_wires_node_into_everything(self):
        env = Environment()
        testbed, registry, router, gateway, controller = make_stack(env)
        autoscaler = NodeAutoscaler(
            env, testbed, registry, router,
            policy=AutoscalerPolicy(boot_delay=5.0),
        )

        def flow():
            manager = yield from autoscaler.scale_out()
            return manager

        manager = env.run(until=env.process(flow()))
        assert env.now == pytest.approx(5.0)
        assert manager.name == "dm-F1-1"
        assert "F1-1" in testbed.cluster.nodes
        assert "dm-F1-1" in [d.name for d in registry.devices.all()]
        assert "dm-F1-1" in router.managers()
        assert autoscaler.scale_outs == 1

    def test_new_node_receives_allocations(self):
        env = Environment()
        testbed, registry, router, gateway, controller = make_stack(env)
        autoscaler = NodeAutoscaler(
            env, testbed, registry, router,
            policy=AutoscalerPolicy(boot_delay=1.0,
                                    scale_in_threshold=-1.0),
        )

        def flow():
            yield from autoscaler.scale_out()
            # Fill every original board first.
            for index in range(1, 5):
                yield from gateway.deploy(FunctionSpec(
                    name=f"sobel-{index}",
                    app_factory=lambda: SobelApp(width=64, height=64),
                    device_query=DeviceQuery(accelerator="sobel"),
                ))
                yield from controller.wait_ready(f"sobel-{index}")

        env.run(until=env.process(flow()))
        devices = {d.name: len(registry.functions.instances_on_device(d.name))
                   for d in registry.devices.all()}
        # 4 functions over 4 devices: the F1 node took one.
        assert devices["dm-F1-1"] == 1

    def test_utilization_triggers_scale_out(self):
        env = Environment()
        testbed, registry, router, gateway, controller = make_stack(env)
        autoscaler = NodeAutoscaler(
            env, testbed, registry, router,
            policy=AutoscalerPolicy(
                scale_out_threshold=0.3, window=5.0, interval=2.0,
                cooldown=10.0, boot_delay=2.0,
            ),
        )

        def flow():
            for index in range(1, 4):
                yield from gateway.deploy(FunctionSpec(
                    name=f"sobel-{index}",
                    app_factory=lambda: SobelApp(),
                    device_query=DeviceQuery(accelerator="sobel"),
                ))
                yield from controller.wait_ready(f"sobel-{index}")
            # Push every board well past 30% utilization.
            loads = [
                env.process(run_load(env, gateway, f"sobel-{index}",
                                     rate=40.0, duration=40.0))
                for index in range(1, 4)
            ]
            for load in loads:
                yield load

        env.run(until=env.process(flow()))
        assert autoscaler.scale_outs >= 1
        assert any(name.startswith("F1-") for name in testbed.cluster.nodes)


    def test_added_node_keeps_the_fleets_batching_mode(self):
        env = Environment()
        system = build_system(env, SystemConfig(batching=False))
        autoscaler = NodeAutoscaler(
            env, system.testbed, system.registry, system.router,
            policy=AutoscalerPolicy(boot_delay=1.0),
        )
        manager = env.run(until=env.process(autoscaler.scale_out()))
        assert all(not m.batching for m in system.testbed.managers.values())
        assert manager.batching is False


class TestScaleIn:
    def test_scale_in_removes_idle_added_node(self):
        env = Environment()
        testbed, registry, router, gateway, controller = make_stack(env)
        autoscaler = NodeAutoscaler(
            env, testbed, registry, router,
            policy=AutoscalerPolicy(boot_delay=1.0),
        )

        def flow():
            yield from autoscaler.scale_out()

        env.run(until=env.process(flow()))
        assert autoscaler.scale_in("F1-1")
        assert "F1-1" not in testbed.cluster.nodes
        assert autoscaler.scale_ins == 1

    def test_scale_in_refuses_busy_node(self):
        env = Environment()
        testbed, registry, router, gateway, controller = make_stack(env)
        autoscaler = NodeAutoscaler(
            env, testbed, registry, router,
            policy=AutoscalerPolicy(boot_delay=1.0,
                                    scale_in_threshold=-1.0),
        )

        def flow():
            yield from autoscaler.scale_out()
            for index in range(1, 5):
                yield from gateway.deploy(FunctionSpec(
                    name=f"sobel-{index}",
                    app_factory=lambda: SobelApp(width=64, height=64),
                    device_query=DeviceQuery(accelerator="sobel"),
                ))
                yield from controller.wait_ready(f"sobel-{index}")

        env.run(until=env.process(flow()))
        # The F1 node carries an instance now: refuse to retire it.
        assert not autoscaler.scale_in("F1-1")
        assert "F1-1" in testbed.cluster.nodes

    def test_scale_in_unknown_node(self):
        env = Environment()
        testbed, registry, router, gateway, controller = make_stack(env)
        autoscaler = NodeAutoscaler(env, testbed, registry, router)
        assert not autoscaler.scale_in("ghost")
