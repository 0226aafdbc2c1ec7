"""Tests for function-replica autoscaling on endpoint queue depth."""

import pytest

from repro.cluster import DeviceQuery
from repro.loadgen import run_load
from repro.serverless import (
    FunctionAutoscaler,
    FunctionAutoscalerPolicy,
    FunctionSpec,
    SobelApp,
)
from repro.sim import Environment
from repro.system import build_system


def make_stack(env):
    system = build_system(env)
    return system.testbed, system.registry, system.gateway, system.controller


def deploy_sobel(env, gateway, controller, name="sobel-1"):
    def flow():
        yield from gateway.deploy(FunctionSpec(
            name=name,
            app_factory=lambda: SobelApp(),
            device_query=DeviceQuery(accelerator="sobel"),
        ))
        yield from controller.wait_ready(name)

    env.run(until=env.process(flow()))


class TestScaleUp:
    def test_queue_pressure_adds_replicas(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)
        deploy_sobel(env, gateway, controller)
        autoscaler = FunctionAutoscaler(
            env, testbed.cluster, gateway,
            policy=FunctionAutoscalerPolicy(
                queue_threshold=2, interval=1.0, cooldown=3.0,
                max_replicas=3,
            ),
        )

        def flow():
            # 4 parallel connections at a rate far beyond one instance's
            # ~50 rq/s capacity builds a queue.
            stats = yield from run_load(
                env, gateway, "sobel-1", rate=160.0, duration=30.0,
                connections=4,
            )
            return stats

        env.run(until=env.process(flow()))
        assert autoscaler.scale_ups >= 1
        assert autoscaler.replicas("sobel-1") >= 2
        # Replicas were allocated devices by the Registry like any pod.
        total_instances = sum(
            len(registry.functions.instances_on_device(d.name))
            for d in registry.devices.all()
        )
        assert total_instances == autoscaler.replicas("sobel-1")

    def test_replicas_increase_throughput(self):
        def measured(max_replicas):
            env = Environment()
            testbed, registry, gateway, controller = make_stack(env)
            deploy_sobel(env, gateway, controller)
            FunctionAutoscaler(
                env, testbed.cluster, gateway,
                policy=FunctionAutoscalerPolicy(
                    queue_threshold=2, interval=1.0, cooldown=2.0,
                    max_replicas=max_replicas,
                ),
            )

            def flow():
                stats = yield from run_load(
                    env, gateway, "sobel-1", rate=160.0, duration=30.0,
                    connections=4, warmup=5.0,
                )
                return stats

            return env.run(until=env.process(flow()))

        single = measured(max_replicas=1)
        scaled = measured(max_replicas=3)
        assert scaled.achieved_rate > 1.3 * single.achieved_rate


class TestScaleDown:
    def test_idle_function_sheds_autoscaled_replicas(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)
        deploy_sobel(env, gateway, controller)
        autoscaler = FunctionAutoscaler(
            env, testbed.cluster, gateway,
            policy=FunctionAutoscalerPolicy(
                queue_threshold=2, interval=1.0, cooldown=2.0,
                max_replicas=3, idle_periods=3,
            ),
        )

        def flow():
            yield from run_load(
                env, gateway, "sobel-1", rate=160.0, duration=15.0,
                connections=4,
            )
            # Then silence: autoscaled replicas should retire.
            yield env.timeout(30.0)

        env.run(until=env.process(flow()))
        assert autoscaler.scale_ups >= 1
        assert autoscaler.scale_downs >= 1
        assert autoscaler.replicas("sobel-1") < 3

    def test_never_drops_below_spec_replicas(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)
        deploy_sobel(env, gateway, controller)
        autoscaler = FunctionAutoscaler(
            env, testbed.cluster, gateway,
            policy=FunctionAutoscalerPolicy(
                interval=1.0, idle_periods=2, cooldown=1.0,
            ),
        )
        env.run(until=30.0)
        assert autoscaler.replicas("sobel-1") == 1
        assert autoscaler.scale_downs == 0
