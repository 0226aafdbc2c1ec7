"""End-to-end serverless tests: gateway → function → BlastFunction/native.

These wire the whole system together the way the paper's evaluation does:
testbed + Accelerators Registry + gateway + controller + load generator.
"""

import math

import pytest

from repro.cluster import DeviceQuery
from repro.core.registry import MANAGER_ENV
from repro.loadgen import percentile, run_load
from repro.serverless import FunctionSpec, MMApp, SobelApp
from repro.sim import Environment
from repro.system import SystemConfig, build_system


def make_stack(env, functional=False):
    """Testbed + registry + gateway + controller, ready for deployments."""
    system = build_system(env, SystemConfig(functional=functional))
    return system.testbed, system.registry, system.gateway, system.controller


def run(env, generator):
    return env.run(until=env.process(generator))


class TestDeployment:
    def test_blastfunction_deploy_and_invoke(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            spec = FunctionSpec(
                name="sobel-1",
                app_factory=lambda: SobelApp(width=640, height=480),
                device_query=DeviceQuery(accelerator="sobel"),
            )
            yield from gateway.deploy(spec)
            yield from controller.wait_ready("sobel-1")
            latency, result = yield from gateway.invoke("sobel-1")
            return latency, result

        latency, result = run(env, flow(env))
        assert result["bytes"] == 640 * 480 * 4
        assert 1e-3 < latency < 0.1
        assert registry.allocations == 1

    def test_registry_patches_pod_with_manager_address(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            spec = FunctionSpec(
                name="sobel-1",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="sobel"),
            )
            yield from gateway.deploy(spec)
            yield from controller.wait_ready("sobel-1")

        run(env, flow(env))
        pod = testbed.cluster.pods["sobel-1-i1"]
        manager_name = pod.spec.env[MANAGER_ENV]
        assert manager_name in testbed.managers
        # The pod was forced onto the manager's node (shared memory).
        assert pod.node.name == testbed.managers[manager_name].node.name
        assert pod.spec.shm_volume

    def test_five_functions_spread_over_three_devices(self):
        """The paper deploys 5 identical functions on 3 boards."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            for index in range(1, 6):
                spec = FunctionSpec(
                    name=f"sobel-{index}",
                    app_factory=lambda: SobelApp(width=64, height=64),
                    device_query=DeviceQuery(accelerator="sobel"),
                )
                yield from gateway.deploy(spec)
            for index in range(1, 6):
                yield from controller.wait_ready(f"sobel-{index}")

        run(env, flow(env))
        per_device = {
            d.name: len(registry.functions.instances_on_device(d.name))
            for d in registry.devices.all()
        }
        assert sum(per_device.values()) == 5
        assert max(per_device.values()) == 2
        assert min(per_device.values()) == 1

    def test_native_function_pinned_to_node(self):
        env = Environment()
        system = build_system(env, SystemConfig(runtime="native"))
        testbed, gateway = system.testbed, system.gateway
        controller = system.controller

        def flow(env):
            spec = FunctionSpec(
                name="sobel-native",
                app_factory=lambda: SobelApp(width=640, height=480),
                runtime="native",
                node_name="B",
            )
            yield from gateway.deploy(spec)
            yield from controller.wait_ready("sobel-native")
            latency, _ = yield from gateway.invoke("sobel-native")
            return latency

        latency = run(env, flow(env))
        assert latency < 0.1
        board = testbed.cluster.node("B").board
        assert board.bitstream.name == "sobel"
        assert board.kernel_runs == 1

    def test_reconfiguration_validator_allows_own_function(self):
        """A BF function whose device needs programming gets it approved."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            spec = FunctionSpec(
                name="mm-1",
                app_factory=lambda: MMApp(n=64),
                device_query=DeviceQuery(accelerator="mm"),
            )
            yield from gateway.deploy(spec)
            yield from controller.wait_ready("mm-1")
            latency, _ = yield from gateway.invoke("mm-1")
            return latency

        run(env, flow(env))
        programmed = [
            m.board.bitstream.name for m in testbed.managers.values()
            if m.board.bitstream
        ]
        assert programmed.count("mm") == 1


class TestLoadGenerator:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_load_meets_target_when_capacity_allows(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            spec = FunctionSpec(
                name="sobel-1",
                app_factory=lambda: SobelApp(width=320, height=240),
                device_query=DeviceQuery(accelerator="sobel"),
            )
            yield from gateway.deploy(spec)
            yield from controller.wait_ready("sobel-1")
            stats = yield from run_load(
                env, gateway, "sobel-1", rate=10.0, duration=10.0,
                warmup=1.0,
            )
            return stats

        stats = run(env, flow(env))
        assert stats.achieved_rate == pytest.approx(10.0, rel=0.05)
        assert stats.mean_latency < 0.02

    def test_closed_loop_caps_at_one_over_latency(self):
        """Above saturation, 1 connection processes ~1/latency rq/s."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            spec = FunctionSpec(
                name="sobel-1",
                app_factory=lambda: SobelApp(width=1920, height=1080),
                device_query=DeviceQuery(accelerator="sobel"),
            )
            yield from gateway.deploy(spec)
            yield from controller.wait_ready("sobel-1")
            stats = yield from run_load(
                env, gateway, "sobel-1", rate=200.0, duration=10.0,
                warmup=1.0,
            )
            return stats

        stats = run(env, flow(env))
        assert stats.achieved_rate < 200.0
        cap = 1.0 / stats.mean_latency
        assert stats.achieved_rate == pytest.approx(cap, rel=0.1)
        assert stats.achieved_rate < 0.5 * 200.0

    def test_invalid_rate_rejected(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)
        with pytest.raises(ValueError):
            run(env, run_load(env, gateway, "f", rate=0, duration=1))


class TestMigration:
    def test_allocation_migrates_conflicting_instance(self):
        """An MM function allocated to a sobel-busy device displaces it."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow(env):
            # Fill all three devices with sobel functions.
            for index in range(1, 4):
                yield from gateway.deploy(FunctionSpec(
                    name=f"sobel-{index}",
                    app_factory=lambda: SobelApp(width=64, height=64),
                    device_query=DeviceQuery(accelerator="sobel"),
                ))
                yield from controller.wait_ready(f"sobel-{index}")
            # An MM function must reconfigure some device; its sobel tenant
            # is migrated (create-before-delete) to another device.
            yield from gateway.deploy(FunctionSpec(
                name="mm-1",
                app_factory=lambda: MMApp(n=64),
                device_query=DeviceQuery(accelerator="mm"),
            ))
            yield from controller.wait_ready("mm-1")
            yield env.timeout(10.0)  # let the migration finish
            latency, _ = yield from gateway.invoke("mm-1")
            for index in range(1, 4):
                yield from gateway.invoke(f"sobel-{index}")
            return latency

        run(env, flow(env))
        assert registry.migrations == 1
        # All functions still have exactly one running instance.
        for name in ("sobel-1", "sobel-2", "sobel-3", "mm-1"):
            assert len(testbed.cluster.pods_of_function(name)) == 1
        # The displaced sobel function now shares a device with another.
        mm_record = next(
            d for d in registry.devices.all()
            if d.configured_bitstream == "mm"
        )
        assert len(registry.functions.instances_on_device(
            mm_record.name)) == 1
