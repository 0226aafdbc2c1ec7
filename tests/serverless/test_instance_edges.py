"""Edge cases of the function-instance runtime and registry validation."""

import pytest

from repro.cluster import DeviceQuery
from repro.serverless import (
    FunctionSpec,
    InstanceStartupError,
    MMApp,
    SobelApp,
)
from repro.sim import Environment
from repro.system import SystemConfig, build_system


def make_stack(env, runtime="blastfunction"):
    system = build_system(env, SystemConfig(runtime=runtime))
    return system.testbed, system.registry, system.gateway, system.controller


class TestInstanceStartup:
    def test_blastfunction_without_router_fails_cleanly(self):
        env = Environment()
        # A native system has no router for a BlastFunction function.
        testbed, registry, gateway, controller = make_stack(
            env, runtime="native"
        )

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="fn",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready("fn")

        with pytest.raises(InstanceStartupError, match="router"):
            env.run(until=env.process(flow()))

    def test_unknown_runtime_rejected(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="fn",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="sobel"),
                runtime="quantum",
            ))
            yield from controller.wait_ready("fn")

        with pytest.raises(InstanceStartupError, match="unknown runtime"):
            env.run(until=env.process(flow()))


class TestReconfigurationValidation:
    def test_foreign_binary_denied(self):
        """A function asking for a bitstream other than its declared
        accelerator is refused by the Registry's validator."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        class SneakyApp(SobelApp):
            def setup(self, env, platform, node):
                from repro.ocl import Context

                context = Context(platform.get_devices())
                # Declared accelerator is sobel; tries to program mm.
                program = context.create_program("mm")
                yield from program.build()

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="sneaky",
                app_factory=SneakyApp,
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready("sneaky")

        from repro.ocl import CLError

        with pytest.raises(CLError, match="denied by registry"):
            env.run(until=env.process(flow()))

    def test_unallocated_client_denied(self):
        """A client the Registry never placed cannot reconfigure a board."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)
        manager = testbed.managers["dm-A"]
        assert manager.reconfiguration_validator("rogue-client", "mm") \
            is False


class TestWatchBookkeeping:
    def test_deleting_pod_clears_device_instance(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="fn",
                app_factory=lambda: MMApp(n=64),
                device_query=DeviceQuery(accelerator="mm"),
            ))
            yield from controller.wait_ready("fn")

        env.run(until=env.process(flow()))
        device = registry.functions.instance("fn-i1").device
        assert [inst.name for inst in
                registry.functions.instances_on_device(device)] == ["fn-i1"]
        testbed.cluster.delete_pod("fn-i1")
        assert registry.functions.instances_on_device(device) == []
        assert registry.functions.instance("fn-i1") is None
