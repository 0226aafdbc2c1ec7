"""Failure injection across the serverless layer."""

import pytest

from repro.cluster import DeviceQuery
from repro.core.registry.allocation import AllocationError
from repro.serverless import (
    FunctionApp,
    FunctionSpec,
    InvocationError,
    SobelApp,
)
from repro.sim import Environment
from repro.system import build_system


def make_stack(env):
    system = build_system(env)
    return system.testbed, system.registry, system.gateway, system.controller


class CrashyApp(FunctionApp):
    """Fails every other request."""

    host_overhead = 1e-3

    def __init__(self):
        self.calls = 0

    def setup(self, env, platform, node):
        self.env = env
        return
        yield

    def handle(self, request):
        self.calls += 1
        yield self.env.timeout(1e-3)
        if self.calls % 2 == 0:
            raise RuntimeError("transient backend failure")
        return {"ok": True}


class TestHandlerFailures:
    def test_failures_surface_as_invocation_errors(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="crashy", app_factory=CrashyApp,
            ))
            yield from controller.wait_ready("crashy")
            outcomes = []
            for _ in range(4):
                try:
                    _, result = yield from gateway.invoke("crashy")
                    outcomes.append("ok")
                except InvocationError:
                    outcomes.append("error")
            return outcomes

        outcomes = env.run(until=env.process(flow()))
        assert outcomes == ["ok", "error", "ok", "error"]
        function = gateway.function("crashy")
        assert function.failures == 2
        assert function.invocations == 4

    def test_instance_survives_handler_failures(self):
        """A crashing request must not kill the serving loop."""
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="crashy", app_factory=CrashyApp,
            ))
            yield from controller.wait_ready("crashy")
            for _ in range(2):
                try:
                    yield from gateway.invoke("crashy")
                except InvocationError:
                    pass
            latency, result = yield from gateway.invoke("crashy")
            return result

        assert env.run(until=env.process(flow())) == {"ok": True}


class TestStartupFailures:
    def test_unallocatable_function_rejected_at_admission(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="fn",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="nonexistent-acc"),
            ))

        with pytest.raises(AllocationError):
            env.run(until=env.process(flow()))
        # Nothing half-deployed remains.
        assert testbed.cluster.pods == {}

    def test_wait_ready_propagates_setup_failure(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        class BadSetupApp(FunctionApp):
            def setup(self, env, platform, node):
                raise RuntimeError("missing weights file")
                yield

            def handle(self, request):
                yield

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="bad", app_factory=BadSetupApp,
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready("bad")

        with pytest.raises(RuntimeError, match="missing weights"):
            env.run(until=env.process(flow()))


class TestGatewayMisuse:
    def test_unknown_function_invoke(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)
        with pytest.raises(KeyError):
            env.run(until=env.process(gateway.invoke("ghost")))

    def test_duplicate_deploy_rejected(self):
        env = Environment()
        testbed, registry, gateway, controller = make_stack(env)

        def flow():
            spec = FunctionSpec(
                name="fn",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="sobel"),
            )
            yield from gateway.deploy(spec)
            yield from gateway.deploy(spec)

        with pytest.raises(ValueError, match="already deployed"):
            env.run(until=env.process(flow()))
