"""Tests for the trace-based request latency breakdown."""

import pytest

from repro.analysis import (
    default_pod_to_function,
    render_breakdown,
    request_breakdown,
)
from repro.sim import Environment
from repro.trace import Tracer


class TestPodMapping:
    def test_strips_instance_suffix(self):
        assert default_pod_to_function("sobel-1-i2") == "sobel-1"
        assert default_pod_to_function("mm-1-i13") == "mm-1"

    def test_leaves_plain_names(self):
        assert default_pod_to_function("sobel-1") == "sobel-1"


class TestBreakdown:
    def make_trace(self):
        env = Environment()
        tracer = Tracer(env)
        # Two requests of 10 ms each; their tasks: 2 ms queued, 5 ms device.
        for index in range(2):
            start = index * 0.1
            tracer.span("request", "sobel-1", "gateway", start,
                        start + 0.010, latency=0.010)
            tracer.span("task", f"task#{index}", "dm-B", start + 0.004,
                        start + 0.009, client="sobel-1-i1", queued=0.002)
        return tracer

    def test_stage_means(self):
        breakdowns = request_breakdown(self.make_trace())
        b = breakdowns["sobel-1"]
        assert b.requests == 2
        assert b.mean_latency == pytest.approx(0.010)
        assert b.mean_queue_wait == pytest.approx(0.002)
        assert b.mean_device_time == pytest.approx(0.005)
        assert b.mean_overhead == pytest.approx(0.003)

    def test_multiple_tasks_per_request_scale(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.span("request", "alexnet-1", "gateway", 0.0, 0.100,
                    latency=0.100)
        for layer in range(8):  # 8 tasks for the one request
            t = 0.01 * layer
            tracer.span("task", f"task#{layer}", "dm-A", t, t + 0.008,
                        client="alexnet-1-i1", queued=0.001)
        b = request_breakdown(tracer)["alexnet-1"]
        assert b.mean_device_time == pytest.approx(8 * 0.008)
        assert b.mean_queue_wait == pytest.approx(8 * 0.001)

    def test_function_without_tasks(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.span("request", "native-fn", "gateway", 0, 0.02,
                    latency=0.02)
        b = request_breakdown(tracer)["native-fn"]
        assert b.mean_device_time == 0.0
        assert b.mean_overhead == pytest.approx(0.02)

    def test_render(self):
        text = render_breakdown(request_breakdown(self.make_trace()))
        assert "sobel-1" in text
        assert "Queue ms" in text


class TestEndToEndBreakdown:
    def test_full_stack_breakdown_sums_sanely(self):
        """Trace a real load run; stages must sum to ≤ latency."""
        from repro.cluster import DeviceQuery
        from repro.loadgen import run_load
        from repro.serverless import FunctionSpec, SobelApp
        from repro.system import build_system
        from repro.trace import attach_gateway, attach_testbed

        env = Environment()
        system = build_system(env)
        testbed, gateway = system.testbed, system.gateway
        controller = system.controller
        tracer = Tracer(env)
        attach_testbed(tracer, testbed)
        attach_gateway(tracer, gateway)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="sobel-1",
                app_factory=lambda: SobelApp(),
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready("sobel-1")
            yield from run_load(env, gateway, "sobel-1", rate=20.0,
                                duration=5.0)

        env.run(until=env.process(flow()))
        b = request_breakdown(tracer)["sobel-1"]
        assert b.requests > 50
        # Device time dominates for 1080p Sobel (~14 ms of ~21 ms).
        assert 0.010 < b.mean_device_time < 0.020
        assert b.mean_queue_wait < 0.005
        assert b.mean_overhead > 0.0
        assert (b.mean_queue_wait + b.mean_device_time
                <= b.mean_latency + 1e-9)
