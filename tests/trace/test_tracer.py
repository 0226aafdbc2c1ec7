"""Tests for the tracing subsystem: recording, analysis, adapters, export."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.trace import (
    Tracer,
    attach_board,
    attach_gateway,
    attach_manager,
    to_chrome_events,
    to_chrome_json,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def tracer(env):
    return Tracer(env)


class TestRecording:
    def test_span_defaults_end_to_now(self, env, tracer):
        def proc():
            start = env.now
            yield env.timeout(2.0)
            tracer.span("kernel", "sobel", "fpga-B", start)

        env.run(until=env.process(proc()))
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.duration == pytest.approx(2.0)

    def test_backwards_span_rejected(self, env, tracer):
        with pytest.raises(ValueError):
            tracer.span("x", "x", "a", start=5.0, end=1.0)

    def test_disabled_tracer_records_nothing(self, env, tracer):
        tracer.enabled = False
        tracer.span("x", "x", "a", 0.0, 1.0)
        tracer.instant("y", "y", "a")
        assert len(tracer) == 0

    def test_args_are_queryable(self, env, tracer):
        tracer.span("task", "t1", "dm-A", 0.0, 1.0, client="fn-1", ops=3)
        span = tracer.spans[0]
        assert span.arg("client") == "fn-1"
        assert span.arg("ops") == 3
        assert span.arg("missing", 42) == 42


class TestQueries:
    def test_category_and_actor_filters(self, env, tracer):
        tracer.span("kernel", "a", "fpga-A", 0.0, 1.0)
        tracer.span("dma", "b", "fpga-A", 1.0, 2.0)
        tracer.span("kernel", "c", "fpga-B", 0.0, 3.0)
        assert len(tracer.by_category("kernel")) == 2
        assert len(tracer.by_actor("fpga-A")) == 2
        assert tracer.actors() == ["fpga-A", "fpga-B"]
        assert tracer.total_time("kernel") == pytest.approx(4.0)
        assert tracer.total_time("kernel", "fpga-A") == pytest.approx(1.0)

    def test_busy_fraction_merges_overlaps(self, env, tracer):
        tracer.span("kernel", "a", "fpga-A", 0.0, 6.0)
        tracer.span("dma", "b", "fpga-A", 4.0, 8.0)  # overlaps the kernel
        fraction = tracer.busy_fraction("fpga-A", 0.0, 10.0)
        assert fraction == pytest.approx(0.8)

    def test_busy_fraction_clips_to_window(self, env, tracer):
        tracer.span("kernel", "a", "fpga-A", 0.0, 100.0)
        assert tracer.busy_fraction("fpga-A", 10.0, 20.0) == pytest.approx(1.0)

    def test_timeline_buckets(self, env, tracer):
        tracer.span("kernel", "a", "fpga-A", 0.0, 5.0)
        buckets = tracer.timeline("fpga-A", resolution=5.0, start=0.0,
                                  end=10.0)
        assert buckets == [(0.0, pytest.approx(1.0)),
                           (5.0, pytest.approx(0.0))]

    @given(
        intervals=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.floats(min_value=0, max_value=50, allow_nan=False),
            ),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_busy_fraction_bounded(self, intervals):
        env = Environment()
        tracer = Tracer(env)
        for a, b in intervals:
            lo, hi = min(a, b), max(a, b)
            tracer.span("kernel", "k", "dev", lo, hi)
        fraction = tracer.busy_fraction("dev", 0.0, 50.0)
        assert 0.0 <= fraction <= 1.0


class TestAdapters:
    def test_attach_board_traces_activity(self, env):
        from repro.fpga import FPGABoard, standard_library

        tracer = Tracer(env)
        board = FPGABoard(env, name="fpga-T", functional=False)
        attach_board(tracer, board)
        library = standard_library()

        def flow():
            yield from board.program(library.get("sobel"))
            buffer = board.allocate(4096)
            yield from board.dma_write(buffer, 4096)
            yield from board.execute("sobel", [buffer, buffer, 16, 16])

        env.run(until=env.process(flow()))
        categories = [span.category for span in tracer.by_actor("fpga-T")]
        assert categories == ["reconfigure", "dma", "kernel"]

    def test_attach_manager_traces_tasks_and_ops(self, env):
        from repro.core.device_manager import DeviceManager
        from repro.core.remote_lib import remote_platform
        from repro.fpga import FPGABoard, standard_library
        from repro.ocl import Context
        from repro.rpc import Network

        tracer = Tracer(env)
        network = Network(env)
        library = standard_library()
        node = network.host("B")
        board = FPGABoard(env, functional=False)
        manager = DeviceManager(env, "dm-B", board, library, network, node)
        attach_manager(tracer, manager)

        def flow():
            platform = yield from remote_platform(
                env, "fn-1", node, manager, network, library
            )
            context = Context(platform.get_devices())
            queue = context.create_queue()
            buffer = context.create_buffer(1024)
            yield from queue.write_buffer(buffer, nbytes=1024)
            yield from queue.read_buffer(buffer)

        env.run(until=env.process(flow()))
        tasks = tracer.by_category("task")
        assert len(tasks) == 2
        assert all(span.arg("client") == "fn-1" for span in tasks)
        assert len(tracer.by_category("op:write")) == 1
        assert len(tracer.by_category("op:read")) == 1

    def test_attach_gateway_traces_requests(self, env):
        from repro.cluster import DeviceQuery
        from repro.serverless import FunctionSpec, SobelApp
        from repro.system import build_system

        system = build_system(env)
        gateway, controller = system.gateway, system.controller
        tracer = Tracer(env)
        attach_gateway(tracer, gateway)

        def flow():
            yield from gateway.deploy(FunctionSpec(
                name="fn",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready("fn")
            yield from gateway.invoke("fn")

        env.run(until=env.process(flow()))
        requests = tracer.by_category("request")
        assert len(requests) == 1
        assert requests[0].arg("latency") > 0


class TestChromeExport:
    def test_events_round_trip_json(self, env, tracer):
        tracer.span("kernel", "sobel", "fpga-A", 0.001, 0.002, client="f")
        tracer.instant("marker", "flush", "dm-A", 0.0015)
        document = json.loads(to_chrome_json(tracer))
        events = document["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "i"}
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["ts"] == pytest.approx(1000.0)   # µs
        assert complete["dur"] == pytest.approx(1000.0)
        assert complete["args"] == {"client": "f"}

    def test_actors_get_distinct_pids(self, env, tracer):
        tracer.span("kernel", "a", "fpga-A", 0, 1)
        tracer.span("kernel", "b", "fpga-B", 0, 1)
        events = to_chrome_events(tracer)
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) == 2

    def test_write_file(self, env, tracer, tmp_path):
        from repro.trace import write_chrome_trace

        tracer.span("kernel", "a", "fpga-A", 0, 1)
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        assert json.loads(path.read_text())["traceEvents"]
