"""Tests for the Metrics Gatherer (Registry's view of Prometheus data)."""

import pytest

from repro.core.registry import MetricsGatherer
from repro.metrics import MetricsRegistry, Scraper
from repro.sim import Environment


@pytest.fixture
def setup():
    env = Environment()
    scraper = Scraper(env, interval=1.0)
    registry = MetricsRegistry(namespace="dm")
    busy = registry.counter("busy_seconds_total")
    client_busy = registry.counter("client_busy_seconds_total",
                                   labelnames=["client"])
    clients = registry.gauge("connected_clients")
    depth = registry.gauge("task_queue_depth")
    scraper.add_target("dm-B", registry, node="B")
    gatherer = MetricsGatherer(scraper, window=10.0)
    return env, scraper, gatherer, busy, client_busy, clients, depth


class TestUtilization:
    def test_fresh_device_is_idle(self, setup):
        env, scraper, gatherer, *_ = setup
        assert gatherer.utilization("dm-B") == 0.0

    def test_utilization_from_busy_rate(self, setup):
        env, scraper, gatherer, busy, *_ = setup

        def device():
            while True:
                busy.inc(0.6)
                yield env.timeout(1.0)

        env.process(device())
        env.run(until=20.0)
        assert gatherer.utilization("dm-B") == pytest.approx(0.6, rel=0.05)


class TestGaugeMetrics:
    def test_connected_functions_latest(self, setup):
        env, scraper, gatherer, busy, client_busy, clients, depth = setup
        clients.set(3)
        env.run(until=2.0)
        assert gatherer.connected_functions("dm-B") == 3

    def test_queue_depth_latest(self, setup):
        env, scraper, gatherer, busy, client_busy, clients, depth = setup
        depth.set(7)
        env.run(until=2.0)
        assert gatherer.queue_depth("dm-B") == 7.0

    def test_device_metrics_bundle(self, setup):
        env, scraper, gatherer, busy, client_busy, clients, depth = setup
        clients.set(2)
        env.run(until=2.0)
        metrics = gatherer.device_metrics("dm-B")
        assert set(metrics) == {"utilization", "connected_functions",
                                "queue_depth"}
        assert metrics["connected_functions"] == 2.0

    def test_unknown_device_is_empty(self, setup):
        env, scraper, gatherer, *_ = setup
        env.run(until=2.0)
        assert gatherer.utilization("dm-Z") == 0.0
        assert gatherer.connected_functions("dm-Z") == 0
