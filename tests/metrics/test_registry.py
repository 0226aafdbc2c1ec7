"""Unit tests for the Prometheus-model metric primitives."""

import math

import pytest

from repro.metrics import MetricError, MetricsRegistry

from .reads import collect, quantile, samples


@pytest.fixture
def registry():
    return MetricsRegistry(namespace="dm")


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        counter = registry.counter("requests_total", "Requests served")
        assert counter.labels().value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().value == 3.5

    def test_cannot_decrease(self, registry):
        counter = registry.counter("requests_total")
        with pytest.raises(MetricError):
            counter.inc(-1.0)

    def test_namespace_prefix(self, registry):
        counter = registry.counter("busy_seconds_total")
        assert counter.name == "dm_busy_seconds_total"

    def test_labels_create_independent_children(self, registry):
        counter = registry.counter("ops_total", labelnames=["client"])
        counter.labels("alice").inc(3)
        counter.labels("bob").inc(1)
        assert counter.labels("alice").value == 3
        assert counter.labels("bob").value == 1

    def test_labels_by_keyword(self, registry):
        counter = registry.counter("ops_total", labelnames=["client", "op"])
        counter.labels(client="a", op="read").inc()
        assert counter.labels("a", "read").value == 1

    def test_wrong_label_count_rejected(self, registry):
        counter = registry.counter("ops_total", labelnames=["client"])
        with pytest.raises(MetricError):
            counter.labels("a", "b")

    def test_unlabelled_access_to_labelled_metric_rejected(self, registry):
        counter = registry.counter("ops_total", labelnames=["client"])
        with pytest.raises(MetricError):
            counter.inc()


class TestGauge:
    def test_set_and_inc(self, registry):
        gauge = registry.gauge("connected_functions")
        gauge.set(5)
        gauge.inc()
        assert gauge.labels().value == 6


class TestHistogram:
    def test_observe_accumulates_sum_and_count(self, registry):
        histogram = registry.histogram("latency_seconds", buckets=[0.1, 1.0])
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(2.0)
        child = histogram.labels()
        assert child._count == 3
        assert child._sum == pytest.approx(2.55)

    def test_bucket_counts_are_cumulative_in_samples(self, registry):
        histogram = registry.histogram("latency_seconds", buckets=[0.1, 1.0])
        for v in (0.05, 0.06, 0.5, 3.0):
            histogram.observe(v)
        buckets = {
            (name, labels.get("le")): value
            for name, labels, value in samples(histogram)
            if name.endswith("_bucket")
        }
        assert buckets[("dm_latency_seconds_bucket", "0.1")] == 2
        assert buckets[("dm_latency_seconds_bucket", "1.0")] == 3
        assert buckets[("dm_latency_seconds_bucket", "+Inf")] == 4

    def test_quantile_estimation(self, registry):
        histogram = registry.histogram(
            "latency_seconds", buckets=[0.01, 0.02, 0.04, 0.08]
        )
        for _ in range(100):
            histogram.observe(0.015)
        q50 = quantile(histogram.labels(), 0.5)
        assert 0.01 <= q50 <= 0.02

    def test_value_access_rejected(self, registry):
        histogram = registry.histogram("latency_seconds")
        with pytest.raises(MetricError):
            _ = histogram.labels().value

    def test_inf_bucket_always_appended(self, registry):
        histogram = registry.histogram("h", buckets=[1.0, 2.0])
        assert math.isinf(histogram.buckets[-1])


class TestRegistry:
    def test_duplicate_name_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.counter("x_total")

    def test_invalid_type_rejected(self):
        from repro.metrics.registry import MetricFamily

        with pytest.raises(MetricError):
            MetricFamily("name", "", "summary")

    def test_contains_and_get(self, registry):
        registry.counter("x_total")
        assert registry.get("x_total").name == "dm_x_total"

    def test_collect_snapshot(self, registry):
        counter = registry.counter("ops_total", labelnames=["client"])
        counter.labels("a").inc(2)
        snapshot = collect(registry)
        assert snapshot["dm_ops_total"][("client=a",)] == 2.0
