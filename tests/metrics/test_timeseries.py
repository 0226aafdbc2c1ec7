"""Unit tests for time-series storage, queries and the scraper process."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricsRegistry, Scraper, TimeSeries, TimeSeriesDatabase
from repro.sim import Environment

from .reads import latest_time, select


class TestTimeSeries:
    def test_append_and_latest(self):
        series = TimeSeries("m")
        series.append(0.0, 1.0)
        series.append(1.0, 3.0)
        assert series.latest() == 3.0
        assert latest_time(series) == 1.0
        assert len(series._values) == 2

    def test_empty_latest_is_none(self):
        assert TimeSeries("m").latest() is None

    def test_non_monotonic_rejected(self):
        series = TimeSeries("m")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 2.0)

    def test_window_selection(self):
        series = TimeSeries("m")
        for t in range(10):
            series.append(float(t), float(t))
        assert series.window(3.0, 6.0) == [(3.0, 3.0), (4.0, 4.0),
                                           (5.0, 5.0), (6.0, 6.0)]

    def test_counter_rate(self):
        series = TimeSeries("m")
        # A counter increasing by 2 per second.
        for t in range(11):
            series.append(float(t), 2.0 * t)
        assert series.rate(window=5.0, now=10.0) == pytest.approx(2.0)

    def test_rate_with_too_few_samples_is_nan(self):
        series = TimeSeries("m")
        series.append(0.0, 1.0)
        assert math.isnan(series.rate(window=5.0, now=0.0))

    def test_rate_handles_counter_reset(self):
        series = TimeSeries("m")
        series.append(0.0, 100.0)
        series.append(10.0, 5.0)  # reset happened
        assert series.rate(window=10.0, now=10.0) == pytest.approx(0.5)

    def test_gauge_average(self):
        series = TimeSeries("m")
        series.append(0.0, 1.0)
        series.append(1.0, 3.0)
        assert series.avg(window=2.0, now=1.0) == pytest.approx(2.0)

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rate_of_monotone_counter_is_nonnegative(self, values):
        cumulative = 0.0
        series = TimeSeries("m")
        for index, value in enumerate(values):
            cumulative += value
            series.append(float(index), cumulative)
        rate = series.rate(window=float(len(values)), now=float(len(values) - 1))
        assert rate >= 0.0


class TestTimeSeriesDatabase:
    def test_series_created_on_demand(self):
        db = TimeSeriesDatabase()
        s1 = db.series("m", ("a=1",))
        s2 = db.series("m", ("a=1",))
        assert s1 is s2
        assert select(db, "m") == [s1]

    def test_select_by_name(self):
        db = TimeSeriesDatabase()
        db.series("m", ("a=1",))
        db.series("m", ("a=2",))
        db.series("other", ())
        assert len(select(db, "m")) == 2

    def test_select_matching_labels(self):
        db = TimeSeriesDatabase()
        db.series("m", ("device=fpga0", "node=a"))
        db.series("m", ("device=fpga1", "node=b"))
        found = db.select_matching("m", node="a")
        assert len(found) == 1
        assert "device=fpga0" in found[0].labels


class TestScraper:
    def test_scrapes_on_interval(self):
        env = Environment()
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        scraper = Scraper(env, interval=1.0)
        scraper.add_target("dm-0", registry, node="a")

        def workload(env):
            for _ in range(10):
                counter.inc()
                yield env.timeout(1.0)

        env.process(workload(env))
        env.run(until=5.5)
        series = select(scraper.database, "ops_total")
        assert len(series) == 1
        # Scrapes at t=1..5 → 5 samples.
        assert len(series[0]._values) == 5
        assert scraper.scrape_count == 5

    def test_instance_labels_attached(self):
        env = Environment()
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        scraper = Scraper(env, interval=1.0)
        scraper.add_target("dm-0", registry, node="nodeA")
        env.run(until=1.5)
        series = select(scraper.database, "g")[0]
        assert "instance=dm-0" in series.labels
        assert "node=nodeA" in series.labels

    def test_rate_query_over_scraped_counter(self):
        env = Environment()
        registry = MetricsRegistry()
        busy = registry.counter("busy_seconds_total")
        scraper = Scraper(env, interval=1.0)
        scraper.add_target("dm-0", registry)

        def device(env):
            # Busy 40% of the time.
            while True:
                busy.inc(0.4)
                yield env.timeout(1.0)

        env.process(device(env))
        env.run(until=20.0)
        series = select(scraper.database, "busy_seconds_total")[0]
        assert series.rate(window=10.0) == pytest.approx(0.4, rel=0.05)

    def test_remove_target(self):
        env = Environment()
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        scraper = Scraper(env, interval=1.0)
        scraper.add_target("t", registry)
        env.run(until=1.5)
        scraper.remove_target("t")
        env.run(until=5.0)
        series = select(scraper.database, "g")[0]
        assert len(series._values) == 1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Scraper(Environment(), interval=0.0)
