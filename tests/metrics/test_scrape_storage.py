"""The scrape's storage against the plain structures it replaces.

The time-series database keeps one index by name and builds a name's
postings on its first ``select_matching``; each scrape target keeps its
series in row order and one time column they share.  These tests check
the queries against a linear scan in insertion order, every scraped
series against its own row, and the shared column's trimming and
rebinding against series that keep their own timestamps.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import MetricsRegistry, Scraper, TimeSeries, TimeSeriesDatabase
from repro.metrics.registry import label_key
from repro.sim import Environment

NAMES = ("m", "n", "o")
KEYS = ("a", "b", "c")

label_sets = st.dictionaries(st.sampled_from(KEYS), st.sampled_from("01"),
                             max_size=3).map(
    lambda labels: tuple(sorted(f"{k}={v}" for k, v in labels.items())))
filters = st.dictionaries(st.sampled_from(KEYS), st.sampled_from("01"),
                          max_size=2)
operations = st.lists(st.one_of(
    st.tuples(st.just("series"), st.sampled_from(NAMES), label_sets),
    st.tuples(st.just("select"), st.sampled_from(NAMES)),
    st.tuples(st.just("match"), st.sampled_from(NAMES), filters),
    st.tuples(st.just("lookup"), st.sampled_from(NAMES), label_sets),
), max_size=60)


@given(operations)
@settings(deadline=None)
# Postings built after their series exist, then a series added to an
# indexed name, which must join them.
@example([("series", "m", ("a=0",)), ("series", "m", ("a=0", "b=1")),
          ("match", "m", {"a": "0"}), ("series", "m", ("a=0", "c=1")),
          ("match", "m", {"a": "0"}), ("match", "m", {"a": "0", "c": "1"})])
def test_queries_match_a_linear_scan_in_insertion_order(operations):
    database = TimeSeriesDatabase()
    scanned = []  # every series, in the order it was created
    for operation in operations:
        kind, name = operation[:2]
        if kind == "series":
            series = database.series(name, operation[2])
            existing = [s for s in scanned
                        if s.name == name and s.labels == operation[2]]
            assert existing in ([], [series])
            if not existing:
                scanned.append(series)
        elif kind == "select":
            assert database.select(name) == [
                s for s in scanned if s.name == name]
        elif kind == "match":
            wanted = [f"{k}={v}" for k, v in operation[2].items()]
            assert database.select_matching(name, **operation[2]) == [
                s for s in scanned if s.name == name
                and all(label in s.labels for label in wanted)]
        else:
            found = [s for s in scanned
                     if s.name == name and s.labels == operation[2]]
            assert database.lookup(name, operation[2]) == (
                found[0] if found else None)
        assert len(database) == len(scanned)


def assert_rows_scraped(scraper, target_name, registry, at):
    """Every row's series holds the row's value as its latest sample,
    scraped ``at``."""
    base = scraper._targets[target_name].base_labels
    for family in registry.families():
        for sample_name, _labels, key, value in family.collect_rows():
            series = scraper.database.lookup(
                sample_name, tuple(sorted(base + key)))
            assert series is not None, (sample_name, key)
            assert series.latest() == value, (sample_name, key)
            assert series.latest_time() == at


def test_new_label_sets_that_sort_first_keep_series_aligned():
    """Between two scrapes a pushed family and a collected one each gain a
    label set that sorts before the existing ones, which moves every
    existing row: each series must still get its own row's value."""
    env = Environment()
    registry = MetricsRegistry()
    pushed = registry.counter("pushed_total", labelnames=["client"])
    owned = {"m": 5.0}
    registry.counter("owned_total", labelnames=["client"],
                     collect=lambda: sorted(((client,), value)
                                            for client, value in owned.items()))
    registry.histogram("latency_seconds", labelnames=["client"],
                       buckets=[0.1, 1.0])
    registry.gauge("depth").set(3.0)
    scraper = Scraper(env, interval=1.0)
    scraper.add_target("t", registry, node="n0")

    pushed.labels("m").inc(1.0)
    registry.get("latency_seconds").labels("m").observe(0.5)
    env.run(until=1.5)
    assert_rows_scraped(scraper, "t", registry, at=1.0)

    pushed.labels("c").inc(2.0)
    owned["c"] = 7.0
    registry.get("latency_seconds").labels("c").observe(0.05)
    env.run(until=2.5)
    assert_rows_scraped(scraper, "t", registry, at=2.0)

    pushed.labels("a").inc(4.0)
    registry.get("owned_total").labels("b")  # a row before any sample
    owned["m"] = 6.0
    env.run(until=3.5)
    assert_rows_scraped(scraper, "t", registry, at=3.0)
    row = scraper.database.lookup("owned_total",
                                  ("client=b", "instance=t", "node=n0"))
    assert row.window(0.0, 10.0) == [(3.0, 0.0)]
    first = scraper.database.lookup("pushed_total",
                                    ("client=m", "instance=t", "node=n0"))
    assert first.window(0.0, 10.0) == [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]


@given(joins=st.lists(st.integers(min_value=0, max_value=150), min_size=1,
                      max_size=6),
       retention=st.sampled_from([2.0, 3.5, 10.0, 70.0]))
@settings(deadline=None, max_examples=30)
def test_a_trimmed_column_keeps_what_each_series_would(joins, retention):
    """Series that join a target at different scrapes and share its
    trimmed column hold, within the retention window, the samples a
    series appending its own timestamps holds, and a bounded number
    beyond it."""
    env = Environment()
    registry = MetricsRegistry()
    counter = registry.counter("hits_total", labelnames=["page"])
    scraper = Scraper(env, interval=1.0, retention=retention)
    scraper.add_target("t", registry)
    reference = {}

    def traffic():
        for tick in range(160):
            for page, join in enumerate(joins):
                if tick >= join:
                    counter.labels(str(page)).inc(page + 1.0)
            yield env.timeout(1.0)

    def check(now):
        for family_row in counter.collect_rows():
            page = family_row[1]["page"]
            mine = reference.setdefault(page, TimeSeries("ref",
                                                         retention=retention))
            mine.append(now, family_row[3])
            series = scraper.database.lookup(
                "hits_total", ("instance=t", f"page={page}"))
            assert series.window(now - retention, now) == mine.window(
                now - retention, now)
            assert series.latest_time() == now
            assert len(series) <= 2 * max(64.0, retention) + 1

    scraper.add_listener(check)
    env.process(traffic())
    env.run(until=160.5)


def test_a_readded_target_continues_its_series():
    """A target added again under its name scrapes the series the first
    one filled: they keep their samples and their times."""
    env = Environment()
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    scraper = Scraper(env, interval=1.0)
    scraper.add_target("t", registry)
    gauge.set(1.0)
    env.run(until=2.5)
    scraper.remove_target("t")
    env.run(until=4.5)
    gauge.set(2.0)
    scraper.add_target("t", registry)
    registry.gauge("h").set(5.0)
    env.run(until=6.5)
    series = scraper.database.lookup("g", ("instance=t",))
    assert series.window(0.0, 10.0) == [(1.0, 1.0), (2.0, 1.0),
                                        (5.0, 2.0), (6.0, 2.0)]
    later = scraper.database.lookup("h", ("instance=t",))
    assert later.window(0.0, 10.0) == [(5.0, 5.0), (6.0, 5.0)]
    series.append(7.0, 3.0)
    assert series.latest_time() == 7.0 and len(series) == 5
    assert later.window(0.0, 10.0) == [(5.0, 5.0), (6.0, 5.0)]


def test_label_keys_share_their_strings():
    """One ``"key=value"`` string serves every label set that holds it."""
    first = label_key([("le", "0.005"), ("client", "x")])
    second = label_key((("client", "x"), ("le", "0.005")))
    assert first == ("client=x", "le=0.005")
    assert all(a is b for a, b in zip(first, second))
