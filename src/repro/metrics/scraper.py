"""Pull-model metrics scraper (the Prometheus server of the simulation).

A :class:`Scraper` is a simulation process that periodically collects every
registered target's :class:`~repro.metrics.registry.MetricsRegistry` into a
:class:`~repro.metrics.timeseries.TimeSeriesDatabase`.  The Accelerators
Registry's Metrics Gatherer then issues rate/avg queries against that
database, exactly as the paper's Registry queries Prometheus.

Scale machinery (all off by default, bit-identical when unused):

* each target keeps the series its registry's rows feed, in row order,
  and one time column they share, so the steady-state scrape is one
  timestamp per target and one list append per sample;
* ``retention`` bounds every created series to a trailing ring buffer;
* ``wheel`` rides a shared :class:`~repro.sim.wheel.TimerWheel` instead of
  scheduling a private periodic event, and listeners registered through
  :meth:`add_listener` run synchronously after every scrape (the indexed
  allocator refreshes utilization entries from there).
"""

from __future__ import annotations

import bisect
import time as _time
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import Environment, Interrupt
from .registry import MetricsRegistry, label_key
from .timeseries import TimeColumn, TimeSeries, TimeSeriesDatabase


class ScrapeTarget:
    """A named component exposing a metrics registry."""

    __slots__ = ("name", "registry", "instance_labels", "base_labels",
                 "_series", "_sizes", "_times")

    def __init__(self, name: str, registry: MetricsRegistry,
                 instance_labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.registry = registry
        self.instance_labels = dict(instance_labels or {})
        self.base_labels = label_key(
            {**self.instance_labels, "instance": self.name}.items())
        #: The series each row of the registry feeds, family by family in
        #: row order, and each family's row count.  Rows are never
        #: removed, so a change of layout shows as a change of row count,
        #: which rebinds the families whose count moved.
        self._series: List[TimeSeries] = []
        self._sizes: Tuple[int, ...] = ()
        #: The timestamps of this target's scrapes, shared by its series.
        self._times = TimeColumn()

    def _bind(self, database: TimeSeriesDatabase,
              retention: Optional[float]) -> List[TimeSeries]:
        """Look up (creating if needed) the series of every row of each
        family whose row count moved; keep the others' series.

        A new series joins this target's time column at the next scrape.
        One whose samples an earlier target of this name scraped keeps its
        own timestamps (:meth:`TimeSeries.append`).
        """
        base, times = self.base_labels, self._times
        old, old_sizes = self._series, self._sizes
        bound: List[TimeSeries] = []
        sizes: List[int] = []
        start = 0
        for index, family in enumerate(self.registry.families()):
            size = family.row_count()
            old_size = old_sizes[index] if index < len(old_sizes) else 0
            if size == old_size:
                bound += old[start:start + size]
            else:
                for sample_name, pairs in family.row_labels():
                    key = label_key(pairs)
                    labels = tuple(sorted(base + key)) if key else base
                    series = database.series(sample_name, labels, retention)
                    if not series._values:
                        series._times, series._start = times, len(times)
                    bound.append(series)
            start += old_size
            sizes.append(size)
        self._series, self._sizes = bound, tuple(sizes)
        return bound

    def _trim(self, cutoff: float) -> None:
        """Drop the column's samples older than ``cutoff``, in chunks, from
        the column and every series on it at once."""
        times = self._times
        if not times or times[0] >= cutoff:
            return
        lo = bisect.bisect_left(times, cutoff)
        if lo < 64 and lo * 2 < len(times):
            return
        for series in self._series:
            if series._times is times:
                start = series._start
                if start < lo:
                    del series._values[:lo - start]
                    series._start = 0
                else:
                    series._start = start - lo
        del times[:lo]


class Scraper:
    """Periodically scrapes all targets into a time-series database."""

    def __init__(self, env: Environment, interval: float = 1.0,
                 retention: Optional[float] = None, wheel=None):
        if interval <= 0:
            raise ValueError("scrape interval must be > 0")
        self.env = env
        self.interval = interval
        self.database = TimeSeriesDatabase()
        #: Trailing ring-buffer bound applied to every series (None keeps
        #: full history, the seed behavior).
        self.retention = retention
        self._targets: Dict[str, ScrapeTarget] = {}
        self._listeners: List[Callable[[float], None]] = []
        self.scrape_count = 0
        #: Accumulated host wall clock spent inside scrape_once, seconds.
        self.scrape_wall = 0.0
        self._process = None
        self._subscription = None
        if wheel is not None:
            self._subscription = wheel.every(
                wheel.ticks_for(interval), self.scrape_once
            )
            self._wheel = wheel
        else:
            self._wheel = None
            self._process = env.process(self._run())

    def add_target(self, name: str, registry: MetricsRegistry,
                   **instance_labels: str) -> ScrapeTarget:
        """Register a scrape target (idempotent on name)."""
        target = ScrapeTarget(name, registry, instance_labels)
        self._targets[name] = target
        return target

    def remove_target(self, name: str) -> None:
        self._targets.pop(name, None)

    def add_listener(self, listener: Callable[[float], None]) -> None:
        """Call ``listener(now)`` synchronously after every scrape."""
        self._listeners.append(listener)

    def scrape_once(self) -> None:
        """Collect one sample from every target at the current time."""
        start = _time.perf_counter()
        now = self.env.now
        database = self.database
        retention = self.retention
        for target in self._targets.values():
            values: List[float] = []
            for family in target.registry.families():
                values += family.row_values()
            series = target._series
            if len(series) != len(values):
                series = target._bind(database, retention)
            times = target._times
            times.append(now)
            for one, value in zip(series, values):
                if one._times is times:
                    one._values.append(value)
                else:
                    one.append(now, value)
            if retention is not None:
                target._trim(now - retention)
        self.scrape_count += 1
        self.scrape_wall += _time.perf_counter() - start
        for listener in self._listeners:
            listener(now)

    def _run(self):
        try:
            while True:
                yield self.env.timeout(self.interval)
                self.scrape_once()
        except Interrupt:
            return
