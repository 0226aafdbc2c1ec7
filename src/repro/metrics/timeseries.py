"""Time-series storage and PromQL-style queries over scraped samples."""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple


class TimeColumn(list):
    """The timestamps of one scrape target's scrapes, shared by its series.

    Every series the target fills gets one value per scrape from the one
    it first joins on, so its samples are a contiguous run of the
    column: :attr:`TimeSeries._start` is the index of its first.
    """

    __slots__ = ()


class TimeSeries:
    """Timestamped samples of one metric/label-set combination.

    The series holds its values; its timestamps are ``_times[_start:]``,
    one per value.  A series :meth:`append` fills owns its list.  One a
    scrape target fills reads the target's :class:`TimeColumn` instead;
    :meth:`append` first gives it a copy of its own timestamps.

    With ``retention`` set the series behaves as a ring buffer: on append,
    samples older than ``newest - retention`` are discarded (in amortized
    O(1) chunks), bounding memory at fleet scale.  A scrape target trims
    its column and all its series as one.  Retention must be at least as
    long as the widest query window issued against the series.
    """

    __slots__ = ("name", "labels", "retention", "_times", "_start",
                 "_values")

    def __init__(self, name: str, labels: Tuple[str, ...] = (),
                 retention: Optional[float] = None):
        self.name = name
        self.labels = labels
        self.retention = retention
        self._times: List[float] = []
        self._start = 0
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._values)

    def append(self, time: float, value: float) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        times = self._times
        if type(times) is TimeColumn:
            times = self._own_times()
        if times and time < times[-1]:
            raise ValueError(
                f"non-monotonic sample at {time} (last {times[-1]})"
            )
        times.append(time)
        self._values.append(value)
        if self.retention is not None:
            cutoff = time - self.retention
            if times[0] < cutoff:
                lo = bisect.bisect_left(times, cutoff)
                # Trim in chunks so the front-of-list delete amortizes.
                if lo >= 64 or lo * 2 >= len(times):
                    del times[:lo]
                    del self._values[:lo]

    def _own_times(self) -> List[float]:
        """Leave the column: keep a copy of this series' timestamps."""
        start = self._start
        times = self._times = self._times[start:start + len(self._values)]
        self._start = 0
        return times

    def latest(self) -> Optional[float]:
        """Most recent sample value, or None if empty."""
        return self._values[-1] if self._values else None

    def latest_time(self) -> Optional[float]:
        values = self._values
        return self._times[self._start + len(values) - 1] if values else None

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Samples with ``start <= t <= end``."""
        times, first = self._times, self._start
        last = first + len(self._values)
        lo = bisect.bisect_left(times, start, first, last)
        hi = bisect.bisect_right(times, end, first, last)
        return list(zip(times[lo:hi], self._values[lo - first:hi - first]))

    def first_time_in(self, start: float, end: float) -> Optional[float]:
        """Timestamp of the earliest sample in ``[start, end]``, if any.

        Lets callers caching window queries (rate/avg) compute the exact
        instant their cached value expires: the result changes only when a
        new sample lands or when this first sample falls out of a trailing
        window, i.e. strictly after ``first_time_in(...) + window``.
        """
        times, first = self._times, self._start
        last = first + len(self._values)
        lo = bisect.bisect_left(times, start, first, last)
        if lo >= last or times[lo] > end:
            return None
        return times[lo]

    def rate(self, window: float, now: Optional[float] = None) -> float:
        """Per-second increase over the trailing ``window`` (counter rate).

        Like PromQL ``rate()``: uses first/last sample in range. Returns NaN
        with fewer than two samples.
        """
        if now is None:
            now = self.latest_time() if self._values else 0.0
        samples = self.window(now - window, now)
        if len(samples) < 2:
            return math.nan
        (t0, v0), (t1, v1) = samples[0], samples[-1]
        if t1 == t0:
            return math.nan
        increase = v1 - v0
        if increase < 0:  # counter reset
            increase = v1
        return increase / (t1 - t0)

    def avg(self, window: float, now: Optional[float] = None) -> float:
        """Average of samples over the trailing ``window`` (gauge average)."""
        if now is None:
            now = self.latest_time() if self._values else 0.0
        samples = self.window(now - window, now)
        if not samples:
            return math.nan
        return sum(v for _, v in samples) / len(samples)

    def increase(self, window: float, now: Optional[float] = None) -> float:
        """Total increase over the trailing window (counter increase)."""
        r = self.rate(window, now)
        return r * window if not math.isnan(r) else math.nan


class TimeSeriesDatabase:
    """All series scraped from all targets, keyed by (metric, labels).

    One index maps each metric name to its series by label tuple, in
    insertion order.  A name's postings, its series by every
    ``"label=value"`` string, are built on its first
    :meth:`select_matching` and kept up to date from then on, so that
    query is independent of the total series count (the Metrics
    Gatherer queries a few names per device on every allocation) while
    names nobody filters cost nothing.  Postings preserve insertion
    order, so callers relying on "first matching series" semantics see
    exactly what a full scan returned.
    """

    def __init__(self) -> None:
        self._names: Dict[str, Dict[Tuple[str, ...], TimeSeries]] = {}
        self._postings: Dict[str, Dict[str, List[TimeSeries]]] = {}
        self._count = 0

    def series(self, name: str, labels: Tuple[str, ...] = (),
               retention: Optional[float] = None) -> TimeSeries:
        """Get (creating if needed) a series."""
        labels = tuple(labels)
        named = self._names.get(name)
        if named is None:
            named = self._names[name] = {}
        found = named.get(labels)
        if found is None:
            found = named[labels] = TimeSeries(name, labels, retention)
            self._count += 1
            postings = self._postings.get(name)
            if postings is not None:
                for label in labels:
                    postings.setdefault(label, []).append(found)
        return found

    def lookup(self, name: str, labels: Tuple[str, ...] = ()) -> Optional[TimeSeries]:
        """Get a series if it exists, without creating it."""
        named = self._names.get(name)
        return None if named is None else named.get(tuple(labels))

    def select(self, name: str) -> List[TimeSeries]:
        """All series of a metric name regardless of labels."""
        named = self._names.get(name)
        return [] if named is None else list(named.values())

    def select_matching(self, name: str, **label_filters: str) -> List[TimeSeries]:
        """Series of ``name`` whose labels contain all given ``key=value``."""
        if not label_filters:
            return self.select(name)
        postings = self._postings.get(name)
        if postings is None:
            postings = self._postings[name] = {}
            for series in self._names.get(name, {}).values():
                for label in series.labels:
                    postings.setdefault(label, []).append(series)
        wanted = [f"{k}={v}" for k, v in label_filters.items()]
        candidates = postings.get(wanted[0])
        if not candidates:
            return []
        rest = wanted[1:]
        if not rest:
            return list(candidates)
        return [
            series for series in candidates
            if all(label in series.labels for label in rest)
        ]

    def __len__(self) -> int:
        return self._count
