"""Time-series storage and PromQL-style queries over scraped samples."""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple


class TimeSeries:
    """Timestamped samples of one metric/label-set combination.

    With ``retention`` set the series behaves as a ring buffer: on append,
    samples older than ``newest - retention`` are discarded (in amortized
    O(1) chunks), bounding memory at fleet scale.  Retention must be at
    least as long as the widest query window issued against the series.
    """

    __slots__ = ("name", "labels", "retention", "_times", "_values")

    def __init__(self, name: str, labels: Tuple[str, ...] = (),
                 retention: Optional[float] = None):
        self.name = name
        self.labels = labels
        self.retention = retention
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        times = self._times
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

    def latest(self) -> Optional[float]:
        """Most recent sample value, or None if empty."""
        return self._values[-1] if self._values else None

    def latest_time(self) -> Optional[float]:
        return self._times[-1] if self._times else None

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Samples with ``start <= t <= end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def first_time_in(self, start: float, end: float) -> Optional[float]:
        """Timestamp of the earliest sample in ``[start, end]``, if any.

        Lets callers caching window queries (rate/avg) compute the exact
        instant their cached value expires: the result changes only when a
        new sample lands or when this first sample falls out of a trailing
        window, i.e. strictly after ``first_time_in(...) + window``.
        """
        lo = bisect.bisect_left(self._times, start)
        if lo >= len(self._times) or self._times[lo] > end:
            return None
        return self._times[lo]

    def rate(self, window: float, now: Optional[float] = None) -> float:
        """Per-second increase over the trailing ``window`` (counter rate).

        Like PromQL ``rate()``: uses first/last sample in range. Returns NaN
        with fewer than two samples.
        """
        if now is None:
            now = self._times[-1] if self._times else 0.0
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
            now = self._times[-1] if self._times else 0.0
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

    Series are additionally indexed by metric name and by every
    ``(metric name, "label=value")`` pair, so :meth:`select` and
    :meth:`select_matching` are independent of the total series count —
    at fleet scale the Metrics Gatherer's per-device queries would
    otherwise scan every series of every board on every allocation.
    Both indices preserve series insertion order, so callers relying on
    "first matching series" semantics see exactly what a full scan
    returned.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, Tuple[str, ...]], TimeSeries] = {}
        self._by_name: Dict[str, List[TimeSeries]] = {}
        self._by_label: Dict[Tuple[str, str], List[TimeSeries]] = {}

    def series(self, name: str, labels: Tuple[str, ...] = (),
               retention: Optional[float] = None) -> TimeSeries:
        """Get (creating if needed) a series."""
        key = (name, tuple(labels))
        found = self._series.get(key)
        if found is None:
            found = TimeSeries(name, key[1], retention=retention)
            self._series[key] = found
            self._by_name.setdefault(name, []).append(found)
            for label in found.labels:
                self._by_label.setdefault((name, label), []).append(found)
        return found

    def lookup(self, name: str, labels: Tuple[str, ...] = ()) -> Optional[TimeSeries]:
        """Get a series if it exists, without creating it."""
        return self._series.get((name, tuple(labels)))

    def select(self, name: str) -> List[TimeSeries]:
        """All series of a metric name regardless of labels."""
        return list(self._by_name.get(name, ()))

    def select_matching(self, name: str, **label_filters: str) -> List[TimeSeries]:
        """Series of ``name`` whose labels contain all given ``key=value``."""
        if not label_filters:
            return self.select(name)
        wanted = [f"{k}={v}" for k, v in label_filters.items()]
        candidates = self._by_label.get((name, wanted[0]))
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
        return len(self._series)
