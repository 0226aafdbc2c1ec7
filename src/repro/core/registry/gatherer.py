"""Metrics Gatherer: runtime metrics for allocation decisions.

"Data collected through the Device and Functions Services are integrated by
the Metrics Gatherer, which receives Device Managers performance metrics
from a Prometheus service.  Data like the FPGA time utilization (defined as
the time spent by the device computing OpenCL calls in a given amount of
time) are used to improve allocation of functions."
"""

from __future__ import annotations

import math
from typing import Dict

from ...metrics import Scraper


class MetricsGatherer:
    """Query layer over the Prometheus scrape database."""

    def __init__(self, scraper: Scraper, window: float = 10.0):
        self.scraper = scraper
        self.window = window

    # -- device-level metrics ------------------------------------------------
    def utilization(self, device: str) -> float:
        """FPGA time utilization of a device over the trailing window.

        0.0 when no samples exist yet (a fresh device counts as idle).
        """
        series = self.scraper.database.select_matching(
            "dm_busy_seconds_total", instance=device
        )
        if not series:
            return 0.0
        rate = series[0].rate(self.window, now=self.scraper.env.now)
        return 0.0 if math.isnan(rate) else max(rate, 0.0)

    def utilization_detail(self, device: str) -> tuple:
        """``(utilization, valid_until)`` for incremental caching.

        The trailing-window rate is a pure function of the in-window
        sample set, so a cached value can only change when a new sample
        is scraped or when the current first-in-window sample falls out —
        at any time strictly after ``valid_until``.  ``valid_until`` is
        ``inf`` when no falloff can change the value (fewer than two
        in-window samples): only the next scrape matters then.
        """
        series = self.scraper.database.select_matching(
            "dm_busy_seconds_total", instance=device
        )
        if not series:
            return 0.0, math.inf
        now = self.scraper.env.now
        rate = series[0].rate(self.window, now=now)
        value = 0.0 if math.isnan(rate) else max(rate, 0.0)
        first = series[0].first_time_in(now - self.window, now)
        if math.isnan(rate) or first is None:
            return value, math.inf
        return value, first + self.window

    def connected_functions(self, device: str) -> int:
        series = self.scraper.database.select_matching(
            "dm_connected_clients", instance=device
        )
        if not series or series[0].latest() is None:
            return 0
        return int(series[0].latest())

    def queue_depth(self, device: str) -> float:
        series = self.scraper.database.select_matching(
            "dm_task_queue_depth", instance=device
        )
        if not series or series[0].latest() is None:
            return 0.0
        return float(series[0].latest())

    def device_metrics(self, device: str) -> Dict[str, float]:
        """All allocation-relevant metrics for one device."""
        return {
            "utilization": self.utilization(device),
            "connected_functions": float(self.connected_functions(device)),
            "queue_depth": self.queue_depth(device),
        }
