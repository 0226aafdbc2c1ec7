"""A fixed probe of the machine's current speed.

On a shared machine the host time of identical work drifts, by a factor of
two over a few minutes at worst, as other tenants come and go.  Every round
times this probe after its load phases, and a run's host times are scaled
by ``REFERENCE_S`` ÷ the median probe time over all its rounds.  The median
over a whole run ignores short bursts and follows the slow drift.  The probe
runs no simulator code and never changes between a parent and a change, so
it cancels drift only; it is no calibration against other hardware.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import List

#: Host seconds of one probe at the reference speed: about the probe's
#: time on an idle 2-vCPU Xeon VM, where host times then read unscaled.
REFERENCE_S = 0.009


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: str):
        self.key = key
        self.value = value


def _nodes(count: int):
    for index in range(count):
        yield _Node(index, str(index))


def probe() -> float:
    """Host seconds of a small event-loop-shaped task: generator resumes,
    small objects, a heap and a dict, with garbage collection off."""
    gc.disable()
    try:
        heap: list = []
        table: dict = {}
        start = perf_counter()
        for index, node in enumerate(_nodes(8_000)):
            heapq.heappush(heap, (index * 7919 % 1009, index, node))
            table[node.value] = node
            if len(heap) > 256:
                heapq.heappop(heap)
            if len(table) > 2048:
                table.clear()
        return perf_counter() - start
    finally:
        gc.enable()


def probes(count: int) -> List[float]:
    return [probe() for _ in range(count)]
