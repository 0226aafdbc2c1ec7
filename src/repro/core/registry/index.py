"""Indexed Algorithm 1: lookup + ordered-merge instead of filter + sort.

The brute-force allocator in :mod:`~repro.core.registry.allocation` rebuilds
and re-sorts every :class:`DeviceView` on every allocation — O(n log n) per
admission with n devices, which dominates control-plane cost at fleet
scale.  :class:`DeviceIndex` maintains the same information incrementally:

* devices are bucketed by ``(vendor, platform, available bitstreams)`` —
  compatibility (a substring test plus accelerator availability) is decided
  once per *bucket* per query, not once per device;
* inside a bucket, devices are partitioned by their currently configured
  (effective) bitstream, each partition kept as a list sorted by the
  metric key ``(metric values..., name)`` and maintained with bisect on
  refresh — O(log n) search, memmove insert;
* Algorithm 1's global order — metric values, then the
  accelerator-mismatch tie-breaker, then name — is reproduced lazily with
  ``heapq.merge`` over the matching partitions, injecting each partition's
  (query-dependent, partition-constant) mismatch bit into the merge key.
  The walk stops at the first compatible-or-redistributable device, so the
  common allocation touches a handful of entries.

Equivalence with the oracle is exact, not approximate: the merge key is
the oracle's sort key, metric filters apply the same predicates, and the
``not_compatible`` / ``redistribution_plan`` decisions are delegated to
the oracle's own functions (materializing the full ordered candidate list
only in the rare conflicting-reconfiguration case that needs it).  The
property test in ``tests/core/test_allocation_index.py`` drives both paths
over randomized fleets and asserts identical decisions.

The index holds *views*; keeping them fresh (metrics, bitstreams,
workloads, liveness) is the Registry's job — see
``AcceleratorsRegistry._index_refresh``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple

from ...cluster.objects import DeviceQuery
from .allocation import (
    AllocationDecision,
    AllocationError,
    DeviceView,
    MetricFilter,
    not_compatible,
    redistribution_plan,
)

#: Bucket key: everything compatibility filtering depends on.
BucketKey = Tuple[str, str, Tuple[str, ...]]


class _Partition:
    """Devices of one bucket sharing one configured bitstream, sorted."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: Sorted list of (sort_key, view); sort_key ends with the device
        #: name, so keys are unique and ties never compare views.
        self.entries: List[Tuple[tuple, DeviceView]] = []

    def add(self, key: tuple, view: DeviceView) -> None:
        insort(self.entries, (key, view))

    def remove(self, key: tuple) -> None:
        index = bisect_left(self.entries, (key,))
        if index < len(self.entries) and self.entries[index][0] == key:
            del self.entries[index]


class DeviceIndex:
    """Incrementally maintained index answering Algorithm 1 queries."""

    def __init__(
        self,
        metrics_order: Sequence[str] = ("connected_functions", "utilization"),
        metrics_filters: Sequence[MetricFilter] = (),
    ):
        self.metrics_order = tuple(metrics_order)
        self.metrics_filters = tuple(metrics_filters)
        #: name -> (bucket key, partition bitstream, sort key, view)
        self._entries: Dict[str, Tuple[BucketKey, Optional[str], tuple,
                                       DeviceView]] = {}
        self._buckets: Dict[BucketKey, Dict[Optional[str], _Partition]] = {}
        #: Partitions the queries have opened: the allocator's work as a
        #: count.  A query opens exactly the non-empty partitions of the
        #: buckets compatible with it.
        self.partitions_visited = 0

    # -- maintenance -------------------------------------------------------
    def _sort_key(self, view: DeviceView) -> tuple:
        metrics = view.metrics
        return tuple(
            metrics.get(metric, 0.0) for metric in self.metrics_order
        ) + (view.name,)

    def refresh(self, view: DeviceView) -> None:
        """Insert or update one device's view (metrics, bitstream, ...)."""
        self.remove(view.name)
        bucket_key: BucketKey = (
            view.vendor, view.platform, tuple(view.available_bitstreams)
        )
        key = self._sort_key(view)
        partitions = self._buckets.setdefault(bucket_key, {})
        partition = partitions.get(view.bitstream)
        if partition is None:
            partition = partitions[view.bitstream] = _Partition()
        partition.add(key, view)
        self._entries[view.name] = (bucket_key, view.bitstream, key, view)

    def remove(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is None:
            return
        bucket_key, bitstream, key, _view = entry
        self._buckets[bucket_key][bitstream].remove(key)

    # -- queries -----------------------------------------------------------
    @staticmethod
    def _annotated(entries: List[Tuple[tuple, DeviceView]], mismatch: int):
        """Inject a partition's (constant) mismatch bit into its sort keys.

        A named generator, not an inline genexp: the mismatch bit must be
        bound per partition, and a genexp closing over the loop variable
        would resolve it lazily — every partition would see the last
        partition's bit and the merged order would collapse to name order.
        """
        for key, view in entries:
            yield key[:-1] + (mismatch, key[-1]), view

    def _merged(self, query: DeviceQuery):
        """Iterate (merge key, view) in the oracle's exact global order."""
        accelerator = query.accelerator
        iterators = []
        for (vendor, platform, available), partitions \
                in self._buckets.items():
            if not query.matches_vendor(vendor, platform):
                continue
            if accelerator and accelerator not in available:
                continue
            for bitstream, partition in partitions.items():
                if not partition.entries:
                    continue
                self.partitions_visited += 1
                iterators.append(self._annotated(
                    partition.entries, 0 if bitstream == accelerator else 1
                ))
        return heapq.merge(*iterators, key=lambda item: item[0])

    def _walk(self, query: DeviceQuery):
        filters = self.metrics_filters
        if not filters:
            for _key, view in self._merged(query):
                yield view
            return
        for _key, view in self._merged(query):
            metrics = view.metrics
            if all(f.predicate(metrics.get(f.metric, 0.0)) for f in filters):
                yield view

    def allocate(self, query: DeviceQuery,
                 node_hint: str) -> AllocationDecision:
        """Algorithm 1 over the index; identical decisions to the oracle."""
        ordered: List[DeviceView] = []
        walk = self._walk(query)
        chosen: Optional[DeviceView] = None
        redistribution: List[Tuple[str, str]] = []
        accelerator = query.accelerator
        for view in walk:
            ordered.append(view)
            if not not_compatible(view, query):
                chosen = view
                break
            if all(acc == accelerator for _name, acc in view.workloads):
                # Reconfiguration displaces nothing: the oracle's plan is
                # trivially the empty move list.
                chosen = view
                break
            # Conflicting workloads: the oracle scans the *full* ordered
            # candidate list for redistribution targets, so materialize it.
            index = len(ordered) - 1
            ordered.extend(walk)
            while index < len(ordered):
                device = ordered[index]
                if not not_compatible(device, query):
                    chosen = device
                    break
                plan = redistribution_plan(device, query, ordered)
                if plan is not None:
                    chosen = device
                    redistribution = plan
                    break
                index += 1
            break

        if chosen is None:
            raise AllocationError(
                f"device not found for accelerator {query.accelerator!r}"
            )
        return AllocationDecision(
            device=chosen,
            node=node_hint or chosen.node,
            needs_reconfiguration=not_compatible(chosen, query),
            redistribution=redistribution,
        )
