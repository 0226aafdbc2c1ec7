"""Algorithm 1: the online device allocation algorithm.

Faithful to the paper's pseudocode::

    procedure Allocate(instance, devs, metrics_order, metrics_filters)
        devs <- filterby_compatibility(devs, instance.devicequery)
        devs <- filterby_metrics(devs, metrics_filters)
        devs <- orderby_metrics_and_acc(devs, metrics_order)
        i <- 0
        if not_compatible(devs(i)) then
            while not_redistributable(devs(i)) do
                i <- i + 1
        if i < len(devs) then chosen_device <- devs(i)
        else raise error "device not found"
        instance.devs <- {chosen_device}
        if instance.node == "" then instance.node <- chosen_device.node

*Compatibility* covers vendor/platform and whether the requested
accelerator exists for the device; *accelerator compatibility* (the
ordering tie-breaker and the ``not_compatible`` test) asks whether the
device's currently configured bitstream already matches.  When it does not,
the device needs reconfiguration, which is only allowed if every workload
currently on it can be *redistributed* to other compatible devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...cluster.objects import DeviceQuery


class AllocationError(LookupError):
    """Algorithm 1's ``error "device not found"``."""


@dataclass
class DeviceView:
    """Immutable snapshot of one device as the allocator sees it."""

    name: str
    node: str
    vendor: str
    platform: str
    bitstream: Optional[str]          # effective (pending-aware) bitstream
    available_bitstreams: Sequence[str]
    metrics: Dict[str, float] = field(default_factory=dict)
    #: (instance name, accelerator it needs) currently on the device.
    workloads: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class MetricFilter:
    """Keep only devices whose metric satisfies the predicate."""

    metric: str
    predicate: Callable[[float], bool]

@dataclass
class AllocationDecision:
    """Outcome of Algorithm 1 for one instance."""

    device: DeviceView
    node: str
    needs_reconfiguration: bool
    #: (instance, target device) moves required to free the chosen device.
    redistribution: List[Tuple[str, str]] = field(default_factory=list)


def filterby_compatibility(devices: List[DeviceView],
                           query: DeviceQuery) -> List[DeviceView]:
    """Line 2: vendor/platform match and the accelerator is available."""
    compatible = []
    for device in devices:
        if not query.matches_vendor(device.vendor, device.platform):
            continue
        if query.accelerator and query.accelerator not in device.available_bitstreams:
            continue
        compatible.append(device)
    return compatible


def filterby_metrics(devices: List[DeviceView],
                     metrics_filters: Sequence[MetricFilter]
                     ) -> List[DeviceView]:
    """Line 3: drop devices failing any filter (e.g. highly utilized)."""
    kept = []
    for device in devices:
        if all(f.predicate(device.metrics.get(f.metric, 0.0))
               for f in metrics_filters):
            kept.append(device)
    return kept


def orderby_metrics_and_acc(devices: List[DeviceView],
                            metrics_order: Sequence[str],
                            query: DeviceQuery) -> List[DeviceView]:
    """Line 4: sort ascending by the chosen metrics, preferring devices
    whose configured bitstream already matches (no reconfiguration)."""

    def key(device: DeviceView):
        metric_values = tuple(
            device.metrics.get(metric, 0.0) for metric in metrics_order
        )
        acc_mismatch = 0 if device.bitstream == query.accelerator else 1
        return metric_values + (acc_mismatch, device.name)

    return sorted(devices, key=key)


def not_compatible(device: DeviceView, query: DeviceQuery) -> bool:
    """Line 6: would allocating here require a reconfiguration?"""
    if not query.accelerator:
        return False
    return device.bitstream != query.accelerator


def redistribution_plan(
    device: DeviceView,
    query: DeviceQuery,
    candidates: List[DeviceView],
) -> Optional[List[Tuple[str, str]]]:
    """Line 7: can this device's conflicting workloads move elsewhere?

    Returns the move list, or None when some workload has nowhere to go
    (``not_redistributable``).  A workload conflicts when it needs an
    accelerator other than the one we are about to program.
    """
    moves: List[Tuple[str, str]] = []
    # Spare capacity bookkeeping: each target can absorb many instances,
    # but must already run (or be able to run without conflicts) the
    # workload's accelerator.
    for instance, accelerator in device.workloads:
        if accelerator == query.accelerator:
            continue  # stays put: same bitstream after reconfiguration
        target = _find_target(accelerator, device, candidates)
        if target is None:
            return None
        moves.append((instance, target.name))
    return moves


def _find_target(accelerator: str, source: DeviceView,
                 candidates: List[DeviceView]) -> Optional[DeviceView]:
    for candidate in candidates:
        if candidate.name == source.name:
            continue
        if accelerator not in candidate.available_bitstreams:
            continue
        if candidate.bitstream == accelerator:
            return candidate
        if not candidate.workloads and candidate.bitstream is None:
            return candidate  # blank device: free to program
    return None


def allocate(
    query: DeviceQuery,
    node_hint: str,
    devices: List[DeviceView],
    metrics_order: Sequence[str] = ("connected_functions", "utilization"),
    metrics_filters: Sequence[MetricFilter] = (),
) -> AllocationDecision:
    """Run Algorithm 1 and return the placement decision."""
    devs = filterby_compatibility(devices, query)
    devs = filterby_metrics(devs, metrics_filters)
    devs = orderby_metrics_and_acc(devs, metrics_order, query)

    index = 0
    redistribution: List[Tuple[str, str]] = []
    while index < len(devs):
        device = devs[index]
        if not not_compatible(device, query):
            break
        plan = redistribution_plan(device, query, devs)
        if plan is not None:
            redistribution = plan
            break
        index += 1

    if index >= len(devs):
        raise AllocationError(
            f"device not found for accelerator {query.accelerator!r}"
        )

    chosen = devs[index]
    node = node_hint or chosen.node
    return AllocationDecision(
        device=chosen,
        node=node,
        needs_reconfiguration=not_compatible(chosen, query),
        redistribution=redistribution,
    )
