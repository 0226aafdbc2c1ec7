"""Unit tests for Algorithm 1 (the device allocation algorithm)."""

import pytest

from repro.cluster import DeviceQuery
from repro.core.registry import (
    AllocationError,
    DeviceView,
    MetricFilter,
    allocate,
    filterby_compatibility,
    filterby_metrics,
    not_compatible,
    orderby_metrics_and_acc,
    redistribution_plan,
)

VENDOR = "Intel(R) Corporation"
PLATFORM = "Intel(R) FPGA SDK for OpenCL(TM)"
ALL_BITSTREAMS = ("sobel", "mm", "pipecnn_alexnet")


def view(name, node, bitstream=None, metrics=None, workloads=()):
    return DeviceView(
        name=name, node=node, vendor=VENDOR, platform=PLATFORM,
        bitstream=bitstream, available_bitstreams=ALL_BITSTREAMS,
        metrics=metrics or {}, workloads=tuple(workloads),
    )


class TestFilters:
    def test_vendor_mismatch_filtered(self):
        query = DeviceQuery(vendor="Xilinx", accelerator="sobel")
        assert filterby_compatibility([view("dm-A", "A")], query) == []

    def test_unavailable_accelerator_filtered(self):
        query = DeviceQuery(accelerator="unknown-acc")
        assert filterby_compatibility([view("dm-A", "A")], query) == []

    def test_compatible_device_kept(self):
        query = DeviceQuery(vendor="Intel", accelerator="sobel")
        devices = [view("dm-A", "A")]
        assert filterby_compatibility(devices, query) == devices

    def test_metrics_filter_drops_hot_devices(self):
        hot = view("dm-A", "A", metrics={"utilization": 0.95})
        cool = view("dm-B", "B", metrics={"utilization": 0.10})
        kept = filterby_metrics(
            [hot, cool], [MetricFilter("utilization", lambda value: value < 0.9)]
        )
        assert kept == [cool]

    def test_missing_metric_defaults_to_zero(self):
        device = view("dm-A", "A")
        kept = filterby_metrics(
            [device], [MetricFilter("utilization", lambda value: value < 0.9)]
        )
        assert kept == [device]


class TestOrdering:
    def test_orders_by_metric_ascending(self):
        query = DeviceQuery(accelerator="sobel")
        busy = view("dm-A", "A", "sobel", {"connected_functions": 3})
        idle = view("dm-B", "B", "sobel", {"connected_functions": 0})
        ordered = orderby_metrics_and_acc(
            [busy, idle], ("connected_functions",), query
        )
        assert [d.name for d in ordered] == ["dm-B", "dm-A"]

    def test_accelerator_compatibility_breaks_ties(self):
        query = DeviceQuery(accelerator="sobel")
        needs_reconfig = view("dm-A", "A", "mm", {"connected_functions": 1})
        ready = view("dm-B", "B", "sobel", {"connected_functions": 1})
        ordered = orderby_metrics_and_acc(
            [needs_reconfig, ready], ("connected_functions",), query
        )
        assert [d.name for d in ordered] == ["dm-B", "dm-A"]

    def test_multiple_metrics_ordering(self):
        query = DeviceQuery(accelerator="sobel")
        a = view("dm-A", "A", "sobel",
                 {"connected_functions": 1, "utilization": 0.8})
        b = view("dm-B", "B", "sobel",
                 {"connected_functions": 1, "utilization": 0.2})
        ordered = orderby_metrics_and_acc(
            [a, b], ("connected_functions", "utilization"), query
        )
        assert [d.name for d in ordered] == ["dm-B", "dm-A"]


class TestRedistribution:
    def test_no_conflicts_is_empty_plan(self):
        query = DeviceQuery(accelerator="mm")
        device = view("dm-A", "A", "sobel",
                      workloads=[("fn-1", "mm")])  # wants mm anyway
        plan = redistribution_plan(device, query, [device])
        assert plan == []

    def test_conflicting_workload_moves_to_matching_device(self):
        query = DeviceQuery(accelerator="mm")
        source = view("dm-A", "A", "sobel", workloads=[("sob-1", "sobel")])
        target = view("dm-B", "B", "sobel")
        plan = redistribution_plan(source, query, [source, target])
        assert plan == [("sob-1", "dm-B")]

    def test_blank_device_accepts_moves(self):
        query = DeviceQuery(accelerator="mm")
        source = view("dm-A", "A", "sobel", workloads=[("sob-1", "sobel")])
        blank = view("dm-B", "B", None)
        plan = redistribution_plan(source, query, [source, blank])
        assert plan == [("sob-1", "dm-B")]

    def test_unmovable_workload_returns_none(self):
        query = DeviceQuery(accelerator="mm")
        source = view("dm-A", "A", "sobel", workloads=[("sob-1", "sobel")])
        other = view("dm-B", "B", "mm", workloads=[("mm-1", "mm")])
        assert redistribution_plan(source, query, [source, other]) is None


class TestAllocate:
    def test_prefers_already_configured_device(self):
        query = DeviceQuery(accelerator="sobel")
        decision = allocate(query, "", [
            view("dm-A", "A", "mm"),
            view("dm-B", "B", "sobel"),
        ])
        assert decision.device.name == "dm-B"
        assert not decision.needs_reconfiguration
        assert decision.node == "B"

    def test_least_connected_device_wins(self):
        query = DeviceQuery(accelerator="sobel")
        decision = allocate(query, "", [
            view("dm-A", "A", "sobel", {"connected_functions": 2}),
            view("dm-B", "B", "sobel", {"connected_functions": 0}),
            view("dm-C", "C", "sobel", {"connected_functions": 1}),
        ])
        assert decision.device.name == "dm-B"

    def test_blank_device_flagged_for_reconfiguration(self):
        query = DeviceQuery(accelerator="sobel")
        decision = allocate(query, "", [view("dm-A", "A", None)])
        assert decision.needs_reconfiguration
        assert decision.redistribution == []

    def test_busy_incompatible_device_triggers_redistribution(self):
        query = DeviceQuery(accelerator="mm")
        decision = allocate(query, "", [
            view("dm-A", "A", "sobel",
                 {"connected_functions": 1},
                 workloads=[("sob-1", "sobel")]),
            view("dm-B", "B", "sobel", {"connected_functions": 2}),
        ])
        assert decision.device.name == "dm-A"
        assert decision.needs_reconfiguration
        assert decision.redistribution == [("sob-1", "dm-B")]

    def test_skips_non_redistributable_device(self):
        query = DeviceQuery(accelerator="mm")
        # dm-A sorts first but can't be freed (its sobel workload has
        # nowhere to go); the algorithm walks on to dm-B, which already
        # runs mm.
        decision = allocate(query, "", [
            view("dm-A", "A", "sobel",
                 {"connected_functions": 0},
                 workloads=[("sob-1", "sobel")]),
            view("dm-B", "B", "mm", {"connected_functions": 1}),
        ])
        assert decision.device.name == "dm-B"
        assert not decision.needs_reconfiguration

    def test_blank_device_absorbs_redistributed_workloads(self):
        query = DeviceQuery(accelerator="mm")
        # dm-A sorts first and its sobel workload can move to blank dm-B,
        # so dm-A is chosen with a redistribution plan.
        decision = allocate(query, "", [
            view("dm-A", "A", "sobel",
                 {"connected_functions": 0},
                 workloads=[("sob-1", "sobel")]),
            view("dm-B", "B", None, {"connected_functions": 1}),
        ])
        assert decision.device.name == "dm-A"
        assert decision.redistribution == [("sob-1", "dm-B")]

    def test_no_device_found_raises(self):
        query = DeviceQuery(accelerator="mm")
        with pytest.raises(AllocationError):
            allocate(query, "", [
                view("dm-A", "A", "sobel",
                     workloads=[("sob-1", "sobel")]),
            ])

    def test_node_hint_respected(self):
        query = DeviceQuery(accelerator="sobel")
        decision = allocate(query, "C", [view("dm-A", "A", "sobel")])
        assert decision.node == "C"

    def test_empty_accelerator_never_reconfigures(self):
        query = DeviceQuery()
        device = view("dm-A", "A", "sobel")
        assert not not_compatible(device, query)
        decision = allocate(query, "", [device])
        assert not decision.needs_reconfiguration
