"""Indexed Algorithm 1 must be decision-identical to the brute force.

The :class:`~repro.core.registry.index.DeviceIndex` replaces the oracle's
filter+sort with bucket lookup and an ordered lazy merge; its whole
contract is *exact* equivalence — same device, same node, same
reconfiguration flag, same redistribution moves, same "device not found"
failures — across any fleet, any metric ordering, any filters, any
workload placement.  The hypothesis drive below checks that contract on
randomized fleets, including incremental refreshes (the index's reason to
exist) and removals.  It also counts the index's work: a query opens
exactly the partitions that hold a device the oracle's compatibility
filter keeps, never one more.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeviceQuery
from repro.core.registry import (
    AllocationError,
    DeviceView,
    MetricFilter,
    allocate,
)
from repro.core.registry.allocation import filterby_compatibility
from repro.core.registry.index import DeviceIndex

VENDOR = "Intel(R) Corporation"
PLATFORM = "Intel(R) FPGA SDK for OpenCL(TM)"
OTHER_VENDOR = "Xilinx Inc."
BITSTREAMS = ("sobel", "mm", "alexnet")
METRICS = ("connected_functions", "utilization", "queue_depth")

#: Few discrete metric values so ties (the sort's hard case) are common.
metric_values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])

device_views = st.builds(
    DeviceView,
    name=st.uuids().map(lambda u: f"dm-{u.hex[:8]}"),
    node=st.sampled_from(["A", "B", "C", "D"]),
    vendor=st.sampled_from([VENDOR, VENDOR, VENDOR, OTHER_VENDOR]),
    platform=st.just(PLATFORM),
    bitstream=st.sampled_from([None, "sobel", "sobel", "mm", "alexnet"]),
    available_bitstreams=st.sets(
        st.sampled_from(BITSTREAMS), min_size=1
    ).map(lambda s: tuple(sorted(s))),
    metrics=st.fixed_dictionaries(
        {}, optional={name: metric_values for name in METRICS}
    ),
    workloads=st.lists(
        st.tuples(
            st.uuids().map(lambda u: f"inst-{u.hex[:8]}"),
            st.sampled_from(BITSTREAMS),
        ),
        max_size=3,
    ).map(tuple),
)

queries = st.builds(
    DeviceQuery,
    vendor=st.sampled_from(["", "Intel", "Xilinx"]),
    platform=st.just(""),
    accelerator=st.sampled_from(["", "sobel", "mm", "alexnet"]),
)

orders = st.permutations(METRICS).flatmap(
    lambda p: st.integers(min_value=1, max_value=len(p)).map(
        lambda k: tuple(p[:k])
    )
)

filter_sets = st.one_of(
    st.just(()),
    st.sampled_from([0.25, 0.5, 1.0]).map(
        lambda t: (MetricFilter("utilization", lambda value: value < t),)
    ),
)


def unique_by_name(views):
    seen = {}
    for view in views:
        seen[view.name] = view
    return list(seen.values())


def run_oracle(query, node_hint, views, order, filters):
    try:
        return allocate(query, node_hint, views, order, filters)
    except AllocationError:
        return None


def run_indexed(index, query, node_hint):
    try:
        return index.allocate(query, node_hint)
    except AllocationError:
        return None


def oracle_partitions(query, views):
    """Partitions holding a device the oracle's compatibility filter keeps:
    all an indexed query may open (its work, as a count)."""
    return len({
        (view.vendor, view.platform, tuple(view.available_bitstreams),
         view.bitstream)
        for view in filterby_compatibility(views, query)
    })


def decisions_equal(indexed, oracle):
    if indexed is None or oracle is None:
        return indexed is None and oracle is None
    return (
        indexed.device.name == oracle.device.name
        and indexed.node == oracle.node
        and indexed.needs_reconfiguration == oracle.needs_reconfiguration
        and indexed.redistribution == oracle.redistribution
    )


class TestEquivalenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        views=st.lists(device_views, max_size=12).map(unique_by_name),
        query=queries,
        node_hint=st.sampled_from(["", "B"]),
        order=orders,
        filters=filter_sets,
    )
    def test_matches_oracle(self, views, query, node_hint, order, filters):
        index = DeviceIndex(order, filters)
        for view in views:
            index.refresh(view)
        indexed = run_indexed(index, query, node_hint)
        oracle = run_oracle(query, node_hint, views, order, filters)
        assert decisions_equal(indexed, oracle), (
            f"divergence for {query} over {[v.name for v in views]}: "
            f"{indexed} != {oracle}"
        )
        assert index.partitions_visited == oracle_partitions(query, views)

    @settings(max_examples=100, deadline=None)
    @given(
        views=st.lists(device_views, min_size=2, max_size=8).map(
            unique_by_name
        ),
        updates=st.lists(
            st.tuples(st.integers(min_value=0), metric_values,
                      st.sampled_from([None, "sobel", "mm"])),
            max_size=5,
        ),
        query=queries,
        order=orders,
    )
    def test_matches_oracle_after_refreshes(self, views, updates, query,
                                            order):
        """Incremental refreshes (metric changes, reprogramming) must not
        let the index drift from what a fresh brute-force scan sees."""
        index = DeviceIndex(order, ())
        for view in views:
            index.refresh(view)
        for position, value, bitstream in updates:
            victim = views[position % len(views)]
            updated = DeviceView(
                name=victim.name, node=victim.node, vendor=victim.vendor,
                platform=victim.platform, bitstream=bitstream,
                available_bitstreams=victim.available_bitstreams,
                metrics={**victim.metrics, "utilization": value},
                workloads=victim.workloads,
            )
            views[position % len(views)] = updated
            index.refresh(updated)
        indexed = run_indexed(index, query, "")
        oracle = run_oracle(query, "", views, order, ())
        assert decisions_equal(indexed, oracle)
        assert index.partitions_visited == oracle_partitions(query, views)


class TestIndexMaintenance:
    def view(self, name, bitstream=None, metrics=None, workloads=()):
        return DeviceView(
            name=name, node="A", vendor=VENDOR, platform=PLATFORM,
            bitstream=bitstream, available_bitstreams=BITSTREAMS,
            metrics=metrics or {}, workloads=tuple(workloads),
        )

    def test_refresh_replaces_and_remove_forgets(self):
        index = DeviceIndex(("connected_functions",))
        index.refresh(self.view("dm-A", "sobel",
                                {"connected_functions": 2.0}))
        index.refresh(self.view("dm-A", "sobel",
                                {"connected_functions": 0.0}))
        assert list(index._entries) == ["dm-A"]
        decision = index.allocate(DeviceQuery(accelerator="sobel"), "")
        assert decision.device.metrics["connected_functions"] == 0.0
        index.remove("dm-A")
        assert "dm-A" not in index._entries
        with pytest.raises(AllocationError):
            index.allocate(DeviceQuery(accelerator="sobel"), "")

    def test_mismatch_tiebreak_is_per_partition(self):
        """Regression: the mismatch bit is query-dependent and partition
        constant; binding it lazily once applied the *last* partition's
        bit to every device and collapsed the order to name order."""
        index = DeviceIndex(("connected_functions",))
        # Same metrics, so only the mismatch bit decides; name order
        # would pick dm-a (wrong).
        index.refresh(self.view("dm-a", "sobel",
                                {"connected_functions": 1.0}))
        index.refresh(self.view("dm-b", "mm",
                                {"connected_functions": 1.0}))
        decision = index.allocate(DeviceQuery(accelerator="mm"), "")
        assert decision.device.name == "dm-b"
        assert not decision.needs_reconfiguration

    def test_redistribution_matches_oracle(self):
        """The conflicting-workload slow path materializes the same
        candidate list the oracle scans."""
        order = ("connected_functions",)
        views = [
            self.view("dm-a", "sobel", {"connected_functions": 0.0},
                      workloads=(("inst-1", "sobel"),)),
            self.view("dm-b", "mm", {"connected_functions": 1.0}),
            self.view("dm-c", None, {"connected_functions": 2.0}),
        ]
        index = DeviceIndex(order)
        for view in views:
            index.refresh(view)
        query = DeviceQuery(accelerator="mm")
        indexed = index.allocate(query, "")
        oracle = allocate(query, "", views, order, ())
        assert decisions_equal(indexed, oracle)
        assert indexed.redistribution == oracle.redistribution


class TestEndToEndEquivalence:
    def test_every_live_admission_matches_the_oracle(self, monkeypatch):
        """A real mixed-accelerator deployment: every admission's indexed
        decision equals the brute-force allocate over the same state."""
        from repro.core.registry import AcceleratorsRegistry
        from repro.experiments.config import LoadTiming
        from repro.experiments.scale import run_scale_cell

        indexed_allocate = AcceleratorsRegistry._allocate
        checked = []

        def compare(registry, query, node_hint):
            decision = indexed_allocate(registry, query, node_hint)
            oracle = allocate(query, node_hint, registry.device_views(),
                              registry.metrics_order,
                              registry.metrics_filters)
            assert decisions_equal(decision, oracle), (decision, oracle)
            checked.append(query.accelerator)
            return decision

        monkeypatch.setattr(AcceleratorsRegistry, "_allocate", compare)
        cell = run_scale_cell(3, timing=LoadTiming(0.25, 0.75))
        assert cell.allocations == cell.functions == 5
        assert sorted(set(checked)) == ["mm", "sobel"]
        assert len(checked) == cell.allocations
        assert cell.migrations == 0
        assert cell.requests > 0
