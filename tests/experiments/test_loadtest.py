"""Tests for the multi-function load-test harness (shortened windows)."""

import pytest

from repro.experiments import loadtest, run_scenario
from repro.experiments.config import LoadTiming
from repro.faults import NetworkFaultPlane
from repro.system import SystemConfig, build_system

FAST = LoadTiming(warmup=1.0, duration=5.0)


@pytest.fixture(scope="module")
def bf_low():
    return run_scenario("sobel", "low", timing=FAST)


@pytest.fixture(scope="module")
def native_low():
    return run_scenario("sobel", "low", timing=FAST,
                        config=SystemConfig(runtime="native"))


class TestBlastFunctionScenario:
    def test_deploys_five_functions(self, bf_low):
        assert len(bf_low.functions) == 5
        assert [f.function for f in bf_low.functions] == [
            f"sobel-{i}" for i in range(1, 6)
        ]

    def test_functions_spread_over_three_devices(self, bf_low):
        devices = [f.device for f in bf_low.functions]
        assert len(set(devices)) == 3

    def test_low_load_meets_targets(self, bf_low):
        for fn in bf_low.functions:
            assert fn.processed == pytest.approx(fn.target, rel=0.15)

    def test_latencies_in_paper_band(self, bf_low):
        for fn in bf_low.functions:
            assert 15e-3 < fn.latency < 45e-3

    def test_utilization_tracks_rate(self, bf_low):
        # Utilization ≈ rate × device-seconds/request; higher-rate functions
        # must show higher utilization.
        by_rate = sorted(bf_low.functions, key=lambda f: f.target)
        assert by_rate[0].utilization < by_rate[-1].utilization
        for fn in bf_low.functions:
            assert 0.0 < fn.utilization < 1.0

    def test_aggregates_consistent(self, bf_low):
        assert bf_low.total_processed == pytest.approx(
            sum(f.processed for f in bf_low.functions)
        )
        assert bf_low.total_target == 55.0


class TestNativeScenario:
    def test_deploys_three_pinned_functions(self, native_low):
        assert len(native_low.functions) == 3
        assert [f.node for f in native_low.functions] == ["A", "B", "C"]

    def test_low_load_meets_targets(self, native_low):
        for fn in native_low.functions:
            assert fn.processed == pytest.approx(fn.target, rel=0.15)

    def test_node_a_is_slowest(self, native_low):
        by_node = {f.node: f for f in native_low.functions}
        assert by_node["A"].latency > by_node["B"].latency
        assert by_node["A"].latency > by_node["C"].latency


class TestCrossScenario:
    def test_bf_supports_more_aggregate_load(self, bf_low, native_low):
        assert bf_low.total_target > native_low.total_target
        assert bf_low.total_processed > native_low.total_processed

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            run_scenario("sobel", "low", timing=FAST,
                         config=SystemConfig(runtime="gpu"))


def _events_and_latencies(monkeypatch, plane):
    """Scheduled events and raw latencies of a quick Table-II sobel/high
    scenario, with ``plane`` installed before any deployment."""
    envs = []

    def build(env, config):
        system = build_system(env, config)
        system.testbed.network.faults = plane
        envs.append(env)
        return system

    monkeypatch.setattr(loadtest, "build_system", build)
    result = run_scenario("sobel", "high",
                          timing=LoadTiming(warmup=2.0, duration=8.0))
    (env,) = envs
    return env._eid, [stats.latencies for stats in result.stats]


def test_an_inert_fault_plane_costs_nothing(monkeypatch):
    """A zero-rate plane is consulted on every message, yet the run
    schedules exactly the events of a run without one, and every latency
    is the same float: a faulted run takes the clean run's serving path."""
    plane = NetworkFaultPlane(seed=1)
    clean = _events_and_latencies(monkeypatch, None)
    inert = _events_and_latencies(monkeypatch, plane)
    assert inert == clean
    assert clean[0] > 20_000
    assert plane.counters["delivered"] > 10_000
