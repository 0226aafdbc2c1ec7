"""Scale-sweep experiment: cell mechanics on a paper-sized cluster.

The sweep's big cells live in ``python -m repro.experiments scale``;
here a 3-board cell with a sub-second window checks that a
cell deploys the right workload, measures what it claims to measure, and
serializes a usable baseline.
"""

import json

import pytest

from repro.experiments.config import LoadTiming
from repro.experiments.scale import (
    FUNCTIONS_PER_BOARD,
    ScaleCell,
    _workload_plan,
    render_scale,
    run_scale_cell,
    write_bench_json,
)

TINY = LoadTiming(warmup=0.25, duration=0.75)


@pytest.fixture(scope="module")
def cell() -> ScaleCell:
    return run_scale_cell(3, timing=TINY)


class TestWorkloadPlan:
    def test_density_matches_the_paper(self):
        assert round(3 * FUNCTIONS_PER_BOARD) == 5

    def test_interleaves_use_cases_with_table1_rates(self):
        plan = _workload_plan(6)
        assert [use_case for _n, use_case, _r in plan] == [
            "sobel", "mm", "sobel", "mm", "sobel", "mm"
        ]
        assert [rate for _n, _u, rate in plan] == [
            20.0, 28.0, 15.0, 21.0, 10.0, 14.0
        ]
        assert len({name for name, _u, _r in plan}) == 6


class TestCell:
    def test_deploys_paper_density_and_serves_load(self, cell):
        assert cell.boards == 3
        assert cell.functions == 5
        assert cell.allocations == 5
        assert cell.requests > 0
        assert cell.migrations == 0  # interleaved deploys never displace

    def test_measures_all_planes(self, cell):
        assert cell.alloc_ms > 0
        assert cell.indexed_alloc_us > 0
        assert cell.oracle_alloc_us > 0
        assert cell.alloc_speedup == pytest.approx(
            cell.oracle_alloc_us / cell.indexed_alloc_us
        )
        assert cell.scrapes > 0
        assert cell.scrape_ms > 0
        assert cell.sim_events > 0
        assert cell.events_per_sec > 0
        assert 0 < cell.p50_ms <= cell.p99_ms

    def test_render_includes_every_cell(self, cell):
        text = render_scale([cell])
        assert "Scale sweep" in text
        assert "3" in text.splitlines()[3]


class TestBenchJson:
    def test_round_trips_cells_keyed_by_boards(self, cell, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        write_bench_json([cell], path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"python", "timing", "cells"}
        record = payload["cells"]["3"]
        assert record["boards"] == 3
        assert record["functions"] == 5
        assert record["indexed_alloc_us"] > 0
        assert record["events_per_sec"] > 0
