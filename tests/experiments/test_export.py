"""Tests for experiment result export and the CLI entry point."""

import json

import pytest

from repro.experiments.export import (
    scenario_to_record,
    scenarios_to_records,
    sweep_to_records,
    to_json,
    write_json,
)
from repro.experiments.fig4 import SweepPoint
from repro.experiments.loadtest import FunctionResult, ScenarioResult


def make_scenario():
    result = ScenarioResult("sobel", "low", "blastfunction")
    result.functions.append(FunctionResult(
        function="sobel-1", node="B", device="dm-B",
        utilization=0.21, latency=0.0203, processed=19.9, target=20.0,
    ))
    return result


class TestSweepExport:
    def test_records(self):
        points = [SweepPoint("1KB", 1024, "native", 0.0002)]
        records = sweep_to_records(points)
        assert records == [{
            "label": "1KB", "size_bytes": 1024,
            "system": "native", "rtt_seconds": 0.0002,
        }]


class TestScenarioExport:
    def test_record_shape(self):
        record = scenario_to_record(make_scenario())
        assert record["runtime"] == "blastfunction"
        assert record["functions"][0]["utilization_pct"] == pytest.approx(21.0)
        assert record["total_target_rps"] == 20.0

    def test_records_sorted_by_key(self):
        results = {
            ("native", "low"): make_scenario(),
            ("blastfunction", "low"): make_scenario(),
        }
        records = scenarios_to_records(results)
        assert len(records) == 2

    def test_json_serializable(self):
        record = scenario_to_record(make_scenario())
        parsed = json.loads(to_json(record))
        assert parsed["use_case"] == "sobel"

    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": [1, 2]}, str(path))
        assert json.loads(path.read_text()) == {"a": [1, 2]}


class TestCLI:
    def test_table1_runs_and_writes_json(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "t1.json"
        assert main(["table1", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert json.loads(path.read_text()) == {"table1": []}

    def test_only_full_runs_rewrite_the_bench_records(self, tmp_path,
                                                      monkeypatch, capsys):
        # BENCH_migration.json and BENCH_scale.json record full-length
        # runs; the documented quick re-pin command must not rewrite them.
        from repro.experiments import __main__ as cli
        from repro.experiments import scale

        monkeypatch.setattr(cli, "ROOT", tmp_path)
        monkeypatch.setattr(scale, "run_scale_sweep", lambda: [])
        monkeypatch.setenv("REPRO_QUICK", "1")
        assert cli.main(["migration"]) == 0
        assert cli.main(["scale"]) == 0
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setenv("REPRO_QUICK", "0")
        assert cli.main(["scale"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_scale.json"]

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table99"])

    def test_fig4_cli_writes_sweep_records(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.experiments import __main__ as cli

        fake_points = [SweepPoint("1KB", 1024, "native", 0.0002)]
        monkeypatch.setitem(
            cli.EXPERIMENTS, "fig4a",
            cli._fig(lambda: fake_points, "Fig. 4(a) (stub)"),
        )
        path = tmp_path / "fig.json"
        assert cli.main(["fig4a", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["fig4a"][0]["system"] == "native"
