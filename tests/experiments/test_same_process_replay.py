"""The same seed gives the same run, however many ran before it.

Every id a simulation hands out (messages, requests, pods, tasks, OpenCL
objects) comes from its own ``Environment``, so running an experiment a
second time in one process reproduces the first run exactly: not merely
its rounded golden digest, but every raw latency and every float.
``repr`` of the result objects compares them unrounded (and treats two
NaNs as equal).
"""

import pytest

from repro.experiments.chaos import run_chaos
from repro.experiments.loadtest import run_scenario
from repro.experiments.migration import MigrationSpec, run_migration_mode
from repro.experiments.registry_chaos import run_registry_chaos

#: Run in this order.  Live migration goes first: with ids drawn from one
#: process-wide counter, its second run serialised wider ids into the
#: checkpoints than its first, and 4 latencies moved by ~43 ns.
RUNS = {
    "migration-live": lambda: run_migration_mode("live", MigrationSpec()),
    "migration-restart": lambda: run_migration_mode("restart",
                                                    MigrationSpec()),
    "chaos": run_chaos,
    "registry-chaos": run_registry_chaos,
    "table2-sobel-high": lambda: run_scenario("sobel", "high"),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_second_run_in_one_process_is_identical(name, monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")
    first = repr(RUNS[name]())
    second = repr(RUNS[name]())
    assert first == second
