"""Exact work counts of the benchmark workloads' load phases.

The DES events a load phase schedules, the requests it finishes, the
admissions it makes and the allocator-index partitions those admissions
open are deterministic for a seed, so these pins carry zero tolerance.
They replace wall-clock gates, which read fewer events for the same work
as a slowdown and drift with the machine.

Each workload is built from ``perfbench/workloads.py`` and runs in a fresh
interpreter, as the benchmark runs it, so nothing the test process
imported or patched first can reach the counts.  When a change moves a
count on purpose, the failure message shows the new counts to pin; pins
only ever move down.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Runs one workload's cells at seed 1 and prints its load-phase counts.
_MEASURE = """
import json, sys
from repro.sim import Environment
from workloads import WORKLOADS

workload = WORKLOADS[sys.argv[1]]
counts = dict(events=0, requests=0, allocations=0, partitions=0)
for index in range(workload.cells):
    env = Environment()
    cell = workload.build(env, 1, index)
    eid = env._eid
    cell.load()
    registry = cell.registry
    counts["events"] += env._eid - eid
    counts["requests"] += cell.gateway.completed + cell.gateway.failed
    counts["allocations"] += registry.allocations
    counts["partitions"] += registry.index.partitions_visited
print(json.dumps(counts))
"""

#: Seed 1.  ``allocations`` and ``partitions`` cover set-up and load.
PINNED = {
    "paper-sobel-high": dict(events=87179, requests=5286, allocations=5,
                             partitions=7),
    "fleet-256": dict(events=76119, requests=3396, allocations=427,
                      partitions=1106),
    "storm-live-durable": dict(events=70118, requests=3500,
                               allocations=21, partitions=39),
}


def load_phase_counts(workload):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    child = subprocess.run(
        [sys.executable, "-c", _MEASURE, workload], env=env,
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_load_phase_counts_are_pinned(workload):
    counts = load_phase_counts(workload)
    assert counts == PINNED[workload], f"{workload}, seed 1: {counts}"
