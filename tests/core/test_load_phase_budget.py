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

The same interpreter also reports whether numpy was loaded.  Timing-only
boards carry sizes and no bytes, so building and loading a workload must
never import it; a static check keeps every numpy import under
``src/repro`` inside the functions that compute bytes.  It counts, too,
the GC-tracked objects the build and load leave alive, which are capped:
the cyclic collector walks each of them in every full collection of a
later build.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Runs one workload's cells at seed 1 and prints its load-phase counts.
_MEASURE = """
import gc, json, sys
from repro.sim import Environment
from workloads import WORKLOADS

workload = WORKLOADS[sys.argv[1]]
counts = dict(events=0, requests=0, allocations=0, partitions=0)
gc.collect()
tracked = len(gc.get_objects())
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
counts["numpy"] = "numpy" in sys.modules
gc.collect()
counts["tracked"] = len(gc.get_objects()) - tracked
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


#: Upper bounds on the GC-tracked objects a workload's build and load leave
#: alive (its last cell's system), counted after ``gc.collect()`` at seed 1.
#: Bounds only ever move down.
TRACKED_OBJECTS = {
    "paper-sobel-high": 1045,
    "fleet-256": 79032,
    "storm-live-durable": 1680,
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
    assert counts.pop("numpy") is False, (
        f"{workload}: a timing-only build and load imported numpy")
    tracked = counts.pop("tracked")
    assert tracked <= TRACKED_OBJECTS[workload], (
        f"{workload}, seed 1: {tracked} GC-tracked objects left")
    assert counts == PINNED[workload], f"{workload}, seed 1: {counts}"


def _module_level_numpy_imports(tree, where):
    """``where:line`` of each numpy import that runs when ``tree`` loads.

    Function bodies run later and ``if TYPE_CHECKING:`` blocks never run;
    every other statement nested in the module body runs at import.
    """
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(f"{where}:{node.lineno}")
    return found


def test_no_module_imports_numpy_at_module_level():
    package = Path(ROOT) / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found.extend(_module_level_numpy_imports(
            tree, path.relative_to(ROOT)))
    assert found == []
