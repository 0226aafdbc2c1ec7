"""What one ``fleet-256`` build and load leaves in memory, and what the
cyclic collector costs while building it.

Run from the repository root::

    python benchmarks/fleet_footprint.py [--seed 1]

It builds and loads one cell of perfbench's ``fleet-256`` workload in this
interpreter and prints:

* the peak RSS after the build and load (``ru_maxrss``, as perfbench's
  ``peak_rss_mb`` reads it before its extra builds);
* the GC-tracked objects the build and load leave alive (the growth of
  ``gc.get_objects()`` across them, each count taken after
  ``gc.collect()``);
* the share of a first build's wall time, and of a second build made while
  the first system is still alive, spent in the cyclic collector (timed
  with ``gc.callbacks``);
* in a second, fresh interpreter with ``tracemalloc`` on, the MB still
  allocated after the build and load by each package under ``src/repro``
  (the line that allocated each block decides its package).

The numbers are a report, not a gate: the simulation is deterministic,
but RSS and wall time depend on the interpreter and the machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for path in (SRC, os.path.join(ROOT, "perfbench")):
    if path not in sys.path:
        sys.path.insert(0, path)

WORKLOAD = "fleet-256"


class CollectorClock:
    """Wall time spent inside the cyclic collector, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started
            self.collections += 1


def timed_build(workload, seed: int, clock: CollectorClock):
    """Build one cell; return it with its wall time and collector share."""
    from repro.sim import Environment

    gc_before, count_before = clock.seconds, clock.collections
    start = perf_counter()
    cell = workload.build(Environment(), seed, 0)
    wall = perf_counter() - start
    return cell, {
        "build_s": round(wall, 4),
        "gc_s": round(clock.seconds - gc_before, 4),
        "gc_share": round((clock.seconds - gc_before) / wall, 3),
        "collections": clock.collections - count_before,
    }


def measure(seed: int) -> dict:
    """Build and load one cell; RSS, tracked objects and collector shares."""
    from workloads import WORKLOADS

    workload = WORKLOADS[WORKLOAD]
    clock = CollectorClock()
    gc.collect()
    tracked_before = len(gc.get_objects())
    gc.callbacks.append(clock)
    try:
        cell, first = timed_build(workload, seed, clock)
        cell.load()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.collect()
        tracked = len(gc.get_objects()) - tracked_before
        _second_cell, second = timed_build(workload, seed, clock)
    finally:
        gc.callbacks.remove(clock)
    return {
        "workload": WORKLOAD,
        "seed": seed,
        "peak_rss_mb": round(peak_rss_mb, 2),
        "tracked_objects": tracked,
        "first_build": first,
        "second_build": second,
        "requests": cell.gateway.completed + cell.gateway.failed,
    }


def package_of(filename: str) -> str:
    """``metrics`` for ``src/repro/metrics/...``; ``(other)`` outside."""
    package_root = os.path.join(SRC, "repro") + os.sep
    if not filename.startswith(package_root):
        return "(other)"
    parts = filename[len(package_root):].split(os.sep)
    return parts[0] if len(parts) > 1 else parts[0].removesuffix(".py")


def measure_allocations(seed: int) -> dict:
    """MB allocated and still held after the build and load, per package."""
    import tracemalloc

    from repro.sim import Environment
    from workloads import WORKLOADS

    tracemalloc.start()
    cell = WORKLOADS[WORKLOAD].build(Environment(), seed, 0)
    cell.load()
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    by_package: dict = {}
    for stat in snapshot.statistics("filename"):
        package = package_of(stat.traceback[0].filename)
        by_package[package] = by_package.get(package, 0) + stat.size
    return {package: round(size / 2**20, 2) for package, size in
            sorted(by_package.items(), key=lambda item: -item[1])}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--allocations-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.allocations_only:
        print(json.dumps(measure_allocations(args.seed)))
        return
    report = measure(args.seed)
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
         "--allocations-only"],
        capture_output=True, text=True, check=True)
    report["tracemalloc_mb"] = json.loads(child.stdout)
    report["tracemalloc_mb_total"] = round(
        sum(report["tracemalloc_mb"].values()), 2)
    for key in ("peak_rss_mb", "tracked_objects"):
        print(f"{key:>22}: {report[key]}")
    for key in ("first_build", "second_build"):
        build = report[key]
        print(f"{key:>22}: {build['build_s']:.3f} s, "
              f"{build['gc_share']:.0%} in the collector "
              f"({build['collections']} collections)")
    print(f"{'tracemalloc MB':>22}: {report['tracemalloc_mb_total']}")
    for package, megabytes in report["tracemalloc_mb"].items():
        print(f"{package:>22}  {megabytes:6.2f}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
