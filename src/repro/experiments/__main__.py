"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments fig4a
    python -m repro.experiments table2 --json table2.json
    REPRO_QUICK=1 python -m repro.experiments all
    REPRO_QUICK=1 python -m repro.experiments chaos --write-golden
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .config import quick_mode
from .export import scenarios_to_records, sweep_to_records, write_json
from .fig4 import run_mm_sweep, run_rw_sweep, run_sobel_sweep
from .report import render_bars, render_table
from .tables import (
    render_table2,
    render_table3,
    render_table4,
    run_table1,
    run_use_case,
)

#: The repository root; its BENCH_*.json record full-length runs only.
ROOT = Path(__file__).resolve().parents[3]

#: Experiments whose quick-mode digest tier-1 pins in
#: ``tests/experiments/data/golden_<name>.json``.
GOLDEN_EXPERIMENTS = ("chaos", "migration", "registry_chaos")


def _render_sweep(points, title: str) -> str:
    by_label: dict = {}
    for point in points:
        by_label.setdefault(point.label, {})[point.system] = point.rtt * 1e3
    rows = [
        [label,
         systems.get("native"),
         systems.get("blastfunction"),
         systems.get("blastfunction_shm")]
        for label, systems in by_label.items()
    ]
    table = render_table(
        ["Size", "Native ms", "BlastFunction ms", "BlastFunction shm ms"],
        rows, title=title,
    )
    groups = [
        (label, [("native", systems.get("native")),
                 ("grpc", systems.get("blastfunction")),
                 ("shm", systems.get("blastfunction_shm"))])
        for label, systems in by_label.items()
    ]
    return table + "\n\n" + render_bars(groups)


def _fig(sweep, title):
    def runner():
        points = sweep()
        return _render_sweep(points, title), sweep_to_records(points)

    return runner


def _table(use_case, renderer):
    def runner():
        results = run_use_case(use_case)
        return renderer(results), scenarios_to_records(results)

    return runner


def _calibration():
    from .calibration import run_calibration

    return run_calibration()


def _digest_table(digest: dict, title: str, arms: bool = False) -> str:
    """A golden digest as a Metric/Value table (``arms``: one sub-digest
    per arm, whose metrics are prefixed with the arm's name)."""
    cells = digest.items() if arms else [("", digest)]
    rows = [
        [f"{arm}.{key}" if arm else key, json.dumps(value)]
        for arm, cell in cells for key, value in cell.items()
    ]
    return render_table(["Metric", "Value"], rows, title=title)


def _chaos():
    from .chaos import run_chaos

    digest = run_chaos().to_golden()
    return _digest_table(
        digest, "Chaos: Table-II load under 1% message loss + DM crash",
    ), [digest]


def _migration():
    from .migration import render_migration, run_migration, write_bench_json

    result = run_migration()
    if not quick_mode():
        write_bench_json(result, ROOT / "BENCH_migration.json")
    digest = result.to_golden()
    return render_migration(result) + "\n\n" + _digest_table(
        digest, "Migration digest", arms=True), [digest]


def _registry_chaos():
    from .registry_chaos import render_registry_chaos, run_registry_chaos

    result = run_registry_chaos()
    digest = result.to_golden()
    return render_registry_chaos(result) + "\n\n" + _digest_table(
        digest, "Registry-chaos digest", arms=True), [digest]


def _scale():
    from .scale import render_scale, run_scale_sweep, write_bench_json

    cells = run_scale_sweep()
    if not quick_mode():
        write_bench_json(cells, ROOT / "BENCH_scale.json")
    return render_scale(cells), [cell.to_record() for cell in cells]


EXPERIMENTS = {
    "calibration": _calibration,
    "chaos": _chaos,
    "fig4a": _fig(run_rw_sweep,
                  "Fig. 4(a): R/W round-trip time vs total transfer size"),
    "fig4b": _fig(run_sobel_sweep,
                  "Fig. 4(b): Sobel operator round-trip time vs image size"),
    "fig4c": _fig(run_mm_sweep,
                  "Fig. 4(c): MM kernel round-trip time vs matrix size"),
    "migration": _migration,
    "registry_chaos": _registry_chaos,
    "table1": lambda: (run_table1(), []),
    "table2": _table("sobel", render_table2),
    "table3": _table("mm", render_table3),
    "table4": _table("alexnet", render_table4),
    "scale": _scale,
}

#: Heavyweight sweeps that must be asked for by name ("all" reproduces
#: the paper's figures/tables; the scale sweep grows far past them).
EXCLUDED_FROM_ALL = frozenset({"scale"})


def _run_cell(name: str):
    """Run one experiment cell (top level so worker processes can map it).

    Only the *name* crosses the process boundary; the worker re-resolves
    the runner in its own interpreter, so closures never get pickled.
    """
    text, records = EXPERIMENTS[name]()
    return name, text, records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the BlastFunction paper's tables/figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs every paper experiment; "
             "the scale sweep only runs when asked for by name)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable results to PATH",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent experiment cells in N worker processes "
             "(each cell is seed-deterministic, so results are identical "
             "to --jobs 1; output order is too)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="rewrite the experiment's golden digest under "
             "tests/experiments/data (quick mode only; "
             f"one of {', '.join(GOLDEN_EXPERIMENTS)})",
    )
    args = parser.parse_args(argv)
    if args.write_golden and (args.experiment not in GOLDEN_EXPERIMENTS
                              or not quick_mode()):
        parser.error("--write-golden needs REPRO_QUICK=1 and one of "
                     + ", ".join(GOLDEN_EXPERIMENTS))

    if args.experiment == "all":
        names = [n for n in sorted(EXPERIMENTS) if n not in EXCLUDED_FROM_ALL]
    else:
        names = [args.experiment]
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    if args.jobs > 1 and len(names) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(args.jobs, len(names))) as pool:
            outputs = pool.map(_run_cell, names)
    else:
        outputs = [_run_cell(name) for name in names]

    all_records: dict = {}
    for name, text, records in outputs:
        print(text)
        print()
        all_records[name] = records
    if args.json:
        write_json(all_records, args.json)
        print(f"JSON results written to {args.json}")
    if args.write_golden:
        (digest,) = all_records[args.experiment]
        path = (ROOT / "tests" / "experiments" / "data"
                / f"golden_{args.experiment}.json")
        path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
        print(f"golden rewritten: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
