"""The repository benchmark: host cost per simulated request, per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sobel-high --seed 1 \\
        --seconds 30 --trace 0

A run measures one workload.  It repeats *rounds* of the workload's fixed
simulated work, each round in a fresh interpreter (``measure.py``), for
about ``--seconds`` of host time, and at least twice: two rounds of one seed
must simulate identical bytes.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every metric and workload is described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Untraced rounds per run, at least: two rounds of one seed must agree.
MIN_ROUNDS = 2
#: A round that takes longer than this has hung.
ROUND_TIMEOUT_S = 150


def run_round(workload: str, seed: int, traced: bool) -> dict:
    """Run one round in a fresh interpreter and return its summary."""
    from measure import CHECK_FAILED_EXIT, CheckFailed

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), workload,
         str(seed), str(int(traced))],
        env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if child.returncode == CHECK_FAILED_EXIT:
        raise CheckFailed(child.stderr.strip())
    if child.returncode != 0:
        raise RuntimeError(f"round of {workload} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    import measure as m

    if workload not in m.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(m.WORKLOADS)}")
    started = perf_counter()
    rounds = [run_round(workload, seed, False)]
    if traced:
        rounds.append(run_round(workload, seed, True))
    # Start another round only if it should end within ``seconds``.
    while not traced and (
            len(rounds) < MIN_ROUNDS
            or (perf_counter() - started) * (len(rounds) + 1)
            / len(rounds) <= seconds):
        rounds.append(run_round(workload, seed, False))

    m.check(len({r["digest"] for r in rounds}) == 1,
            f"{workload}: rounds of seed {seed} simulated different outcomes"
            + (" with tracing on" if traced else ""))
    if traced:
        metrics, units = m.layer_metrics(rounds[0], rounds[1]), m.PER_LAYER
    else:
        metrics, units = m.end_to_end(rounds), m.END_TO_END
    return {
        "correct": True,
        "attempted": sum(r["sent"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    overrides = sorted(name for name in os.environ
                       if name.startswith("REPRO_"))
    if overrides:
        print(f"refusing to run with {', '.join(overrides)} set: the "
              "workloads fix every mode themselves", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    from measure import CheckFailed

    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except CheckFailed as failure:
        print(f"output check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
