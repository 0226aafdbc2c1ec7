#!/usr/bin/env python
"""A multi-tenant Sobel edge-detection service (mini Table II).

Deploys five identical Sobel functions onto the paper's three-node
FPGA-as-a-Service testbed — the Accelerators Registry allocates each
instance to a Device Manager and forces co-location for shared memory —
then drives every endpoint with a closed-loop `hey`-style load generator
and reports per-function FPGA time utilization, latency and throughput.

Compare with a Native deployment, which fits only one function per board.

Run:  python examples/edge_detection_service.py
"""

from repro.experiments import run_scenario
from repro.experiments.config import LoadTiming
from repro.system import SystemConfig


def main():
    timing = LoadTiming(warmup=2.0, duration=10.0)

    print("=== BlastFunction: 5 Sobel functions sharing 3 FPGAs ===")
    bf = run_scenario("sobel", "medium", timing=timing)
    _report(bf)

    print()
    print("=== Native: 3 Sobel functions, one FPGA each ===")
    native = run_scenario("sobel", "medium", timing=timing,
                          config=SystemConfig(runtime="native"))
    _report(native)

    print()
    print(f"BlastFunction served {bf.total_processed:.1f} rq/s on the same "
          f"3 boards vs {native.total_processed:.1f} rq/s Native "
          f"({bf.total_utilization_pct:.1f}% vs "
          f"{native.total_utilization_pct:.1f}% aggregate utilization).")


def _report(result):
    print(f"{'function':<10} {'node':<5} {'util%':>7} {'latency':>9} "
          f"{'processed':>10} {'target':>7}")
    for fn in result.functions:
        print(f"{fn.function:<10} {fn.node:<5} {fn.utilization_pct:>6.2f} "
              f"{fn.latency * 1e3:>7.2f}ms {fn.processed:>7.2f}rq/s "
              f"{fn.target:>5.0f}rq/s")


if __name__ == "__main__":
    main()
