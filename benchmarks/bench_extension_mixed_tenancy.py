"""Extension bench: heterogeneous multi-accelerator tenancy.

The paper's load tests run one accelerator type at a time.  A real
FPGA-as-a-Service fleet hosts a mix — here Sobel, MM and AlexNet functions
arrive together on the 3-board cluster.  Algorithm 1 must partition the
boards by accelerator (one bitstream each), and every tenant must meet its
(feasible) target despite the cluster-wide heterogeneity.

Native cannot run this mix at all with fewer boards than accelerator
types + replicas; that structural advantage of the shared system is the
point of this extension.
"""

import pytest

from repro.experiments.config import LoadTiming
from repro.cluster import DeviceQuery
from repro.serverless import AlexNetApp, FunctionSpec, MMApp, SobelApp
from repro.sim import Environment
from repro.system import Load, build_system

TIMING = LoadTiming(warmup=3.0, duration=12.0)

#: (function, app factory, accelerator, target rq/s)
WORKLOAD = [
    ("sobel-1", lambda: SobelApp(), "sobel", 25.0),
    ("mm-1", lambda: MMApp(), "mm", 40.0),
    ("alexnet-1", lambda: AlexNetApp(), "pipecnn_alexnet", 5.0),
    ("sobel-2", lambda: SobelApp(), "sobel", 10.0),
    ("mm-2", lambda: MMApp(), "mm", 20.0),
]


def _run():
    env = Environment()
    system = build_system(env)
    system.deploy([
        FunctionSpec(name=name, app_factory=factory,
                     device_query=DeviceQuery(accelerator=accelerator))
        for name, factory, accelerator, _rate in WORKLOAD
    ], order="sequential")
    stats = system.drive([
        Load(name, rate, warmup=TIMING.warmup, duration=TIMING.duration)
        for name, _f, _a, rate in WORKLOAD
    ])
    registry = system.registry
    bitstreams = sorted(
        record.configured_bitstream
        for record in registry.devices.all()
    )
    return stats, bitstreams, registry.migrations


def test_extension_mixed_tenancy(benchmark):
    stats, bitstreams, migrations = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )

    # Algorithm 1 partitioned the three boards across the three
    # accelerator types.
    assert bitstreams == ["mm", "pipecnn_alexnet", "sobel"]

    # Every tenant meets its target within 15% (the mix is feasible).
    by_name = {s.function: s for s in stats}
    for name, _f, _a, rate in WORKLOAD:
        assert by_name[name].achieved_rate == pytest.approx(
            rate, rel=0.15
        ), f"{name} missed its target"

    # Same-accelerator tenants were co-located onto the same board
    # (5 functions, 3 boards, zero migrations needed in this order).
    assert migrations == 0

    benchmark.extra_info["total_processed"] = round(
        sum(s.achieved_rate for s in stats), 1
    )
    benchmark.extra_info["alexnet_latency_ms"] = round(
        by_name["alexnet-1"].mean_latency * 1e3, 1
    )
