"""Shared multi-function load-test harness for Tables II, III and IV.

Reproduces Section IV-B's method: deploy 5 identical functions under
BlastFunction (3 under Native — one per board, pinned like the paper's
testbed), drive each endpoint with a closed-loop single-connection load
generator at the Table I target rate, and report per-function FPGA time
utilization, mean latency and processed-vs-target throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..loadgen import LoadStats
from ..serverless import AlexNetApp, MMApp, SobelApp
from ..sim import Environment
from ..system import Load, SystemConfig, build_system
from .config import (
    MM_N,
    SOBEL_HEIGHT,
    SOBEL_WIDTH,
    LoadTiming,
    load_timing,
    rates_for,
)

#: Node pinning for the Native scenario (one function per board, function 1
#: on the master node A, as in Table II).
NATIVE_NODES = ["A", "B", "C"]

APP_FACTORIES = {
    "sobel": lambda: SobelApp(width=SOBEL_WIDTH, height=SOBEL_HEIGHT),
    "mm": lambda: MMApp(n=MM_N),
    "alexnet": lambda: AlexNetApp(),
}

ACCELERATORS = {
    "sobel": "sobel",
    "mm": "mm",
    "alexnet": "pipecnn_alexnet",
}


@dataclass
class FunctionResult:
    """One row of a Table II-style report."""

    function: str
    node: str
    device: str
    utilization: float      # fraction of the device's time (0..1+)
    latency: float          # mean seconds
    processed: float        # rq/s
    target: float           # rq/s

    @property
    def utilization_pct(self) -> float:
        return 100.0 * self.utilization


@dataclass
class ScenarioResult:
    """Outcome of one (use-case, configuration, runtime) load test."""

    use_case: str
    configuration: str
    runtime: str
    functions: List[FunctionResult] = field(default_factory=list)
    stats: List[LoadStats] = field(default_factory=list)
    #: Aggregate data-plane copy accounting over every client transport
    #: (the paper's 4-vs-1 claim); zero for the native runtime, which has
    #: no intermediary transports.
    copies: int = 0
    bytes_copied: int = 0

    @property
    def total_utilization_pct(self) -> float:
        """Aggregate utilization (maximum 300% on the 3-board testbed)."""
        return sum(f.utilization_pct for f in self.functions)

    @property
    def mean_latency(self) -> float:
        latencies = [l for s in self.stats for l in s.latencies]
        if not latencies:
            return float("nan")
        return sum(latencies) / len(latencies)

    @property
    def total_processed(self) -> float:
        return sum(f.processed for f in self.functions)

    @property
    def total_target(self) -> float:
        return sum(f.target for f in self.functions)


def run_scenario(
    use_case: str,
    configuration: str,
    timing: Optional[LoadTiming] = None,
    config: SystemConfig = SystemConfig(),
) -> ScenarioResult:
    """Run one load-test scenario end to end and return the report.

    Deploys one function per Table I rate of ``use_case`` at
    ``configuration`` (Native uses only the first three, one per board)
    on the system ``config`` describes.
    """
    timing = timing or load_timing()
    runtime = config.runtime
    rates = rates_for(use_case, configuration, runtime)
    env = Environment()
    system = build_system(env, config)
    testbed = system.testbed

    names = [f"{use_case}-{index}" for index in range(1, len(rates) + 1)]
    system.deploy([
        system.function_spec(
            name, APP_FACTORIES[use_case], ACCELERATORS[use_case],
            node_name=NATIVE_NODES[index] if runtime == "native" else "",
        )
        for index, name in enumerate(names)
    ])

    # Identify each function's device + metric identity.
    placements: Dict[str, tuple] = {}
    for name in names:
        pods = testbed.cluster.pods_of_function(name)
        assert len(pods) == 1, f"{name} has {len(pods)} pods"
        pod = pods[0]
        if runtime == "blastfunction":
            manager = testbed.managers[pod.spec.env["BF_MANAGER"]]
            placements[name] = (pod.node.name, manager, pod.name)
        else:
            placements[name] = (pod.node.name, None, pod.name)

    # Busy-time accounting over exactly the measurement window.
    busy_before: Dict[str, float] = {}

    def busy_of(name: str) -> float:
        node_name, manager, pod_name = placements[name]
        if manager is not None:
            counter = manager.metrics.get("client_busy_seconds_total")
            return counter.labels(pod_name).value
        board = testbed.cluster.node(node_name).board
        return board.busy_seconds

    def snapshot():
        yield env.timeout(timing.warmup)
        for name in names:
            busy_before[name] = busy_of(name)

    stats_list = system.drive(
        [Load(name, rate, warmup=timing.warmup, duration=timing.duration)
         for name, rate in zip(names, rates)],
        extra=[snapshot()],
    )

    result = ScenarioResult(use_case, configuration, runtime)
    for name, rate, stats in zip(names, rates, stats_list):
        node_name, manager, _pod = placements[name]
        device = manager.name if manager else f"fpga-{node_name}"
        utilization = (busy_of(name) - busy_before[name]) / timing.duration
        result.functions.append(FunctionResult(
            function=name,
            node=node_name,
            device=device,
            utilization=utilization,
            latency=stats.mean_latency,
            processed=stats.achieved_rate,
            target=rate,
        ))
        result.stats.append(stats)
    for manager in testbed.managers.values():
        for session in manager.sessions.values():
            result.copies += session.transport.stats.copies
            result.bytes_copied += session.transport.stats.bytes_copied
    return result
