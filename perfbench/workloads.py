"""The benchmark's three workloads, built from the layers' public constructors.

A workload is a list of *cells*; a cell is one independent simulated system
(its own :class:`~repro.sim.Environment`).  Building a cell is the set-up
phase; :meth:`Cell.load` is the load phase: a closed-loop ``hey``-style load,
one connection per function, as in Section IV-B of the paper.

The seed renames the functions, which sets each load generator's phase and
send jitter; on the two fleets it also permutes the deploy order.  The same
seed builds the same system and simulates the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import DeviceQuery, build_testbed
from repro.core.registry import AcceleratorsRegistry
from repro.core.remote_lib import ManagerAddress, PlatformRouter
from repro.faults import GatewayPolicy, HealthPolicy
from repro.fpga.bitstream import extended_library
from repro.fpga.hwspec import GiB, HOST_I7_6700, PCIE_GEN3_X8, NodeSpec
from repro.live import LiveMigrator, controller_connection_resolver
from repro.loadgen import LoadStats, run_load
from repro.metrics import Scraper
from repro.serverless import (
    FIRApp,
    FunctionController,
    FunctionSpec,
    Gateway,
    HistogramApp,
    InvocationError,
    MMApp,
    SobelApp,
)
from repro.sim import AllOf, Environment, TimerWheel

#: Table I of the paper: requests per second sent to each function.
SOBEL_HIGH = (60.0, 50.0, 35.0, 30.0, 15.0)
SOBEL_LOW = (20.0, 15.0, 10.0, 5.0, 5.0)
MM_LOW = (28.0, 21.0, 14.0, 7.0, 7.0)

#: Full-HD frames and 448x448 matrices, the paper's load-test inputs.
SOBEL_FACTORY = partial(SobelApp, width=1920, height=1080)
MM_FACTORY = partial(MMApp, n=448)


class CountingGateway(Gateway):
    """The gateway, counting every request the load generators issue.

    :class:`~repro.loadgen.LoadStats` only counts the measurement window;
    these counters cover the whole load phase, warm-up included, so they
    share one interval with the event count and the host wall time.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = 0
        self.completed = 0
        self.failed = 0

    def invoke(self, function_name, payload=None):
        self.sent += 1
        try:
            result = yield from super().invoke(function_name, payload)
        except InvocationError:
            self.failed += 1
            raise
        self.completed += 1
        return result


@dataclass
class LoadPlan:
    """One function's load: ``rate`` rq/s from ``start`` (simulated s after
    the load phase begins) for ``warmup + duration`` seconds."""

    function: str
    rate: float
    warmup: float
    duration: float
    start: float = 0.0


@dataclass
class Cell:
    """One built system, ready for its load phase."""

    env: Environment
    gateway: CountingGateway
    registry: AcceleratorsRegistry
    router: PlatformRouter
    controller: FunctionController
    managers: Dict[str, object]
    scraper: Scraper
    loads: List[LoadPlan]
    #: Starts further processes of the load phase (the storm deployments).
    extra: Optional[Callable[[], list]] = None
    migrator: Optional[LiveMigrator] = None
    #: Simulated seconds to run after the load generators finish, so every
    #: in-flight task, deferred build and migration settles.
    settle: float = 0.0
    stats: List[LoadStats] = field(default_factory=list)

    def load(self) -> None:
        """Run the load phase until every load generator has finished."""
        env = self.env
        begin = env.now

        def delayed(plan: LoadPlan):
            if plan.start:
                yield env.timeout(begin + plan.start - env.now)
            return (yield from run_load(
                env, self.gateway, plan.function, rate=plan.rate,
                duration=plan.duration, warmup=plan.warmup, connections=1,
            ))

        procs = [env.process(delayed(plan)) for plan in self.loads]
        extra = self.extra() if self.extra else []

        def main():
            results = yield AllOf(env, procs + extra)
            return [results[p] for p in procs]

        self.stats = env.run(until=env.process(main()))

    def quiesce(self) -> None:
        """Let in-flight work settle after the load phase."""
        if self.settle:
            self.env.run(until=self.env.now + self.settle)


def _names(rng: random.Random, prefixes: List[str]) -> List[str]:
    """Seeded function names: the name hash sets the load generator's
    phase and jitter (``loadgen/hey.py``)."""
    tag = f"{rng.getrandbits(32):08x}"
    return [f"{prefix}-{tag}-{index}" for index, prefix in enumerate(prefixes)]


def _fleet_nodes(boards: int) -> List[NodeSpec]:
    return [
        NodeSpec(name=f"n{index:04d}", host=HOST_I7_6700, pcie=PCIE_GEN3_X8,
                 memory_bytes=32 * GiB, is_master=(index == 0))
        for index in range(boards)
    ]


def _spec(name: str, factory, accelerator: str) -> FunctionSpec:
    return FunctionSpec(
        name=name, app_factory=factory,
        device_query=DeviceQuery(vendor="Intel", accelerator=accelerator),
        runtime="blastfunction",
    )


def _control_plane(env, testbed, scraper, gateway, registry_kwargs):
    registry = AcceleratorsRegistry(
        env, testbed.cluster, list(testbed.managers.values()),
        scraper=scraper, **registry_kwargs,
    )
    router = PlatformRouter(env, testbed.network, testbed.library)
    router.add_managers(
        [ManagerAddress.of(m) for m in testbed.managers.values()])
    controller = FunctionController(env, testbed.cluster, gateway, router)
    registry.migrator = controller.migrate
    return registry, router, controller


def _deploy_sequential(env, gateway, controller, specs):
    def deploy():
        for spec in specs:
            yield from gateway.deploy(spec)
            yield from controller.wait_ready(spec.name)

    env.run(until=env.process(deploy()))


# -- paper-sobel-high --------------------------------------------------------

def paper_sobel_high(env: Environment, seed: int, index: int) -> Cell:
    """The paper's 3-board testbed, 5 Sobel functions at Table I "high"."""
    rng = random.Random(f"paper-sobel-high/{seed}/{index}")
    names = _names(rng, ["sobel"] * len(SOBEL_HIGH))
    testbed = build_testbed(env, scrape_interval=1.0)
    gateway = CountingGateway(env, testbed.cluster)
    registry, router, controller = _control_plane(
        env, testbed, testbed.scraper, gateway,
        dict(use_shm=True, allocator="indexed", migration="restart",
             durability="volatile"),
    )
    _deploy_sequential(env, gateway, controller,
                       [_spec(name, SOBEL_FACTORY, "sobel") for name in names])
    loads = [LoadPlan(name, rate, warmup=5.0, duration=30.0)
             for name, rate in zip(names, SOBEL_HIGH)]
    return Cell(env, gateway, registry, router, controller,
                dict(testbed.managers), testbed.scraper, loads)


# -- fleet-256 ---------------------------------------------------------------

FLEET_BOARDS = 256
#: The paper's density: 5 functions per 3 boards.
FLEET_FUNCTIONS = round(FLEET_BOARDS * 5 / 3)
#: Every generator has sent by 0.2 s (its phase is below 1/rate); a 0.4 s
#: window still leaves over ten samples beyond the p99.
FLEET_WARMUP = 0.2
FLEET_DURATION = 0.4


def fleet_256(env: Environment, seed: int, index: int) -> Cell:
    """256 boards, 427 Sobel and MM functions at Table I "low" rates."""
    rng = random.Random(f"fleet-256/{seed}/{index}")
    kinds = ["sobel" if i % 2 == 0 else "mm" for i in range(FLEET_FUNCTIONS)]
    names = _names(rng, kinds)
    testbed = build_testbed(env, node_specs=_fleet_nodes(FLEET_BOARDS),
                            with_scraper=False)
    # One timer wheel carries the 1 s scraper and the coalesced 0.5 s
    # heartbeat/lease protocol; samples live in a 60 s ring buffer.
    wheel = TimerWheel(env, tick=0.5)
    scraper = Scraper(env, interval=1.0, retention=60.0, wheel=wheel)
    for manager in testbed.managers.values():
        scraper.add_target(manager.name, manager.metrics,
                           node=manager.node.name, device=manager.board.name)
    gateway = CountingGateway(env, testbed.cluster)
    registry, router, controller = _control_plane(
        env, testbed, scraper, gateway,
        dict(use_shm=True, allocator="indexed", migration="restart",
             durability="volatile"),
    )
    registry.enable_health(
        network=testbed.network,
        policy=HealthPolicy(heartbeat_interval=0.5, lease_timeout=2.0,
                            coalesce=True),
        wheel=wheel,
    )
    rates: List[float] = []
    seen = {"sobel": 0, "mm": 0}
    for kind in kinds:
        table = SOBEL_LOW if kind == "sobel" else MM_LOW
        rates.append(table[seen[kind] % len(table)])
        seen[kind] += 1
    order = list(range(len(names)))
    rng.shuffle(order)
    specs = [
        _spec(names[i], SOBEL_FACTORY if kinds[i] == "sobel" else MM_FACTORY,
              kinds[i])
        for i in order
    ]

    deploys = [env.process(gateway.deploy(spec)) for spec in specs]

    def wait_all():
        yield AllOf(env, deploys)
        for spec in specs:
            yield from controller.wait_ready(spec.name)

    env.run(until=env.process(wait_all()))
    loads = [LoadPlan(name, rate, warmup=FLEET_WARMUP,
                      duration=FLEET_DURATION)
             for name, rate in zip(names, rates)]
    return Cell(env, gateway, registry, router, controller,
                dict(testbed.managers), scraper, loads)


# -- storm-live-durable ------------------------------------------------------

STORM_BOARDS = 4
STORM_TENANT_RATE = 20.0
STORM_RATE = 5.0
STORM_WARMUP = 2.0
STORM_DURATION = 24.0
#: Storm load starts past the last wave's reprogramming.
STORM_LOAD_OFFSET = 7.5
#: (prefix, accelerator, app, deploy offset after the window opens).
STORM_WAVES: Tuple[Tuple[str, str, type, float], ...] = (
    ("mm-storm", "mm", MMApp, 1.0),
    ("fir-storm", "fir", FIRApp, 2.5),
    ("hist-storm", "histogram", HistogramApp, 4.0),
)


def storm_live_durable(env: Environment, seed: int, index: int) -> Cell:
    """4 Sobel tenants plus three storm waves that each force a reprogram
    and a live migration, on a durable (WAL + snapshot) Registry."""
    rng = random.Random(f"storm-live-durable/{seed}/{index}")
    tenants = _names(rng, ["sobel"] * STORM_BOARDS)
    waves = _names(rng, [wave[0] for wave in STORM_WAVES])
    testbed = build_testbed(env, node_specs=_fleet_nodes(STORM_BOARDS),
                            library=extended_library(), scrape_interval=1.0)
    gateway = CountingGateway(env, testbed.cluster, policy=GatewayPolicy(
        retry_budget=0, breaker_threshold=10 ** 9,
        shed_when_unavailable=False, request_timeout=2.0,
    ))
    registry, router, controller = _control_plane(
        env, testbed, testbed.scraper, gateway,
        dict(use_shm=True, allocator="indexed", migration="live",
             durability="durable"),
    )
    migrator = LiveMigrator(env, registry, dict(testbed.managers),
                            controller_connection_resolver(controller),
                            network=testbed.network)
    registry.live_migrator = migrator
    order = list(range(len(tenants)))
    rng.shuffle(order)
    _deploy_sequential(env, gateway, controller,
                       [_spec(tenants[i], SOBEL_FACTORY, "sobel")
                        for i in order])

    loads = [LoadPlan(name, STORM_TENANT_RATE, warmup=STORM_WARMUP,
                      duration=STORM_DURATION) for name in tenants]
    storm_start = STORM_WARMUP + STORM_LOAD_OFFSET
    loads += [LoadPlan(name, STORM_RATE, warmup=0.0,
                       duration=STORM_WARMUP + STORM_DURATION - storm_start,
                       start=storm_start) for name in waves]

    def deployer():
        begin = env.now

        def deploy():
            for name, (_prefix, accelerator, app, offset) in zip(
                    waves, STORM_WAVES):
                yield env.timeout(begin + STORM_WARMUP + offset - env.now)
                yield from gateway.deploy(_spec(name, app, accelerator))

        return [env.process(deploy())]

    return Cell(env, gateway, registry, router, controller,
                dict(testbed.managers), testbed.scraper, loads,
                extra=deployer, migrator=migrator, settle=3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[Environment, int, int], Cell]
    #: Independent cells per round: enough simulated requests that the
    #: p99 has at least ten samples beyond it.
    cells: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("paper-sobel-high", paper_sobel_high, 1),
        Workload("fleet-256", fleet_256, 1),
        Workload("storm-live-durable", storm_live_durable, 3),
    )
}
