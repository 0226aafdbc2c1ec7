"""One way to build a system under test.

In the paper BlastFunction is one deployment: a Device Manager on every
board, the Remote OpenCL Library in every function, and the Accelerators
Registry behind one OpenFaaS/Kubernetes gateway.  :func:`build_system`
builds that deployment from a :class:`SystemConfig` in one fixed order —
testbed, gateway, Registry, router, controller — and wires everything the
configuration asks for on top.  :class:`System` then owns the one
deploy-then-drive loop every experiment runs (docs/extending.md shows
it end to end).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .cluster import DeviceQuery, Testbed, build_testbed
from .core.registry import AcceleratorsRegistry, StandbyPolicy, WarmStandby
from .core.remote_lib import ManagerAddress, PlatformRouter
from .faults import GatewayPolicy, HealthPolicy, RetryPolicy
from .fpga.bitstream import extended_library
from .fpga.hwspec import fleet_nodes
from .live import LiveMigrator, controller_connection_resolver
from .loadgen import LoadStats, run_load
from .metrics import Scraper
from .serverless import FunctionController, FunctionSpec, Gateway
from .sim import AllOf, Environment, TimerWheel, run_guarded

#: Seconds between Registry snapshots when the Registry is durable.  In the
#: registry-chaos run the last pre-crash snapshot then predates the storm,
#: so the storm's admissions are recovered from the WAL.
SNAPSHOT_INTERVAL = 3.0

#: Replication and takeover timing of the warm standby.
STANDBY_POLICY = StandbyPolicy(sync_interval=0.2, lease_timeout=0.6)


@dataclass(frozen=True)
class SystemConfig:
    """What differs between the systems the experiments build.

    A field exists only where two callers need different values; every
    other choice is fixed by :func:`build_system`.
    """

    #: "blastfunction" (Registry + Remote OpenCL Library) or "native"
    #: (functions drive their node's board through the vendor runtime).
    runtime: str = "blastfunction"
    #: ``None``: the paper's three-node testbed; N: N identical nodes.
    boards: Optional[int] = None
    #: Boards compute real results (examples) instead of timing only.
    functional: bool = False
    #: Device Managers batch queued operations into one task.
    batching: bool = True
    #: Allocated pods mount the shared-memory volume.
    use_shm: bool = True
    #: Algorithm 1's metric priority.
    metrics_order: Tuple[str, ...] = ("connected_functions", "utilization")
    #: How displaced instances move: "restart" (create-before-delete) or
    #: "live" (checkpoint/restore through a :class:`LiveMigrator`).
    migration: str = "restart"
    #: "volatile", "durable" (WAL + snapshots) or "replicated" (durable
    #: plus a :class:`WarmStandby`).
    durability: str = "volatile"
    #: Gateway retry budget, circuit breaker and shedding; ``None`` keeps
    #: the seed fast path.
    gateway: Optional[GatewayPolicy] = None
    #: Remote OpenCL Library deadlines and retries; also bounds how long a
    #: Device Manager waits for a write payload.
    retry: Optional[RetryPolicy] = None
    #: Heartbeat/lease failure detection.  A coalescing policy runs in
    #: fleet mode: one timer wheel carries the heartbeats and the scraper.
    health: Optional[HealthPolicy] = None


@dataclass(frozen=True)
class Load:
    """One closed-loop, single-connection load generator."""

    function: str
    rate: float
    warmup: float = 0.0
    duration: float = 0.0
    #: Absolute start time; ``None`` starts the generator at once.
    start: Optional[float] = None
    #: Absolute end of the window; when set, it replaces ``duration``.
    until: Optional[float] = None


@dataclass
class System:
    """A built system under test and the loop that drives it."""

    env: Environment
    config: SystemConfig
    testbed: Testbed
    gateway: Gateway
    controller: FunctionController
    registry: Optional[AcceleratorsRegistry] = None
    router: Optional[PlatformRouter] = None
    live_migrator: Optional[LiveMigrator] = None
    standby: Optional[WarmStandby] = None

    @property
    def hung_events(self) -> int:
        """Client CL-event state machines still unresolved."""
        if self.router is None:
            return 0
        return sum(len(c._machines) for c in self.router.connections)

    def function_spec(self, name: str, app_factory: Callable[[], object],
                      accelerator: str, node_name: str = "") -> FunctionSpec:
        """A one-replica function of this system's runtime."""
        return FunctionSpec(
            name=name, app_factory=app_factory,
            device_query=DeviceQuery(vendor="Intel", accelerator=accelerator),
            runtime=self.config.runtime, node_name=node_name,
        )

    def deploy(self, specs: Sequence[FunctionSpec],
               order: str = "batch") -> None:
        """Deploy ``specs`` and run until every function is ready.

        ``"batch"`` deploys them one after another, then waits for all;
        ``"sequential"`` also waits for each before the next, so every
        admission sees the previous placement; ``"concurrent"`` starts
        every deployment at once.
        """
        env, gateway = self.env, self.gateway

        def deploy_all():
            if order == "concurrent":
                yield AllOf(env, [env.process(gateway.deploy(spec))
                                  for spec in specs])
            else:
                for spec in specs:
                    yield from gateway.deploy(spec)
                    if order == "sequential":
                        yield from self.controller.wait_ready(spec.name)
            for spec in specs:
                yield from self.controller.wait_ready(spec.name)

        env.run(until=env.process(deploy_all()))

    def drive(self, loads: Sequence[Load], extra: Iterable = (),
              deadline: Optional[float] = None, settle: float = 0.0,
              what: str = "load") -> List[LoadStats]:
        """Run ``loads`` and the ``extra`` process generators (started
        after them) to completion; return the loads' stats in order.

        With a ``deadline`` the run goes through :func:`run_guarded`, so a
        hang fails fast and names what is stuck.  ``settle`` more simulated
        seconds then let in-flight retries, builds and migrations resolve.
        """
        env = self.env
        procs = [env.process(self._load(load)) for load in loads]
        joined = procs + [env.process(generator) for generator in extra]

        def main():
            results = yield AllOf(env, joined)
            return [results[p] for p in procs]

        if deadline is None:
            stats = env.run(until=env.process(main()))
        else:
            stats = run_guarded(env, until=env.process(main()),
                                deadline=deadline, what=what)
        if settle:
            env.run(until=env.now + settle)
        return stats

    def _load(self, load: Load):
        env = self.env
        if load.start is not None:
            yield env.timeout(load.start - env.now)
        duration = (load.duration if load.until is None
                    else load.until - env.now)
        return (yield from run_load(
            env, self.gateway, load.function, rate=load.rate,
            duration=duration, warmup=load.warmup, connections=1,
        ))

    def stop(self) -> None:
        """Stop the perpetual standby and health processes, then run one
        more simulated second so nothing is left unaccounted."""
        if self.standby is not None:
            self.standby.stop()
        if self.registry.health is not None:
            self.registry.health.stop()
        self.env.run(until=self.env.now + 1.0)


def build_system(env: Environment,
                 config: SystemConfig = SystemConfig()) -> System:
    """Build the deployment ``config`` describes, ready for deployments."""
    if config.runtime not in ("blastfunction", "native"):
        raise ValueError(f"unknown runtime {config.runtime!r}")
    fleet = config.health is not None and config.health.coalesce
    nodes = None if config.boards is None else fleet_nodes(config.boards)
    testbed = build_testbed(
        env,
        node_specs=nodes,
        library=extended_library(),
        functional=config.functional,
        batching=config.batching,
        with_scraper=not fleet,
    )
    wheel = None
    if fleet:
        # One timer wheel carries the scraper and the coalesced
        # heartbeat/lease protocol; samples live in a 60 s ring buffer.
        wheel = TimerWheel(env, tick=config.health.heartbeat_interval)
        testbed.scraper = Scraper(env, interval=1.0, retention=60.0,
                                  wheel=wheel)
    gateway = Gateway(env, testbed.cluster, policy=config.gateway)
    if config.runtime == "native":
        controller = FunctionController(env, testbed.cluster, gateway,
                                        router=None)
        return System(env, config, testbed, gateway, controller)

    registry = AcceleratorsRegistry(
        env, testbed.cluster, list(testbed.managers.values()),
        scraper=testbed.scraper,
        metrics_order=config.metrics_order,
        use_shm=config.use_shm,
        migration=config.migration,
        durability=config.durability,
        snapshot_interval=SNAPSHOT_INTERVAL,
    )
    router = PlatformRouter(env, testbed.network, testbed.library,
                            recovery=config.retry)
    router.add_managers(
        [ManagerAddress.of(m) for m in testbed.managers.values()]
    )
    controller = FunctionController(env, testbed.cluster, gateway, router)
    registry.migrator = controller.migrate
    system = System(env, config, testbed, gateway, controller,
                    registry, router)
    if config.health is not None:
        registry.enable_health(network=testbed.network,
                               policy=config.health, wheel=wheel)
    if config.migration == "live":
        system.live_migrator = LiveMigrator(
            env, registry, dict(testbed.managers),
            controller_connection_resolver(controller),
            network=testbed.network,
        )
        registry.live_migrator = system.live_migrator
    if config.durability == "replicated":
        system.standby = WarmStandby(env, registry, testbed.network,
                                     dict(testbed.managers), STANDBY_POLICY)
    return system
