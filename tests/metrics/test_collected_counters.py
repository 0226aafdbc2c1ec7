"""Collector-backed metrics against pushed ones.

Every Device Manager and Registry counter and gauge reads state its owner
already keeps when it is collected; only ``task_latency_seconds`` is
pushed.  These properties drive two managers (tasks from several
clients, ``BUILD_PROGRAM`` on one- and two-slot boards, a crash and
restart, a drain and resume, session capture and restore through
``live/checkpoint.py``) and, end to end, a system whose live migration
programs its target while the Registry crashes and restarts.  At random
instants each family's rows must equal those of a reference family
pushed at every change its owner's state goes through: row for row, with
bit-identical floats.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device_manager import (
    DeviceManager,
    Operation,
    OpType,
    Task,
    protocol,
)
from repro.faults import RegistryCrash
from repro.fpga import FPGABoard, standard_library
from repro.fpga.hwspec import DE5A_NET
from repro.live import CheckpointError, capture_session, restore_session
from repro.metrics import MetricError, MetricsRegistry
from repro.rpc import Network, RpcEndpoint, RpcError, ShmTransport, unary_call
from repro.serverless import SobelApp
from repro.sim import Environment
from repro.system import Load, SystemConfig, build_system

CLIENTS = ("c0", "c1", "c2")
#: Bytes of each client buffer: one 32x32 RGBA image.
BUFFER_BYTES = 32 * 32 * 4
#: How long a crashed manager stays down before it restarts.
DOWNTIME = 1e-3
ROOT = Path(__file__).resolve().parents[2]


class PushedSessions(dict):
    """A session table that pushes its size into a gauge at every change."""

    def __init__(self, gauge, sessions):
        super().__init__(sessions)
        self._gauge = gauge
        gauge.set(len(self))

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._gauge.set(len(self))

    def __delitem__(self, key):
        super().__delitem__(key)
        self._gauge.set(len(self))

    def clear(self):
        super().clear()
        self._gauge.set(len(self))


class PushedManager:
    """Reference families of one Device Manager, pushed at every change:
    by its listeners, and by wrappers around the methods and the
    containers of the manager and its board that make the changes."""

    def __init__(self, manager: DeviceManager):
        env, board = manager.env, manager.board
        metrics = self.metrics = MetricsRegistry(namespace="dm")
        busy = metrics.counter("busy_seconds_total")
        client_busy = metrics.counter("client_busy_seconds_total",
                                      labelnames=["client"])
        ops = metrics.counter("ops_total", labelnames=["type"])
        tasks = metrics.counter("tasks_total")
        clients = metrics.gauge("connected_clients")
        depth = metrics.gauge("task_queue_depth")
        reconfigurations = metrics.counter("reconfigurations_total")
        drain_seconds = metrics.gauge("board_drain_seconds")
        reconfiguration_seconds = metrics.gauge(
            "board_reconfiguration_seconds")

        def count(operation):
            seconds = operation.finished_at - operation.started_at
            busy.inc(seconds)
            client_busy.labels(operation.client).inc(seconds)
            ops.labels(operation.type.value).inc()

        manager.op_listeners.append(count)
        manager.task_listeners.append(lambda task: tasks.inc())
        manager.sessions = PushedSessions(clients, manager.sessions)

        scheduler = manager.scheduler

        def queued(method):
            def call(*args):
                result = method(*args)
                depth.set(len(scheduler))
                return result
            return call

        for name in ("push", "pop", "pop_nowait", "take_client", "clear"):
            setattr(scheduler, name, queued(getattr(scheduler, name)))

        def programmed(program):
            def call(*args):
                yield from program(*args)
                reconfigurations.inc()
            return call

        board.program = programmed(board.program)
        board.program_slot = programmed(board.program_slot)

        reprogramming = 0.0

        def on_activity(seconds, activity):
            nonlocal reprogramming
            if activity == "reconfigure":
                reprogramming += seconds
                reconfiguration_seconds.set(reprogramming)

        board.add_busy_listener(on_activity)

        drain, resume = manager.drain, manager.resume
        started = drained = 0.0

        def pushed_drain():
            nonlocal started
            if not manager.migrating:
                started = env.now
            return (yield from drain())

        def pushed_resume():
            nonlocal drained
            if manager.migrating:
                drained += env.now - started
                drain_seconds.set(drained)
            resume()

        manager.drain, manager.resume = pushed_drain, pushed_resume


class PushedRegistry:
    """Reference families of an Accelerators Registry, pushed where its
    moves are counted and where a restart records its new epoch."""

    def __init__(self, registry):
        env, store = registry.env, registry.store
        metrics = self.metrics = MetricsRegistry(namespace="registry")
        migrations = metrics.counter("migrations_total")
        live_migrations = metrics.counter("live_migrations_total")
        epoch = metrics.gauge("epoch")
        blackout = metrics.gauge("blackout_seconds_total")
        replayed = metrics.gauge("replayed_ops_total")
        epoch.set(registry.epoch)
        evacuate = registry.evacuate
        complete = registry.complete_live_migration
        crash = registry.crash
        replay, record_epoch = store.replay, store.record_epoch
        crashed_at = down = 0.0
        replaying = read = 0

        def pushed_evacuate(instance_name):
            process = evacuate(instance_name)
            if process is not None:
                migrations.inc()
            return process

        def pushed_complete(*args):
            complete(*args)
            migrations.inc()
            live_migrations.inc()

        def pushed_crash():
            nonlocal crashed_at
            if registry.alive:
                crashed_at = env.now
            crash()

        def pushed_replay():
            nonlocal replaying
            snapshot, records = replay()
            replaying = len(records)
            return snapshot, records

        def pushed_record_epoch(value):
            nonlocal down, read
            read += replaying
            down += env.now - crashed_at
            epoch.set(value)
            blackout.set(down)
            replayed.set(read)
            return record_epoch(value)

        registry.evacuate = pushed_evacuate
        registry.complete_live_migration = pushed_complete
        registry.crash = pushed_crash
        store.replay = pushed_replay
        store.record_epoch = pushed_record_epoch


def rows(family):
    return [(sample, labels, key, value.hex())
            for sample, labels, key, value in family.collect_rows()]


def assert_same_rows(collected: MetricsRegistry, reference: MetricsRegistry):
    """Every reference family's rows equal the collected family's."""
    for family in reference.families():
        assert rows(collected._families[family.name]) == rows(family)


class Rig:
    """Two Device Managers, A and B, serving three clients that start on
    A and may move between them, each with its pushed reference."""

    def __init__(self, slots):
        env = self.env = Environment()
        network = Network(env)
        node = network.host("B")
        spec = replace(DE5A_NET, pr_slots=slots)
        self.managers = [
            DeviceManager(env, f"dm-{name}",
                          FPGABoard(env, name, spec=spec, functional=False),
                          standard_library(), network, node)
            for name in "AB"
        ]
        self.pushed = [PushedManager(m) for m in self.managers]
        self.network, self.node = network, node
        #: One connection per client: a crash breaks its clients' only.
        self.transports = {}
        self.queues = {c: RpcEndpoint(env, f"{c}/cq") for c in CLIENTS}
        self.home = dict.fromkeys(CLIENTS, self.managers[0])
        self.buffers = {}
        self.kernels = {}
        #: Clients whose session holds its buffers and kernel.
        self.ready = set()
        self.checks = 0
        env.run(until=env.process(self.connect(self.managers[0], CLIENTS)))

    def connect(self, manager, clients):
        """Process: program Sobel, then connect ``clients`` to
        ``manager``, each with two buffers and a kernel."""
        for index, client in enumerate(clients):
            transport = self.transports[client] = ShmTransport(
                self.env, self.network, self.node, self.node)
            try:
                yield from self._call(client, protocol.CONNECT, {
                    "transport": transport,
                    "completion_queue": self.queues[client]})
                if index == 0:
                    yield from self._call(client, protocol.BUILD_PROGRAM,
                                          {"binary": "sobel"})
                buffers = []
                for _ in range(2):
                    created = yield from self._call(
                        client, protocol.CREATE_BUFFER,
                        {"size": BUFFER_BYTES})
                    buffers.append(created["buffer_id"])
                self.buffers[client] = buffers
                self.kernels[client] = (yield from self._call(
                    client, protocol.CREATE_KERNEL,
                    {"binary": "sobel", "name": "sobel"}))["kernel_id"]
            except RpcError:
                continue  # its manager crashed or drains: left unready
            self.ready.add(client)

    def _call(self, client, method, payload):
        return (yield from unary_call(self.transports[client],
                                      self.home[client].endpoint,
                                      method, payload, sender=client))

    def at(self, delay, action):
        self.env.timeout(delay).callbacks.append(lambda _: action())

    def submit(self, client, kinds):
        """Queue a task of ``kinds`` against the client's current session."""
        if client not in self.ready:
            return  # down, or not reconnected yet after a crash
        task = Task(client, 0, self.env.new_id("task"))
        source, target = self.buffers[client]
        for index, kind in enumerate(kinds):
            if kind is OpType.KERNEL:
                task.append(Operation(
                    type=kind, client=client, queue_id=0, tag=index,
                    kernel_id=self.kernels[client],
                    kernel_args=[(protocol.ARG_BUFFER, source),
                                 (protocol.ARG_BUFFER, target),
                                 (protocol.ARG_SCALAR, 32),
                                 (protocol.ARG_SCALAR, 32)]))
            else:
                task.append(Operation(
                    type=kind, client=client, queue_id=0, tag=index,
                    buffer_id=source if kind is OpType.WRITE else target,
                    nbytes=BUFFER_BYTES))
        self.home[client]._submit(task)

    def build(self, client, binary):
        """A client's ``BUILD_PROGRAM``, in its own process."""
        if client not in self.ready:
            return

        def call():
            try:
                yield from self._call(client, protocol.BUILD_PROGRAM,
                                      {"binary": binary})
            except RpcError:
                pass  # refused during a drain, or its session moved

        self.env.process(call())

    def move(self, client):
        """Capture the client's session off its manager and restore it on
        the other one, inside a drain of the source."""
        source = self.home[client]
        target = self.managers[1 - self.managers.index(source)]
        if client not in self.ready or not target.alive:
            return

        def moving():
            yield from source.drain()
            try:
                if not (source.migrating and target.alive):
                    raise CheckpointError("a manager crashed mid-drain")
                checkpoint = capture_session(source, client)
                restore_session(target, checkpoint, self.transports[client],
                                self.queues[client])
            except CheckpointError:
                self.ready.discard(client)
            else:
                self.home[client] = target
            source.resume()

        self.env.process(moving())

    def crash(self, index):
        manager = self.managers[index]
        manager.crash()
        lost = [c for c in CLIENTS if self.home[c] is manager]
        self.ready.difference_update(lost)

        def restart():
            manager.restart()
            self.env.process(self.connect(manager, lost))

        self.at(DOWNTIME, restart)

    def drain(self, seconds):
        manager = self.managers[0]
        self.env.process(manager.drain())
        self.at(seconds, manager.resume)

    def compare(self, read_client=None):
        """Both managers' rows equal their references'; with
        ``read_client``, that client's busy seconds read the same too (a
        reader that makes the child at 0 if it was never counted)."""
        for manager, pushed in zip(self.managers, self.pushed):
            if read_client is not None:
                name = "client_busy_seconds_total"
                assert (manager.metrics.get(name).labels(read_client)
                        .value.hex()
                        == pushed.metrics.get(name).labels(read_client)
                        .value.hex())
            assert_same_rows(manager.metrics, pushed.metrics)
        self.checks += 1


KINDS = st.sampled_from([OpType.WRITE, OpType.READ, OpType.KERNEL])
DELAYS = st.floats(min_value=0.0, max_value=5e-3, allow_nan=False)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("task"), DELAYS, st.sampled_from(CLIENTS),
              st.lists(KINDS, min_size=1, max_size=4)),
    st.tuples(st.just("check"), DELAYS,
              st.sampled_from((None,) + CLIENTS)),
    st.tuples(st.just("build"), DELAYS, st.sampled_from(CLIENTS),
              st.sampled_from(["sobel", "mm"])),
    st.tuples(st.just("move"), DELAYS, st.sampled_from(CLIENTS)),
), min_size=1, max_size=20)


@settings(deadline=None)
@given(slots=st.sampled_from([1, 2]), steps=STEPS,
       crash=st.none() | st.tuples(DELAYS, st.sampled_from([0, 1])),
       drain=st.none() | st.tuples(DELAYS, DELAYS))
def test_collected_counters_match_incremental_ones(slots, steps, crash,
                                                   drain):
    rig = Rig(slots)
    for kind, delay, *args in steps:
        action = {"task": rig.submit, "check": rig.compare,
                  "build": rig.build, "move": rig.move}[kind]
        rig.at(delay, lambda a=action, args=args: a(*args))
    if crash is not None:
        rig.at(crash[0], lambda: rig.crash(crash[1]))
    if drain is not None:
        start, seconds = drain
        rig.at(start, lambda: rig.drain(seconds))
    rig.env.run()
    rig.compare()
    assert rig.checks == 1 + sum(step[0] == "check" for step in steps)


@settings(deadline=None)
@given(move_at=st.floats(min_value=0.1, max_value=1.5),
       crash_after=st.floats(min_value=0.1, max_value=3.0),
       downtime=st.floats(min_value=0.0, max_value=0.5),
       checks=st.lists(st.floats(min_value=0.0, max_value=6.0),
                       max_size=12))
def test_registry_and_manager_metrics_across_a_crash_and_a_live_move(
        move_at, crash_after, downtime, checks):
    """A live migration programs its blank target board; the durable
    Registry crashes once the move has asked it for the bitstream (while
    the target is reprogrammed, or after), and restarts from its log."""
    env = Environment()
    system = build_system(env, SystemConfig(
        boards=2, migration="live", durability="durable"))
    registry, managers = system.registry, system.testbed.managers
    pushed = {name: PushedManager(m) for name, m in managers.items()}
    pushed_registry = PushedRegistry(registry)
    system.deploy([system.function_spec("sobel-0", SobelApp, "sobel")])
    (instance,) = system.controller.live_instances("sobel-0")
    name = instance.pod.name
    source = registry.functions.instance(name).device
    (target,) = set(managers) - {source}
    injector = RegistryCrash(registry)

    def compare():
        for manager_name, manager in managers.items():
            assert_same_rows(manager.metrics, pushed[manager_name].metrics)
        assert_same_rows(registry.metrics, pushed_registry.metrics)

    def move():
        yield env.timeout(move_at)
        yield from system.live_migrator.migrate(source, [(name, target)])

    def crash_and_restart():
        yield env.timeout(move_at + crash_after)
        injector.kill()
        yield env.timeout(downtime)
        yield injector.restore()

    for delay in checks:
        env.timeout(delay).callbacks.append(lambda _: compare())
    system.drive([Load("sobel-0", 20.0, duration=3.0)],
                 extra=[move(), crash_and_restart()], settle=0.5)
    compare()
    assert registry.live_migrations == registry.migrations == 1
    assert managers[target].board.reconfigurations == 1
    assert registry.epoch == 2 and registry.recoveries == 1


def test_a_collected_counter_reads_its_owner_at_every_collection():
    registry = MetricsRegistry()
    counts = {}
    family = registry.counter(
        "hits_total", "Hits", labelnames=["page"],
        collect=lambda: [((k,), v) for k, v in counts.items()])
    assert family.collect_rows() == []
    counts["a"] = 2.0
    assert [row[3] for row in family.collect_rows()] == [2.0]
    counts["a"] = 3.0
    assert family.labels("a").value == 3.0
    assert registry.collect() == {"hits_total": {("page=a",): 3.0}}
    assert 'hits_total{page="a"} 3.0' in registry.render_text()
    with pytest.raises(MetricError):
        family.labels("a").inc()

    sessions = []
    gauge = registry.gauge("sessions", "Open sessions",
                           collect=lambda: (((), float(len(sessions))),))
    assert gauge.value == 0.0
    sessions.append("s")
    assert 'sessions 1.0' in registry.render_text()
    with pytest.raises(MetricError):
        gauge.set(2)


@pytest.mark.parametrize("config", [
    SystemConfig(),
    SystemConfig(migration="live", durability="durable"),
], ids=["paper", "live-durable"])
def test_every_counter_and_gauge_is_collected(config):
    """No Device Manager or Registry counter or gauge is pushed."""
    system = build_system(Environment(), config)
    owners = [*system.testbed.managers.values(), system.registry]
    pushed = [family.name for owner in owners
              for family in owner.metrics.families()
              if family.type != "histogram" and family._collect is None]
    assert pushed == []


def test_only_the_owners_name_their_metric_handles():
    """No module outside ``core/device_manager`` and ``core/registry``
    names an ``_m_`` attribute: nothing reaches into an owner's metrics."""
    owners = [ROOT / "src/repro/core" / p for p in ("device_manager",
                                                     "registry")]
    offenders = []
    for top in ("src", "perfbench", "benchmarks", "examples", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if any(owner in path.parents for owner in owners):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and node.attr.startswith("_m_")):
                    offenders.append(f"{path.relative_to(ROOT)}:"
                                     f"{node.lineno} {node.attr}")
    assert offenders == []
