"""The Device Manager's collector-backed counters against incremental ones.

``busy_seconds_total``, ``client_busy_seconds_total{client}`` and
``ops_total{type}`` read the manager's accumulators when collected.  This
property runs random operation mixes from several clients, with a manager
crash and a live-migration drain at random instants, and checks at random
instants that their rows equal those of counters bumped per operation
through ``_Child.inc``: row for row, with bit-identical floats.
"""

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
from repro.fpga import FPGABoard, standard_library
from repro.metrics import MetricError, MetricsRegistry
from repro.rpc import Network, RpcEndpoint, ShmTransport, unary_call
from repro.sim import Environment

CLIENTS = ("c0", "c1", "c2")
#: Bytes of each client buffer: one 32x32 RGBA image.
BUFFER_BYTES = 32 * 32 * 4
#: How long a crashed manager stays down before it restarts.
DOWNTIME = 1e-3
FAMILIES = ("busy_seconds_total", "client_busy_seconds_total", "ops_total")


class Rig:
    """A Device Manager serving three clients, and reference counters
    bumped through ``_Child.inc`` for every operation it completes."""

    def __init__(self):
        env = self.env = Environment()
        network = Network(env)
        node = network.host("B")
        self.manager = DeviceManager(
            env, "dm-B", FPGABoard(env, functional=False),
            standard_library(), network, node)
        self.transport = ShmTransport(env, network, node, node)
        self.reference = MetricsRegistry(namespace="dm")
        busy = self.reference.counter("busy_seconds_total")
        client_busy = self.reference.counter("client_busy_seconds_total",
                                             labelnames=["client"])
        ops = self.reference.counter("ops_total", labelnames=["type"])

        def count(operation):
            seconds = operation.finished_at - operation.started_at
            busy.inc(seconds)
            client_busy.labels(operation.client).inc(seconds)
            ops.labels(operation.type.value).inc()

        self.manager.op_listeners.append(count)
        self.buffers = {}
        self.kernels = {}
        #: Clients whose session holds its buffers and kernel.
        self.ready = set()
        self.checks = 0
        env.run(until=env.process(self.connect()))

    def connect(self):
        """Process: connect every client with two buffers and a kernel."""
        for client in CLIENTS:
            yield from self._call(client, protocol.CONNECT, {
                "transport": self.transport,
                "completion_queue": RpcEndpoint(self.env, f"{client}/cq")})
            if client == CLIENTS[0]:
                yield from self._call(client, protocol.BUILD_PROGRAM,
                                      {"binary": "sobel"})
            buffers = []
            for _ in range(2):
                created = yield from self._call(
                    client, protocol.CREATE_BUFFER, {"size": BUFFER_BYTES})
                buffers.append(created["buffer_id"])
            self.buffers[client] = buffers
            self.kernels[client] = (yield from self._call(
                client, protocol.CREATE_KERNEL,
                {"binary": "sobel", "name": "sobel"}))["kernel_id"]
            self.ready.add(client)

    def _call(self, client, method, payload):
        return (yield from unary_call(self.transport, self.manager.endpoint,
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
        self.manager._submit(task)

    def crash(self):
        self.manager.crash()
        self.ready.clear()

        def restart():
            self.manager.restart()
            self.env.process(self.connect())

        self.at(DOWNTIME, restart)

    def drain(self, seconds):
        self.env.process(self.manager.drain())
        self.at(seconds, self.manager.resume)

    def compare(self, read_client=None):
        """Both registries' rows are equal, floats bit for bit; with
        ``read_client``, that client's busy seconds read the same too (a
        reader that makes the child at 0 if it was never counted)."""
        if read_client is not None:
            collected = self.manager.metrics.get("client_busy_seconds_total")
            reference = self.reference.get("client_busy_seconds_total")
            assert (collected.labels(read_client).value.hex()
                    == reference.labels(read_client).value.hex())
        for name in FAMILIES:
            assert (rows(self.manager.metrics, name)
                    == rows(self.reference, name))
        self.checks += 1


def rows(registry, name):
    return [(sample, labels, key, value.hex())
            for sample, labels, key, value
            in registry.get(name).collect_rows()]


KINDS = st.sampled_from([OpType.WRITE, OpType.READ, OpType.KERNEL])
DELAYS = st.floats(min_value=0.0, max_value=5e-3, allow_nan=False)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("task"), DELAYS, st.sampled_from(CLIENTS),
              st.lists(KINDS, min_size=1, max_size=4)),
    st.tuples(st.just("check"), DELAYS,
              st.sampled_from((None,) + CLIENTS)),
), min_size=1, max_size=20)


@settings(deadline=None)
@given(steps=STEPS, crash_at=st.none() | DELAYS,
       drain=st.none() | st.tuples(DELAYS, DELAYS))
def test_collected_counters_match_incremental_ones(steps, crash_at, drain):
    rig = Rig()
    for step in steps:
        if step[0] == "task":
            _, delay, client, kinds = step
            rig.at(delay, lambda c=client, k=kinds: rig.submit(c, k))
        else:
            _, delay, client = step
            rig.at(delay, lambda c=client: rig.compare(c))
    if crash_at is not None:
        rig.at(crash_at, rig.crash)
    if drain is not None:
        start, seconds = drain
        rig.at(start, lambda: rig.drain(seconds))
    rig.env.run()
    rig.compare()
    assert rig.checks == 1 + sum(step[0] == "check" for step in steps)


def test_a_collected_counter_reads_its_owner_at_every_collection():
    registry = MetricsRegistry()
    counts = {}
    family = registry.collected_counter(
        "hits_total", "Hits", lambda: [((k,), v) for k, v in counts.items()],
        labelnames=["page"])
    assert family.collect_rows() == []
    counts["a"] = 2.0
    assert [row[3] for row in family.collect_rows()] == [2.0]
    counts["a"] = 3.0
    assert family.labels("a").value == 3.0
    assert registry.collect() == {"hits_total": {("page=a",): 3.0}}
    assert 'hits_total{page="a"} 3.0' in registry.render_text()
    with pytest.raises(MetricError):
        family.labels("a").inc()
