"""One event per board operation, checked against the two-step chain.

A Device Manager whose one worker alone uses a one-slot board issues each
DMA, copy or kernel step when the operation's overhead starts: one event
ends it at ``(now + OP_OVERHEAD) + duration``, the float the overhead
Timeout followed by the step's Timeout ends on.  Whatever could change
what the step read or was granted first splits it back into that chain.

Each test runs one script twice, once as shipped and once on the chain
(``ChainManager``), and compares everything clients and metrics observe:
notifications with their times and error codes, unary replies, the start
and finish of every operation that completed or failed, busy seconds and
the clock when the run drains.  Splitters land at chosen instants;
exact ties with an operation's start are left out, because the fused
event is queued at issue rather than at the start (docs/simulation.md).
"""

from dataclasses import replace

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
from repro.faults import FaultScript
from repro.fpga import DE5A_NET, FPGABoard, standard_library
from repro.ocl.errors import (
    CL_DEVICE_NOT_AVAILABLE,
    CL_INVALID_MEM_OBJECT,
)
from repro.rpc import Message, Network, RpcEndpoint, ShmTransport, unary_call
from repro.sim import Environment
from repro.sim.events import NORMAL

CLIENTS = ("c0", "c1")
#: Bytes of each client buffer: one 32x32 RGBA image.
BUFFER_BYTES = 32 * 32 * 4
#: How long a locked-up board or a crashed manager stays down.
DOWNTIME = 1e-3


class ChainManager(DeviceManager):
    """The generic path: every operation waits out its overhead, then
    takes its board step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._solo = False


class CountingEnvironment(Environment):
    """Counts every event passing through ``schedule``."""

    __slots__ = ("scheduled",)

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self.scheduled += 1
        super().schedule(event, delay, priority)


class Rig:
    """A Device Manager with both clients connected, holding two buffers
    and a Sobel kernel each."""

    def __init__(self, manager_class, slots=1, workers=None):
        env = self.env = CountingEnvironment()
        network = Network(env)
        node = network.host("B")
        self.board = FPGABoard(env, spec=replace(DE5A_NET, pr_slots=slots),
                               functional=False)
        self.manager = manager_class(env, "dm-B", self.board,
                                     standard_library(), network, node,
                                     workers=workers)
        self.transport = ShmTransport(env, network, node, node)
        self.notifications = {client: [] for client in CLIENTS}
        self.replies = []
        self.completed = []
        self.operations = []
        self.manager.op_listeners.append(
            lambda op: self.completed.append(
                (op.tag, op.started_at, op.finished_at)))
        self.buffers = {}
        self.kernels = {}
        env.run(until=env.process(self._setup()))
        env.run()
        #: Script times count from here.
        self.base = env.now

    def _setup(self):
        for client in CLIENTS:
            completions = RpcEndpoint(
                self.env, f"{client}/completions",
                handler=lambda message, log=self.notifications[client]:
                    log.append((self.env.now, message.method, message.tag,
                                message.payload.get("code"))))
            yield from self._call(client, protocol.CONNECT, {
                "transport": self.transport,
                "completion_queue": completions})
            yield from self._call(client, protocol.BUILD_PROGRAM,
                                  {"binary": "sobel"})
            self.buffers[client] = []
            for _ in range(2):
                created = yield from self._call(
                    client, protocol.CREATE_BUFFER, {"size": BUFFER_BYTES})
                self.buffers[client].append(created["buffer_id"])
            self.kernels[client] = (yield from self._call(
                client, protocol.CREATE_KERNEL,
                {"binary": "sobel", "name": "sobel"}))["kernel_id"]

    def _call(self, client, method, payload):
        return (yield from unary_call(self.transport, self.manager.endpoint,
                                      method, payload, sender=client))

    # -- the script ----------------------------------------------------------
    def at(self, delay, action):
        self.env.timeout(delay).callbacks.append(lambda _: action())

    def submit(self, delay, client, specs):
        """Submit a task of ``(type, buffer, nbytes)`` operations at
        ``base + delay``; buffer ``2`` is one the client never had."""
        index = len(self.operations)
        operations = [self._operation(client, (index, n), *spec)
                      for n, spec in enumerate(specs)]
        self.operations.extend(operations)

        def flush():
            task = Task(client, 0, self.env.new_id("task"))
            for operation in operations:
                task.append(operation)
            self.manager._submit(task)

        self.at(delay, flush)

    def _operation(self, client, tag, kind, buffer, nbytes):
        buffer_ids = [*self.buffers[client], 10_000]
        ids = (buffer_ids[buffer], buffer_ids[(buffer + 1) % 2])
        if kind is OpType.KERNEL:
            return Operation(
                type=kind, client=client, queue_id=0, tag=tag,
                kernel_id=self.kernels[client],
                kernel_args=[(protocol.ARG_BUFFER, ids[0]),
                             (protocol.ARG_BUFFER, ids[1]),
                             (protocol.ARG_SCALAR, 32),
                             (protocol.ARG_SCALAR, 32)])
        return Operation(type=kind, client=client, queue_id=0, tag=tag,
                         buffer_id=ids[0], dst_buffer_id=ids[1],
                         nbytes=nbytes)

    def unary(self, delay, client, method, payload):
        """Deliver a unary request at ``base + delay``; log its reply."""
        def deliver():
            reply = self.env.event()

            def record(event):
                event.defused = True
                self.replies.append(
                    (self.env.now, method, event.ok,
                     None if event.ok else event.value.code))

            reply.callbacks.append(record)
            self.manager.endpoint.deliver(Message(
                method=method, payload=payload, sender=client,
                reply_to=reply, id=self.env.new_id("message")))

        self.at(delay, deliver)

    def splitter(self, delay, kind):
        """Schedule one splitter at ``base + delay``."""
        when = self.base + delay
        if kind == "release":
            self.unary(delay, "c0", protocol.RELEASE_BUFFER,
                       {"buffer_id": self.buffers["c0"][0]})
        elif kind == "disconnect":
            self.unary(delay, "c0", protocol.DISCONNECT, {})
        elif kind == "build":
            self.unary(delay, "c0", protocol.BUILD_PROGRAM,
                       {"binary": "mm"})
        elif kind == "lock":
            FaultScript(self.env).lock_board(
                self.board, when, recover_after=DOWNTIME).arm()
        elif kind == "recover":
            FaultScript(self.env).at(when, "power-cycle",
                                     self.board.recover).arm()
        elif kind == "crash":
            FaultScript(self.env).crash_manager(self.manager, when).arm()
        elif kind == "restart":
            FaultScript(self.env).crash_manager(
                self.manager, when, restart_after=DOWNTIME).arm()
        elif kind == "kill":
            FaultScript(self.env).kill_worker(self.manager, when).arm()
        else:
            raise ValueError(kind)

    # -- observation ---------------------------------------------------------
    def observe(self):
        self.env.run()
        notified = {entry[2] for log in self.notifications.values()
                    for entry in log if entry[1] != protocol.OP_ENQUEUED}
        return {
            "notifications": self.notifications,
            "replies": self.replies,
            "completed": self.completed,
            "stamps": [(op.tag, op.started_at, op.finished_at)
                       for op in self.operations if op.tag in notified],
            "metrics": self.manager.metrics.collect(),
            "board": (self.board.busy_seconds, self.board.kernel_runs,
                      self.board.link.transfer_count),
            "now": self.env.now,
        }


SPLITTERS = ("release", "disconnect", "build", "lock", "recover", "crash",
             "restart", "kill")

#: One task: write the input, run the kernel, read the output.
PIPELINE = [(OpType.WRITE, 0, BUFFER_BYTES), (OpType.KERNEL, 0, 0),
            (OpType.READ, 1, BUFFER_BYTES)]


def run_pipeline(manager_class, splitter=None, delay=None):
    rig = Rig(manager_class)
    rig.submit(0.0, "c0", PIPELINE)
    if splitter is not None:
        rig.splitter(delay, splitter)
    return rig, rig.observe()


def pipeline_timeline():
    """Each operation's (start, finish), relative to the script's base,
    from a run of the chain with no splitter."""
    rig, seen = run_pipeline(ChainManager)
    return [(start - rig.base, finish - rig.base)
            for _tag, start, finish in seen["completed"]]


def test_a_solo_board_operation_is_one_event():
    chain, chain_seen = run_pipeline(ChainManager)
    fused, fused_seen = run_pipeline(DeviceManager)
    assert fused_seen == chain_seen
    assert [tag for tag, *_ in fused_seen["completed"]] == [
        (0, 0), (0, 1), (0, 2)]
    # Three operations, one overhead Timeout saved on each.
    assert chain.env.scheduled - fused.env.scheduled == 3


@pytest.mark.parametrize("phase", ["overhead", "step"])
@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("splitter", SPLITTERS)
def test_a_splitter_sees_what_the_chain_sees(splitter, index, phase):
    start, finish = pipeline_timeline()[index]
    overhead = DeviceManager.OP_OVERHEAD
    delay = (start - overhead / 2 if phase == "overhead"
             else (start + finish) / 2)
    chain, chain_seen = run_pipeline(ChainManager, splitter, delay)
    fused, fused_seen = run_pipeline(DeviceManager, splitter, delay)
    assert fused_seen == chain_seen
    if phase == "overhead":
        # Every step before the split saved its event; the split one and
        # all after it cost what the chain costs, unless they run fused.
        assert fused.env.scheduled <= chain.env.scheduled - index


def outcome(seen, tag):
    """The last notification of the operation ``tag``."""
    return [entry[1:] for entry in seen["notifications"]["c0"]
            if entry[2] == tag][-1]


def test_a_release_inside_the_overhead_fails_the_step_it_would_read():
    start, _finish = pipeline_timeline()[0]
    delay = start - DeviceManager.OP_OVERHEAD / 2
    _rig, seen = run_pipeline(DeviceManager, "release", delay)
    assert outcome(seen, (0, 0)) == (protocol.OP_FAILED, (0, 0),
                                     CL_INVALID_MEM_OBJECT)
    assert seen["completed"] == []


def test_a_lock_up_inside_the_overhead_fails_the_step():
    start, _finish = pipeline_timeline()[1]
    delay = start - DeviceManager.OP_OVERHEAD / 2
    _rig, seen = run_pipeline(DeviceManager, "lock", delay)
    assert outcome(seen, (0, 1)) == (protocol.OP_FAILED, (0, 1),
                                     CL_DEVICE_NOT_AVAILABLE)


def test_a_lock_up_mid_step_lets_the_step_finish():
    start, finish = pipeline_timeline()[1]
    _rig, seen = run_pipeline(DeviceManager, "lock", (start + finish) / 2)
    assert outcome(seen, (0, 1)) == (protocol.OP_COMPLETE, (0, 1), None)
    assert outcome(seen, (0, 2)) == (protocol.OP_FAILED, (0, 2),
                                     CL_DEVICE_NOT_AVAILABLE)


def test_an_invalid_operation_takes_the_chain_and_fails_at_its_start():
    rigs = []
    for manager_class in (ChainManager, DeviceManager):
        rig = Rig(manager_class)
        rig.submit(0.0, "c0", [(OpType.WRITE, 2, 64)])
        rigs.append((rig, rig.observe()))
    (chain, chain_seen), (fused, fused_seen) = rigs
    assert fused_seen == chain_seen
    assert fused.env.scheduled == chain.env.scheduled
    time, method, _tag, code = fused_seen["notifications"]["c0"][-1]
    assert (method, code) == (protocol.OP_FAILED, CL_INVALID_MEM_OBJECT)
    assert fused_seen["stamps"] == [
        ((0, 0), fused.base + DeviceManager.OP_OVERHEAD, None)]


def test_an_empty_step_keeps_the_chain():
    rigs = []
    for manager_class in (ChainManager, DeviceManager):
        rig = Rig(manager_class)
        rig.submit(0.0, "c0", [(OpType.COPY, 0, 0)])
        rigs.append((rig, rig.observe()))
    (chain, chain_seen), (fused, fused_seen) = rigs
    assert fused_seen == chain_seen
    assert fused.env.scheduled == chain.env.scheduled


# -- the property --------------------------------------------------------------
OPERATIONS = st.tuples(
    st.sampled_from([OpType.WRITE, OpType.READ, OpType.COPY, OpType.KERNEL,
                     OpType.MARKER]),
    # Mostly real buffers; buffer 2 fails validation.
    st.sampled_from([0, 0, 1, 1, 2]),
    st.sampled_from([0, 64, BUFFER_BYTES]),
)
TASKS = st.lists(
    st.tuples(st.floats(0.0, 300e-6), st.sampled_from(CLIENTS),
              st.lists(OPERATIONS, min_size=1, max_size=4)),
    min_size=1, max_size=4)
SPLITS = st.lists(
    st.tuples(st.floats(0.0, 400e-6), st.sampled_from(SPLITTERS)),
    max_size=2)
#: (PR slots, workers): the solo board, and boards other work can share.
BOARDS = st.sampled_from([(1, None), (2, None), (2, 1), (1, 2)])


def run_script(manager_class, board, tasks, splits):
    slots, workers = board
    rig = Rig(manager_class, slots, workers)
    for delay, client, specs in tasks:
        rig.submit(delay, client, specs)
    for delay, kind in splits:
        rig.splitter(delay, kind)
    return rig, rig.observe()


@settings(deadline=None)
@given(board=BOARDS, tasks=TASKS, splits=SPLITS)
def test_fused_steps_match_the_chain(board, tasks, splits):
    chain, chain_seen = run_script(ChainManager, board, tasks, splits)
    fused, fused_seen = run_script(DeviceManager, board, tasks, splits)
    assert fused_seen == chain_seen
    if board != (1, None):
        # Space sharing or a second worker: the rule never applies.
        assert fused.env.scheduled == chain.env.scheduled
    else:
        assert fused.env.scheduled <= chain.env.scheduled
