"""Property test: the remote event FSM always resolves, never wedges.

Whatever notification sequence the (possibly faulty) network delivers —
reordered, duplicated, truncated, or garbage — the client-side event state
machine must never raise out of the connection thread, must reach an
absorbing COMPLETE or FAILED state on any sequence that can end it, and
must release its tag from the connection routing table exactly once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device_manager import protocol
from repro.core.remote_lib.events import (
    _TERMINAL,
    FsmState,
    RemoteEventMachine,
)
from repro.ocl.objects import CLEvent
from repro.ocl.types import CommandType
from repro.rpc import Message
from repro.sim import Environment

METHODS = [
    protocol.OP_ENQUEUED,
    protocol.OP_COMPLETE,
    protocol.OP_FAILED,
    "Bogus",  # a method the FSM was never taught
]


class _StubConnection:
    def __init__(self):
        self.streamed = []
        self.forgotten = []

    def stream_write_data(self, tag, payload, nbytes):
        self.streamed.append(tag)

    def forget(self, tag):
        self.forgotten.append(tag)


def _machine(is_write):
    env = Environment()
    cl_event = CLEvent(env, CommandType.WRITE_BUFFER if is_write
                       else CommandType.READ_BUFFER)
    connection = _StubConnection()
    if is_write:
        machine = RemoteEventMachine(connection, cl_event,
                                     write_payload=b"x" * 8, write_nbytes=8)
    else:
        machine = RemoteEventMachine(connection, cl_event)
    return machine, cl_event, connection


@given(
    methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=12),
    is_write=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_fsm_terminates_complete_or_failed(methods, is_write):
    machine, cl_event, connection = _machine(is_write)

    for method in methods:
        was_terminal = machine.state in _TERMINAL
        state_before = machine.state
        status_before = (cl_event._status, cl_event._error)
        machine.on_notification(Message(method=method, sender="dm",
                                        id=cl_event.env.new_id("message")))
        if was_terminal:
            # COMPLETE/FAILED are absorbing: stragglers change nothing.
            assert machine.state is state_before
            assert (cl_event._status, cl_event._error) == status_before

    # The only sequence that may leave the machine in flight is a single
    # OP_ENQUEUED (command accepted, completion still pending).
    in_flight = methods == [protocol.OP_ENQUEUED]
    if in_flight:
        assert machine.state not in _TERMINAL
        expected = FsmState.BUFFER if is_write else FsmState.FIRST
        assert machine.state is expected
    else:
        assert machine.state in _TERMINAL
        assert machine.state in (FsmState.COMPLETE, FsmState.FAILED)
        assert cl_event.is_complete
        # The tag is released exactly once, however noisy the tail was.
        assert connection.forgotten == [machine.tag]

    if is_write and methods[0] == protocol.OP_ENQUEUED:
        # The BUFFER step pushed the write payload when the manager
        # signalled readiness.
        assert connection.streamed == [machine.tag]

    # Nothing schedulable left behind: a failed completion with no waiter
    # must not blow up a later env.run().
    cl_event.completion.defused = True
