"""Event state machines of the Remote OpenCL Library.

Every asynchronous OpenCL call is driven by "a set of subsequent
asynchronous calls to the device manager service, a state machine to control
the steps that the event must follow and an OpenCL status for the event"
(Section III-A).  The canonical example from the paper is
``clEnqueueReadBuffer`` with four states: INIT (send call metadata), FIRST
(command enqueued by the manager), BUFFER (payload moves when the manager is
available) and COMPLETE.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from ...ocl.errors import CLError, CL_INVALID_OPERATION
from ...ocl.objects import CLEvent
from ...ocl.types import ExecutionStatus
from ..device_manager import protocol
from ...rpc import Message

if TYPE_CHECKING:  # pragma: no cover
    from .connection import Connection


class FsmState(enum.Enum):
    """States of a remote call's event state machine (paper's naming)."""

    INIT = "INIT"
    FIRST = "FIRST"
    BUFFER = "BUFFER"
    COMPLETE = "COMPLETE"
    FAILED = "FAILED"


#: The absorbing states.
_TERMINAL = (FsmState.COMPLETE, FsmState.FAILED)


class RemoteEventMachine:
    """Drives one remote command's lifecycle and its OpenCL event status.

    The machine's *tag* (the event id — "the pointer to the newly created
    event" in the paper) travels with every request and notification so the
    connection thread can route completions back here.
    """

    #: One per command: no per-instance ``__dict__``.
    __slots__ = ("connection", "cl_event", "state", "_write_payload",
                 "_write_nbytes", "is_write", "tag")

    def __init__(self, connection: "Connection", cl_event: CLEvent,
                 write_payload: Optional[bytes] = None,
                 write_nbytes: int = 0):
        self.connection = connection
        self.cl_event = cl_event
        self.state = FsmState.INIT
        self._write_payload = write_payload
        self._write_nbytes = write_nbytes
        self.is_write = write_nbytes > 0 or write_payload is not None
        self.tag = cl_event.id

    def on_notification(self, message: Message) -> None:
        """Advance on a Device Manager notification (connection thread)."""
        if self.state in _TERMINAL:
            # COMPLETE/FAILED are absorbing: duplicated or straggling
            # notifications after the event resolved are dropped.
            return
        if message.method == protocol.OP_ENQUEUED:
            self._on_enqueued()
        elif message.method == protocol.OP_COMPLETE:
            self._on_complete(message.payload.get("data"))
        elif message.method == protocol.OP_FAILED:
            self._on_failed(message.payload.get("error", "remote failure"),
                            message.payload.get("code"))
        else:
            self._on_failed(f"unexpected notification {message.method!r}")

    # -- transitions ------------------------------------------------------
    # The machine alone advances its OpenCL event, so the state says the
    # event's status: QUEUED in INIT, SUBMITTED in FIRST and BUFFER.
    def _on_enqueued(self) -> None:
        if self.state is not FsmState.INIT:
            return self._protocol_error("FIRST", "INIT")
        if self.is_write:
            # BUFFER step: send the payload now that the manager is ready.
            self.state = FsmState.BUFFER
            self.connection.stream_write_data(
                self.tag, self._write_payload, self._write_nbytes
            )
        else:
            self.state = FsmState.FIRST
        self.cl_event.set_status(ExecutionStatus.SUBMITTED)

    def _on_complete(self, data) -> None:
        # Not terminal (see on_notification): INIT, FIRST or BUFFER.
        if self.state is FsmState.INIT:
            self.cl_event.set_status(ExecutionStatus.SUBMITTED)
        self.state = FsmState.COMPLETE
        self.cl_event.set_status(ExecutionStatus.RUNNING)
        self.connection.forget(self.tag)
        self.cl_event.complete(data)  # a waiting host process resumes here

    def _on_failed(self, error: str, code: Optional[int] = None) -> None:
        self.state = FsmState.FAILED
        self.cl_event.fail(CLError(
            code if code is not None else CL_INVALID_OPERATION, error))
        self.connection.forget(self.tag)

    def _protocol_error(self, got: str, expected: str) -> None:
        self._on_failed(
            f"protocol violation: {got} notification in state "
            f"{self.state.value} (expected {expected})"
        )
