"""Control-plane messaging: endpoints, messages, unary calls.

The components of BlastFunction talk gRPC for control.  Here a *message* is
delivered to the destination endpoint (its inbox, or its handler) after the
transport's control latency; unary request/response is built from two
one-way messages.
The convention mirrors gRPC's asynchronous completion-queue API, which is
exactly what the paper's Remote OpenCL Library builds its event state
machines on (a *tag* identifying the waiting operation travels with each
request and returns with its response).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..ocl.errors import CL_DEVICE_NOT_AVAILABLE
from ..sim import AnyOf, Event, Store

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Environment
    from .transport import Transport


class RpcError(RuntimeError):
    """A failed remote call (the server answered with an error).

    ``code`` optionally carries a structured (OpenCL) error code so client
    layers can surface the server's failure as the matching ``CLError``
    rather than a generic one.
    """

    def __init__(self, message: str, code: Optional[int] = None):
        super().__init__(message)
        self.code = code


@dataclass(slots=True)
class Message:
    """One control message.

    Bulk data payloads (``payload["data"]``) are bytes-like and may be
    *views* (``memoryview``/numpy) rather than ``bytes``: delivery never
    copies them.  The data plane charges their transfer cost separately
    (see :mod:`repro.rpc.transport`); materialization to immutable bytes
    happens only at the read-completion boundary.
    """

    method: str
    payload: Dict[str, Any] = field(default_factory=dict)
    sender: str = ""
    #: Completion-queue tag: opaque client-side identity (e.g. a pointer to
    #: the Remote Library event driving this call).
    tag: Any = None
    #: For unary calls: the simulation event the reply will trigger.
    reply_to: Optional[Event] = None
    #: ``env.new_id("message")``: keys its fault verdicts.
    id: int = field(kw_only=True)
    #: Which transmission of the message (0 first; a resend after a loss
    #: adds one): keys its fault verdict with ``id``.
    attempt: int = 0


class RpcEndpoint:
    """A named service endpoint.

    Delivered messages queue in ``inbox`` for a server process to get, or,
    when the endpoint has a ``handler``, are handed to it synchronously on
    arrival: a completion queue whose dispatch costs no process.
    """

    def __init__(self, env: Environment, name: str,
                 handler: Optional[Callable[[Message], None]] = None):
        self.env = env
        self.name = name
        self.inbox: Store = Store(env)
        self.handler = handler
        self.delivered = 0

    def deliver(self, message: Message) -> None:
        """Hand a message to the handler, or queue it in the inbox (after
        transport delay)."""
        self.delivered += 1
        if self.handler is not None:
            self.handler(message)
        else:
            self.inbox.put_nowait(message)

    def arrive(self, arrival: Event) -> None:
        """Arrival-event callback: deliver the message the event carries."""
        self.deliver(arrival._value)


def send_to_client(transport: Transport, endpoint: RpcEndpoint,
                   message: Message) -> Event:
    """Push a server→client control message; returns its arrival event.

    Fire-and-forget, like a Device Manager notification: the sender does
    not wait, though a caller may yield the returned event.
    """
    return transport.deliver_to_client(endpoint, message)


class RpcTimeout(RpcError):
    """A unary call was not answered within its deadline."""


def unary_call(
    transport: Transport,
    endpoint: RpcEndpoint,
    method: str,
    payload: Optional[Dict[str, Any]] = None,
    sender: str = "",
    timeout: Optional[float] = None,
):
    """Process: synchronous request/response against a server endpoint.

    The server is expected to answer via :func:`reply`.  Raises
    :class:`RpcError` if the server replies with an error or the
    connection breaks, and :class:`RpcTimeout` if no reply arrives within
    ``timeout`` seconds (gRPC deadline semantics; ``None`` waits until the
    reply or a break).
    """
    if transport.broken is not None:
        raise RpcError(f"{method}: connection broken: {transport.broken}",
                       code=CL_DEVICE_NOT_AVAILABLE)
    env = transport.env
    response = env.event()
    message = Message(
        method=method, payload=dict(payload or {}), sender=sender,
        reply_to=response, id=env.new_id("message"),
    )
    calls = transport.calls
    calls[response] = None
    try:
        yield from transport.deliver_to_server(endpoint, message)
        if timeout is None:
            result = yield response
            return result
        yield AnyOf(env, [response, env.timeout(timeout)])
    finally:
        calls.pop(response, None)
    if not response.triggered:
        # Late replies (including late errors) must not crash the
        # abandoned caller.
        response.defused = True
        raise RpcTimeout(f"{method} deadline of {timeout}s exceeded")
    if not response.ok:
        raise response.value
    return response.value


def reply(transport: Transport, message: Message, value: Any = None):
    """Process: answer a unary call (server side)."""
    if message.reply_to is None:
        raise ValueError(f"message {message.method!r} expects no reply")
    yield from transport.answer(message, message.reply_to.settle, value)


def reply_error(transport: Transport, message: Message,
                error: Exception):
    """Process: answer a unary call with a failure."""
    if message.reply_to is None:
        raise ValueError(f"message {message.method!r} expects no reply")
    if not isinstance(error, RpcError):
        # Preserve a structured OpenCL code when the server error has one.
        error = RpcError(str(error), code=getattr(error, "cl_code", None))
    yield from transport.answer(message, message.reply_to.fail, error)
