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
from itertools import count
from typing import Any, Callable, Dict, Optional

from ..sim import Environment, Event, Store
from .transport import Transport

_message_ids = count(1)


class RpcError(RuntimeError):
    """A failed remote call (the server answered with an error).

    ``code`` optionally carries a structured (OpenCL) error code so client
    layers can surface the server's failure as the matching ``CLError``
    rather than a generic one.
    """

    def __init__(self, message: str, code: Optional[int] = None):
        super().__init__(message)
        self.code = code


def new_request_id() -> int:
    """Fresh request id for an idempotent unary call.

    Retries of the same logical request reuse one id, letting the server
    dedupe re-executions and replay the cached reply.
    """
    return next(_message_ids)


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
    id: int = field(default_factory=lambda: next(_message_ids))


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

    def __repr__(self) -> str:
        return f"<RpcEndpoint {self.name}>"


def send_to_server(transport: Transport, endpoint: RpcEndpoint,
                   message: Message):
    """Process: deliver a client→server control message."""
    yield from transport.deliver_to_server(endpoint, message)


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
    request_id: Optional[int] = None,
):
    """Process: synchronous request/response against a server endpoint.

    The server is expected to answer via :func:`reply`.  Raises
    :class:`RpcError` if the server replies with an error and
    :class:`RpcTimeout` if no reply arrives within ``timeout`` seconds
    (gRPC deadline semantics; ``None`` waits forever).

    ``request_id`` pins the message id so a retry is recognizably the
    same logical request (the Device Manager dedupes on it and replays
    its cached reply instead of re-executing).
    """
    env = transport.env
    response = env.event()
    message = Message(
        method=method, payload=dict(payload or {}), sender=sender,
        reply_to=response,
    )
    if request_id is not None:
        message.id = request_id
    yield from transport.deliver_to_server(endpoint, message)
    if timeout is None:
        result = yield response
        return result
    deadline = env.timeout(timeout)
    from ..sim import AnyOf

    yield AnyOf(env, [response, deadline])
    if not response.triggered:
        # Late replies (including late errors) must not crash the
        # abandoned caller.
        response.defused = True
        raise RpcTimeout(f"{method} deadline of {timeout}s exceeded")
    faults = transport.network.faults
    if faults is not None:
        # Reply loss is decided client-side: the server's handler DID run
        # (and cached its reply for retries), but the answer crossing the
        # same lossy fabric may drop or straggle, surfacing to the caller
        # as a deadline expiry.  Only modeled under a deadline — without
        # one a lost reply would hang the caller forever.
        verdict = faults.message_action(transport.server.name,
                                        transport.client.name)
        if verdict.drop:
            response.defused = True
            if not deadline.processed:
                yield deadline
            raise RpcTimeout(f"{method} reply lost; deadline of "
                             f"{timeout}s exceeded")
        if verdict.delay:
            extra = env.timeout(verdict.delay)
            yield AnyOf(env, [extra, deadline])
            if not extra.processed:
                response.defused = True
                raise RpcTimeout(f"{method} deadline of {timeout}s exceeded")
    if not response.ok:
        raise response.value
    return response.value


def reply(transport: Transport, message: Message, value: Any = None):
    """Process: answer a unary call (server side)."""
    if message.reply_to is None:
        raise ValueError(f"message {message.method!r} expects no reply")
    yield from transport.control_to_client()
    message.reply_to.succeed(value)


def reply_error(transport: Transport, message: Message,
                error: Exception):
    """Process: answer a unary call with a failure."""
    if message.reply_to is None:
        raise ValueError(f"message {message.method!r} expects no reply")
    yield from transport.control_to_client()
    if not isinstance(error, RpcError):
        # Preserve a structured OpenCL code when the server error has one.
        error = RpcError(str(error), code=getattr(error, "cl_code", None))
    message.reply_to.fail(error)
