"""RPC substrate: the network, gRPC-model and shared-memory transports, and
control-plane messaging used by every BlastFunction component."""

from .messages import (
    Message,
    RpcEndpoint,
    RpcError,
    RpcTimeout,
    reply,
    reply_error,
    send_to_client,
    unary_call,
)
from .network import LOCAL_STACK, Network, NetworkHost
from .transport import (
    CONTROL_HANDLING_OVERHEAD,
    CONTROL_MESSAGE_BYTES,
    CopyStats,
    GrpcTransport,
    ShmTransport,
    Transport,
    make_transport,
)

__all__ = [
    "CONTROL_HANDLING_OVERHEAD",
    "CONTROL_MESSAGE_BYTES",
    "CopyStats",
    "GrpcTransport",
    "LOCAL_STACK",
    "Message",
    "Network",
    "NetworkHost",
    "RpcEndpoint",
    "RpcError",
    "RpcTimeout",
    "ShmTransport",
    "Transport",
    "make_transport",
    "reply",
    "reply_error",
    "send_to_client",
    "unary_call",
]
