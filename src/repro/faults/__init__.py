"""Deterministic fault injection and recovery policies.

Everything here is opt-in: a simulation that never installs a fault plane or
passes a recovery policy executes the exact same event sequence as a build
without this package (golden outputs stay bit-identical), and so does one
whose plane has every rate at zero.
"""

from .plane import PASS, MessageVerdict, NetworkFaultPlane
from .policies import GatewayPolicy, HealthPolicy, RetryPolicy
from .registry_crash import RegistryCrash
from .script import FaultScript

__all__ = [
    "FaultScript",
    "GatewayPolicy",
    "HealthPolicy",
    "MessageVerdict",
    "NetworkFaultPlane",
    "PASS",
    "RegistryCrash",
    "RetryPolicy",
]
