"""Deterministic discrete-event simulation kernel.

This is the substrate every other subsystem of the BlastFunction
reproduction runs on: FPGA boards, PCIe links, gRPC channels, the Device
Manager worker, Kubernetes, the serverless gateway and the load generators
are all processes inside one :class:`Environment`.

The kernel follows the SimPy process-interaction model (generators yielding
events) but is self-contained, dependency-free and tuned for the workloads
in this repository.
"""

from .core import HANDOFF_DEPTH, EmptySchedule, Environment, Process
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Initialize,
    Interrupt,
    SimError,
    Timeout,
)
from .watchdog import WatchdogError, pending_summary, run_guarded
from .wheel import TimerWheel, WheelSubscription
from .resources import (
    PriorityItem,
    PriorityStore,
    Request,
    Resource,
    Store,
)

__all__ = [
    "HANDOFF_DEPTH",
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Initialize",
    "Interrupt",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "Request",
    "Resource",
    "SimError",
    "Store",
    "Timeout",
    "TimerWheel",
    "WatchdogError",
    "WheelSubscription",
    "pending_summary",
    "run_guarded",
]
