"""OpenCL host library (object model + native driver).

The *transparent layer* of the paper: applications written against this API
run unchanged on the native vendor runtime
(:func:`~repro.ocl.native.native_platform`) or on BlastFunction's Remote
OpenCL Library (:func:`repro.core.remote_lib.remote_platform`).
"""

from . import errors
from .errors import CLError, check, error_name
from .native import NativeDriver, NativeDriverProfile, native_platform
from .objects import (
    CLEvent,
    Command,
    CommandQueue,
    Context,
    Device,
    Driver,
    Kernel,
    MemBuffer,
    Platform,
    Program,
    wait_for_events,
)
from .types import (
    CommandType,
    DeviceType,
    ExecutionStatus,
    MemFlags,
    ProfilingInfo,
    QueueProperties,
)

__all__ = [
    "CLError",
    "CLEvent",
    "Command",
    "CommandQueue",
    "CommandType",
    "Context",
    "Device",
    "DeviceType",
    "Driver",
    "ExecutionStatus",
    "Kernel",
    "MemBuffer",
    "MemFlags",
    "NativeDriver",
    "NativeDriverProfile",
    "Platform",
    "ProfilingInfo",
    "Program",
    "QueueProperties",
    "check",
    "error_name",
    "errors",
    "native_platform",
    "wait_for_events",
]
