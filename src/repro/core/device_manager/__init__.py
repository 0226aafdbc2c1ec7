"""The Device Manager (server side of BlastFunction's sharing mechanism)."""

from . import protocol
from .manager import ClientSession, DeviceManager, DeviceManagerError
from .schedulers import (
    FIFOScheduler,
    SJFScheduler,
    TaskScheduler,
    WFQScheduler,
    make_scheduler,
)
from .tasks import Operation, OpType, Task, TaskAccumulator

__all__ = [
    "ClientSession",
    "DeviceManager",
    "DeviceManagerError",
    "FIFOScheduler",
    "Operation",
    "OpType",
    "SJFScheduler",
    "Task",
    "TaskAccumulator",
    "TaskScheduler",
    "WFQScheduler",
    "make_scheduler",
    "protocol",
]
