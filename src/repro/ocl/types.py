"""OpenCL enumerations: command types, execution statuses, flags.

Numeric values follow the OpenCL 1.2 headers where one exists.
"""

from __future__ import annotations

import enum


class CommandType(enum.Enum):
    """What a command queue entry does (cl_command_type)."""

    READ_BUFFER = 0x11F3
    WRITE_BUFFER = 0x11F2
    COPY_BUFFER = 0x11F5
    NDRANGE_KERNEL = 0x11F0
    TASK = 0x11F1
    MARKER = 0x11F4
    BARRIER = 0x1205


class ExecutionStatus(enum.IntEnum):
    """Event execution status (cl_int command execution status).

    Ordered so that a *lower* value means *further along*: QUEUED(3) →
    SUBMITTED(2) → RUNNING(1) → COMPLETE(0); negative values are errors.
    """

    QUEUED = 3
    SUBMITTED = 2
    RUNNING = 1
    COMPLETE = 0


class MemFlags(enum.IntFlag):
    """Buffer creation flags (cl_mem_flags)."""

    READ_WRITE = 1 << 0
    WRITE_ONLY = 1 << 1
    READ_ONLY = 1 << 2
    COPY_HOST_PTR = 1 << 5


class QueueProperties(enum.IntFlag):
    """Command-queue properties (cl_command_queue_properties)."""

    NONE = 0
    OUT_OF_ORDER_EXEC_MODE = 1 << 0
    PROFILING_ENABLE = 1 << 1


class DeviceType(enum.IntFlag):
    """Device classification (cl_device_type)."""

    DEFAULT = 1 << 0
    CPU = 1 << 1
    GPU = 1 << 2
    ACCELERATOR = 1 << 3
    ALL = 0xFFFFFFFF


class ProfilingInfo(enum.IntEnum):
    """Event profiling counters (cl_profiling_info).

    An ``IntEnum`` like the ``cl_uint`` it models: the keys of every
    event's ``profiling`` dict hash in C, not through ``Enum.__hash__``.
    """

    QUEUED = 0x1280
    SUBMIT = 0x1281
    START = 0x1282
    END = 0x1283
