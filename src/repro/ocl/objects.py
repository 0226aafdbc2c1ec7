"""The OpenCL host object model.

This is the API surface the paper calls *transparent*: application host code
is written once against these objects and runs unchanged on either

* the **native** driver (:mod:`repro.ocl.native`) — direct access to a local
  :class:`~repro.fpga.board.FPGABoard`, modelling the vendor runtime; or
* the **remote** driver (:mod:`repro.core.remote_lib`) — BlastFunction's
  Remote OpenCL Library, which forwards every call to a Device Manager.

Blocking semantics in the discrete-event world: any method documented as a
*process* must be driven with ``yield from`` inside a simulation process;
methods returning a :class:`CLEvent` are asynchronous and the caller may
``yield event.wait()`` later, exactly mirroring the blocking/non-blocking
split of the OpenCL specification.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..fpga.ddr import materialize
from ..sim import AllOf, Environment, Event
from .errors import (
    CLError,
    CL_INVALID_ARG_INDEX,
    CL_INVALID_CONTEXT,
    CL_INVALID_COMMAND_QUEUE,
    CL_INVALID_EVENT_WAIT_LIST,
    CL_INVALID_KERNEL_ARGS,
    CL_INVALID_MEM_OBJECT,
    CL_INVALID_PROGRAM_EXECUTABLE,
    CL_INVALID_VALUE,
    check,
)
from .types import (
    CommandType,
    DeviceInfo,
    DeviceType,
    ExecutionStatus,
    MemFlags,
    PlatformInfo,
    ProfilingInfo,
    QueueProperties,
)

#: The profiling counter each execution status stamps, indexed by status
#: (COMPLETE = 0 ... QUEUED = 3).
_STATUS_STAMPS = (
    ProfilingInfo.END,
    ProfilingInfo.START,
    ProfilingInfo.SUBMIT,
    None,
)


class CLEvent:
    """An OpenCL event: status, profiling timestamps, completion waiting.

    Wraps one simulation event (:attr:`completion`) that triggers when the
    command reaches ``COMPLETE`` (value = the command's result, e.g. the
    bytes of a read) or fails (value = :class:`CLError`).  Supports
    ``clSetEventCallback``-style status callbacks and
    ``clGetEventProfilingInfo``-style timestamps.
    """

    #: One per command: no per-instance ``__dict__``.
    __slots__ = ("id", "env", "command_type", "_status", "_error",
                 "profiling", "completion", "value", "_callbacks")

    def __init__(self, env: Environment, command_type: CommandType):
        self.id = env.new_id("ocl")
        self.env = env
        self.command_type = command_type
        self._status = ExecutionStatus.QUEUED
        self._error: Optional[CLError] = None
        self.profiling: Dict[ProfilingInfo, float] = {
            ProfilingInfo.QUEUED: env.now
        }
        self.completion: Event = Event(env)
        self.value: Any = None
        self._callbacks: List[Callable[["CLEvent", int], None]] = []

    # -- status ------------------------------------------------------------
    @property
    def status(self) -> int:
        """Current execution status (negative = error code)."""
        if self._error is not None:
            return self._error.code
        return int(self._status)

    @property
    def is_complete(self) -> bool:
        return self._status is ExecutionStatus.COMPLETE or self._error is not None

    def on_status_change(
        self, callback: Callable[["CLEvent", int], None]
    ) -> None:
        """Register a ``clSetEventCallback``-style callback."""
        self._callbacks.append(callback)

    def _fire_callbacks(self) -> None:
        for callback in list(self._callbacks):
            callback(self, self.status)

    def set_status(self, status: ExecutionStatus) -> None:
        """Advance the event's status (stamps profiling timestamps)."""
        # COMPLETE is the lowest status, so no status advances past it.
        if status >= self._status or self._error is not None:
            if (self._error is not None
                    or self._status is ExecutionStatus.COMPLETE):
                raise CLError(CL_INVALID_VALUE, "event already finished")
            raise CLError(
                CL_INVALID_VALUE,
                f"status may only advance ({self._status} -> {status})",
            )
        self._status = status
        stamp = _STATUS_STAMPS[status]
        if stamp is not None:
            self.profiling[stamp] = self.env.now
        if self._callbacks:
            self._fire_callbacks()
        if status is ExecutionStatus.COMPLETE:
            # Host code waits on few completions (a blocking read's, handed
            # off to its waiter); the rest settle without an event.
            self.completion.settle(self.value)

    def complete(self, value: Any = None) -> None:
        """Mark the command complete with an optional result value.

        A read's live device view is materialized here — the user-facing
        boundary of the zero-copy data plane, and the single real copy of
        a functional read's round trip.  Zero-page views (timing-only
        reads) pass through uncopied.
        """
        self.value = materialize(value)
        self.set_status(ExecutionStatus.COMPLETE)

    def fail(self, error: CLError) -> None:
        """Mark the command failed; waiters receive the error."""
        if self.is_complete:
            return
        self._error = error
        self.profiling[ProfilingInfo.END] = self.env.now
        self.completion.fail(error)
        # Nobody is obliged to wait on a failed event; don't crash the sim.
        self.completion.defused = True
        self._fire_callbacks()

    # -- waiting -------------------------------------------------------------
    def wait(self) -> Event:
        """Simulation event to ``yield`` on until completion."""
        return self.completion

    def get_profiling_info(self, param: ProfilingInfo) -> float:
        """``clGetEventProfilingInfo`` (seconds, not nanoseconds)."""
        try:
            return self.profiling[param]
        except KeyError:
            from .errors import CL_PROFILING_INFO_NOT_AVAILABLE

            raise CLError(
                CL_PROFILING_INFO_NOT_AVAILABLE,
                f"{param.name} not stamped yet for {self!r}",
            ) from None

    def duration(self) -> float:
        """Execution time (START→END), per clGetEventProfilingInfo."""
        try:
            return (
                self.profiling[ProfilingInfo.END]
                - self.profiling[ProfilingInfo.START]
            )
        except KeyError:
            raise CLError(
                CL_INVALID_VALUE, "profiling info not yet available"
            ) from None

    def __repr__(self) -> str:
        return (
            f"<CLEvent #{self.id} {self.command_type.name} "
            f"status={self.status}>"
        )


def wait_for_events(events: Sequence[CLEvent]) -> Event:
    """``clWaitForEvents``: a simulation event for *all* of ``events``."""
    if not events:
        raise CLError(CL_INVALID_EVENT_WAIT_LIST, "empty wait list")
    env = events[0].env
    return AllOf(env, [event.completion for event in events])


@dataclass(slots=True)
class Command:
    """One command-queue entry, as handed to a driver."""

    type: CommandType
    event: CLEvent
    buffer: Optional["MemBuffer"] = None
    dst_buffer: Optional["MemBuffer"] = None   # copy-buffer destination
    data: Optional[bytes] = None
    nbytes: int = 0
    offset: int = 0
    dst_offset: int = 0
    kernel: Optional["Kernel"] = None
    kernel_args: Optional[List[Any]] = None
    global_size: Optional[tuple] = None
    wait_for: tuple = ()


class Driver(abc.ABC):
    """Backend interface platforms delegate to (vendor runtime or remote)."""

    env: Environment

    # -- info --------------------------------------------------------------
    @abc.abstractmethod
    def platform_info(self) -> Dict[str, str]:
        """CL_PLATFORM_* fields."""

    @abc.abstractmethod
    def device_info(self) -> Dict[str, Any]:
        """CL_DEVICE_* fields for the (single) device behind this driver."""

    # -- control plane (synchronous; zero simulated time) ---------------------
    @abc.abstractmethod
    def create_buffer(self, buffer: "MemBuffer") -> None:
        """Allocate device memory and bind ``buffer.handle``."""

    @abc.abstractmethod
    def release_buffer(self, buffer: "MemBuffer") -> None:
        """Free device memory."""

    @abc.abstractmethod
    def kernel_arg_count(self, kernel: "Kernel") -> int:
        """Arity of a kernel (validates the kernel name)."""

    # -- programming (process: may reconfigure the board) -----------------------
    @abc.abstractmethod
    def build_program(self, program: "Program"):
        """Process: make ``program.binary_name`` executable on the device."""

    # -- command plane -------------------------------------------------------
    @abc.abstractmethod
    def create_queue(self, queue: "CommandQueue") -> None:
        """Set up driver-side state for a new command queue."""

    @abc.abstractmethod
    def release_queue(self, queue: "CommandQueue") -> None:
        """Tear down driver-side state for a queue."""

    @abc.abstractmethod
    def enqueue(self, queue: "CommandQueue", command: Command) -> None:
        """Accept a command for in-order execution."""

    @abc.abstractmethod
    def flush(self, queue: "CommandQueue") -> None:
        """``clFlush``: guarantee eventual submission of enqueued work."""

    def host_sync_delay(self) -> float:
        """Host-side overhead of returning from a blocking wait."""
        return 0.0

    def close(self) -> None:
        """Release driver-wide resources (connections, workers)."""


class Platform:
    """An OpenCL platform (one per runtime: native vendor or BlastFunction)."""

    def __init__(self, driver: Driver):
        self.id = driver.env.new_id("ocl")
        self.driver = driver
        info = driver.platform_info()
        self.name = info.get("name", "Unknown platform")
        self.vendor = info.get("vendor", "Unknown vendor")
        self.version = info.get("version", "OpenCL 1.2")
        self.devices = [Device(self, driver)]

    def get_devices(
        self, device_type: DeviceType = DeviceType.ALL
    ) -> List["Device"]:
        """``clGetDeviceIDs``."""
        return [
            device
            for device in self.devices
            if device_type is DeviceType.ALL or device.type & device_type
        ]

    def get_info(self, param: PlatformInfo) -> str:
        """``clGetPlatformInfo``."""
        values = {
            PlatformInfo.PROFILE: "EMBEDDED_PROFILE",
            PlatformInfo.VERSION: self.version,
            PlatformInfo.NAME: self.name,
            PlatformInfo.VENDOR: self.vendor,
            PlatformInfo.EXTENSIONS: "",
        }
        try:
            return values[param]
        except KeyError:
            raise CLError(CL_INVALID_VALUE,
                          f"unknown platform info {param!r}") from None

    def __repr__(self) -> str:
        return f"<Platform {self.name!r}>"


class Device:
    """An OpenCL device (an FPGA accelerator board)."""

    def __init__(self, platform: Platform, driver: Driver):
        self.id = driver.env.new_id("ocl")
        self.platform = platform
        self.driver = driver
        info = driver.device_info()
        self.name = info.get("name", "Unknown device")
        self.type = info.get("type", DeviceType.ACCELERATOR)
        self.global_mem_size = info.get("global_mem_size", 0)
        self.vendor = info.get("vendor", platform.vendor)

    def get_info(self, param: DeviceInfo):
        """``clGetDeviceInfo``."""
        values = {
            DeviceInfo.TYPE: self.type,
            DeviceInfo.NAME: self.name,
            DeviceInfo.VENDOR: self.vendor,
            DeviceInfo.GLOBAL_MEM_SIZE: self.global_mem_size,
            DeviceInfo.AVAILABLE: True,
            DeviceInfo.PLATFORM: self.platform,
        }
        try:
            return values[param]
        except KeyError:
            raise CLError(CL_INVALID_VALUE,
                          f"unknown device info {param!r}") from None

    def __repr__(self) -> str:
        return f"<Device {self.name!r}>"


class Context:
    """``clCreateContext``: owns buffers, programs and queues."""

    def __init__(self, devices: Sequence[Device]):
        check(bool(devices), CL_INVALID_VALUE, "context needs devices")
        platforms = {device.platform for device in devices}
        check(len(platforms) == 1, CL_INVALID_CONTEXT,
              "devices span multiple platforms")
        self.devices = list(devices)
        self.driver = devices[0].driver
        self.env = self.driver.env
        self.id = self.env.new_id("ocl")
        self.buffers: List[MemBuffer] = []
        self.queues: List[CommandQueue] = []
        self.released = False

    def create_buffer(
        self,
        size: int,
        flags: MemFlags = MemFlags.READ_WRITE,
        hostbuf: Optional[bytes] = None,
    ) -> "MemBuffer":
        """``clCreateBuffer``."""
        self._check_live()
        buffer = MemBuffer(self, size, flags, hostbuf)
        self.buffers.append(buffer)
        return buffer

    def create_queue(
        self,
        device: Optional[Device] = None,
        properties: QueueProperties = QueueProperties.PROFILING_ENABLE,
    ) -> "CommandQueue":
        """``clCreateCommandQueue``."""
        self._check_live()
        queue = CommandQueue(self, device or self.devices[0], properties)
        self.queues.append(queue)
        return queue

    def create_program(self, binary_name: str) -> "Program":
        """``clCreateProgramWithBinary`` (binary = bitstream name)."""
        self._check_live()
        return Program(self, binary_name)

    def release(self) -> None:
        """``clReleaseContext``: frees all owned resources."""
        if self.released:
            return
        for queue in self.queues:
            queue.release()
        for buffer in self.buffers:
            if not buffer.released:
                buffer.release()
        self.released = True

    def _check_live(self) -> None:
        check(not self.released, CL_INVALID_CONTEXT, "context released")


class MemBuffer:
    """``cl_mem``: a device-memory buffer."""

    def __init__(
        self,
        context: Context,
        size: int,
        flags: MemFlags = MemFlags.READ_WRITE,
        hostbuf: Optional[bytes] = None,
    ):
        check(size > 0, CL_INVALID_VALUE, "buffer size must be positive")
        if flags & MemFlags.COPY_HOST_PTR:
            check(hostbuf is not None, CL_INVALID_VALUE,
                  "COPY_HOST_PTR requires host data")
        self.id = context.env.new_id("ocl")
        self.context = context
        self.size = size
        self.flags = flags
        self.handle: Any = None   # driver-side identity
        self.released = False
        if hostbuf is not None and flags & MemFlags.COPY_HOST_PTR:
            # Initialisation copy, applied by the driver at allocation.
            # It is a setup-path convenience modelled at zero simulated
            # time; benchmarked code paths always use explicit enqueued
            # writes (see DESIGN.md).
            self._init_data: Optional[bytes] = bytes(
                _as_payload(hostbuf)[:size]
            )
        else:
            self._init_data = None
        context.driver.create_buffer(self)

    def release(self) -> None:
        """``clReleaseMemObject``."""
        if not self.released:
            self.context.driver.release_buffer(self)
            self.released = True

    def _check_live(self) -> None:
        if self.released:
            raise CLError(CL_INVALID_MEM_OBJECT, "buffer released")

    def __repr__(self) -> str:
        return f"<MemBuffer #{self.id} size={self.size}>"


class Program:
    """``cl_program``: a bitstream handle; building may reconfigure."""

    def __init__(self, context: Context, binary_name: str):
        self.id = context.env.new_id("ocl")
        self.context = context
        self.binary_name = binary_name
        self.built = False

    def build(self):
        """Process (``clBuildProgram``): program the board if necessary."""
        yield from self.context.driver.build_program(self)
        self.built = True
        return self

    def create_kernel(self, name: str) -> "Kernel":
        """``clCreateKernel``."""
        check(self.built, CL_INVALID_PROGRAM_EXECUTABLE,
              f"program {self.binary_name!r} not built")
        return Kernel(self, name)


class Kernel:
    """``cl_kernel``: a kernel with positional arguments."""

    def __init__(self, program: Program, name: str):
        self.id = program.context.env.new_id("ocl")
        self.program = program
        self.name = name
        self.context = program.context
        self._arg_count = self.context.driver.kernel_arg_count(self)
        self._args: List[Any] = [_UNSET] * self._arg_count

    @property
    def arg_count(self) -> int:
        return self._arg_count

    def set_arg(self, index: int, value: Any) -> None:
        """``clSetKernelArg``."""
        check(0 <= index < self._arg_count, CL_INVALID_ARG_INDEX,
              f"arg {index} of {self.name} (arity {self._arg_count})")
        if isinstance(value, MemBuffer):
            value._check_live()
            check(value.context is self.context, CL_INVALID_CONTEXT,
                  "buffer belongs to another context")
        self._args[index] = value

    def set_args(self, *values: Any) -> None:
        """Set all arguments positionally."""
        check(len(values) == self._arg_count, CL_INVALID_KERNEL_ARGS,
              f"{self.name} expects {self._arg_count} args")
        for index, value in enumerate(values):
            self.set_arg(index, value)

    def snapshot_args(self) -> List[Any]:
        """Copy current args (captured at enqueue time)."""
        if any(value is _UNSET for value in self._args):
            missing = [i for i, v in enumerate(self._args) if v is _UNSET]
            raise CLError(
                CL_INVALID_KERNEL_ARGS,
                f"unset args {missing} for kernel {self.name}",
            )
        return list(self._args)

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r}>"


class _Unset:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unset>"


_UNSET = _Unset()


class CommandQueue:
    """``cl_command_queue``: an in-order stream of device commands.

    ``OUT_OF_ORDER_EXEC_MODE`` is accepted but executed in-order (the Intel
    FPGA runtime of the paper behaves the same way); use multiple queues for
    parallelism, as PipeCNN does.
    """

    def __init__(
        self,
        context: Context,
        device: Device,
        properties: QueueProperties = QueueProperties.PROFILING_ENABLE,
    ):
        if device not in context.devices:
            raise CLError(CL_INVALID_VALUE, "device not in context")
        self.id = context.env.new_id("ocl")
        self.context = context
        self.device = device
        self.properties = properties
        self.env = context.env
        self.driver = context.driver
        self.released = False
        self.driver.create_queue(self)

    # -- enqueue (asynchronous) -------------------------------------------
    def enqueue_write_buffer(
        self,
        buffer: MemBuffer,
        data: Optional[bytes | "np.ndarray"] = None,
        nbytes: Optional[int] = None,
        offset: int = 0,
        wait_for: Sequence[CLEvent] = (),
    ) -> CLEvent:
        """``clEnqueueWriteBuffer`` (non-blocking)."""
        self._check_live()
        buffer._check_live()
        if buffer.context is not self.context:
            raise CLError(CL_INVALID_CONTEXT,
                          "buffer belongs to another context")
        payload = _as_payload(data)
        if nbytes is None:
            nbytes = len(payload) if payload is not None else buffer.size
        if offset < 0 or offset + nbytes > buffer.size:
            raise CLError(CL_INVALID_VALUE, "write outside buffer bounds")
        event = CLEvent(self.env, CommandType.WRITE_BUFFER)
        command = Command(
            CommandType.WRITE_BUFFER, event, buffer=buffer, data=payload,
            nbytes=nbytes, offset=offset, wait_for=tuple(wait_for),
        )
        self.driver.enqueue(self, command)
        return event

    def enqueue_read_buffer(
        self,
        buffer: MemBuffer,
        nbytes: Optional[int] = None,
        offset: int = 0,
        wait_for: Sequence[CLEvent] = (),
    ) -> CLEvent:
        """``clEnqueueReadBuffer`` (non-blocking); event value = bytes."""
        self._check_live()
        buffer._check_live()
        if buffer.context is not self.context:
            raise CLError(CL_INVALID_CONTEXT,
                          "buffer belongs to another context")
        if nbytes is None:
            nbytes = buffer.size - offset
        if offset < 0 or offset + nbytes > buffer.size:
            raise CLError(CL_INVALID_VALUE, "read outside buffer bounds")
        event = CLEvent(self.env, CommandType.READ_BUFFER)
        command = Command(
            CommandType.READ_BUFFER, event, buffer=buffer, nbytes=nbytes,
            offset=offset, wait_for=tuple(wait_for),
        )
        self.driver.enqueue(self, command)
        return event

    def enqueue_copy_buffer(
        self,
        src: MemBuffer,
        dst: MemBuffer,
        nbytes: Optional[int] = None,
        src_offset: int = 0,
        dst_offset: int = 0,
        wait_for: Sequence[CLEvent] = (),
    ) -> CLEvent:
        """``clEnqueueCopyBuffer`` (non-blocking, device-internal)."""
        self._check_live()
        src._check_live()
        dst._check_live()
        if src.context is not self.context or dst.context is not self.context:
            raise CLError(CL_INVALID_CONTEXT,
                          "buffer belongs to another context")
        if nbytes is None:
            nbytes = min(src.size - src_offset, dst.size - dst_offset)
        if (src_offset < 0 or src_offset + nbytes > src.size
                or dst_offset < 0 or dst_offset + nbytes > dst.size):
            raise CLError(CL_INVALID_VALUE, "copy outside buffer bounds")
        event = CLEvent(self.env, CommandType.COPY_BUFFER)
        command = Command(
            CommandType.COPY_BUFFER, event, buffer=src, dst_buffer=dst,
            nbytes=nbytes, offset=src_offset, dst_offset=dst_offset,
            wait_for=tuple(wait_for),
        )
        self.driver.enqueue(self, command)
        return event

    def enqueue_kernel(
        self,
        kernel: Kernel,
        global_size: Optional[tuple] = None,
        wait_for: Sequence[CLEvent] = (),
    ) -> CLEvent:
        """``clEnqueueNDRangeKernel`` / ``clEnqueueTask``."""
        self._check_live()
        if kernel.context is not self.context:
            raise CLError(CL_INVALID_CONTEXT,
                          "kernel belongs to another context")
        args = kernel.snapshot_args()
        command_type = (
            CommandType.TASK if global_size is None
            else CommandType.NDRANGE_KERNEL
        )
        event = CLEvent(self.env, command_type)
        command = Command(
            command_type, event, kernel=kernel, kernel_args=args,
            global_size=global_size, wait_for=tuple(wait_for),
        )
        self.driver.enqueue(self, command)
        return event

    def enqueue_marker(self) -> CLEvent:
        """``clEnqueueMarker``: completes when all prior commands complete."""
        self._check_live()
        event = CLEvent(self.env, CommandType.MARKER)
        self.driver.enqueue(self, Command(CommandType.MARKER, event))
        return event

    def enqueue_barrier(self) -> CLEvent:
        """``clEnqueueBarrier`` (same as a marker for an in-order queue).

        Like ``clFinish``/``clFlush``, a barrier causes BlastFunction's
        Device Manager to close and submit the current task.
        """
        self._check_live()
        event = CLEvent(self.env, CommandType.BARRIER)
        command = Command(CommandType.BARRIER, event)
        self.driver.enqueue(self, command)
        self.driver.flush(self)
        return event

    # -- flush / finish -------------------------------------------------------
    def flush(self) -> None:
        """``clFlush``."""
        self._check_live()
        self.driver.flush(self)

    def finish(self):
        """Process (``clFinish``): wait until every enqueued command ran."""
        self._check_live()
        marker = self.enqueue_marker()
        self.driver.flush(self)
        yield marker.wait()
        delay = self.driver.host_sync_delay()
        if delay > 0:
            yield self.env.timeout(delay)

    # -- blocking conveniences (each is a process) ---------------------------
    def write_buffer(self, buffer: MemBuffer, data=None, nbytes=None,
                     offset: int = 0):
        """Process: blocking ``clEnqueueWriteBuffer``."""
        event = self.enqueue_write_buffer(buffer, data, nbytes, offset)
        self.driver.flush(self)
        yield event.wait()
        delay = self.driver.host_sync_delay()
        if delay > 0:
            yield self.env.timeout(delay)
        return event

    def read_buffer(self, buffer: MemBuffer, nbytes=None, offset: int = 0):
        """Process: blocking ``clEnqueueReadBuffer``; returns the bytes."""
        event = self.enqueue_read_buffer(buffer, nbytes, offset)
        self.driver.flush(self)
        yield event.wait()
        delay = self.driver.host_sync_delay()
        if delay > 0:
            yield self.env.timeout(delay)
        return event.value

    def run_kernel(self, kernel: Kernel, global_size=None):
        """Process: enqueue a kernel and wait for it."""
        event = self.enqueue_kernel(kernel, global_size)
        self.driver.flush(self)
        yield event.wait()
        delay = self.driver.host_sync_delay()
        if delay > 0:
            yield self.env.timeout(delay)
        return event

    def release(self) -> None:
        """``clReleaseCommandQueue``."""
        if not self.released:
            self.driver.release_queue(self)
            self.released = True

    def _check_live(self) -> None:
        # The queue's checks raise inline, not through check(): they run
        # for every command.
        if self.released:
            raise CLError(CL_INVALID_COMMAND_QUEUE, "queue released")

    def __repr__(self) -> str:
        return f"<CommandQueue #{self.id} on {self.device.name!r}>"


def _as_payload(data):
    """Zero-copy adapter: normalize host data to a flat byte-oriented view.

    Accepts bytes-like objects, memoryviews and numpy arrays (anything
    exposing the buffer protocol).  ``bytes`` pass through as-is; everything
    else becomes a ``memoryview`` cast to unsigned bytes — *no copy is
    made*, mirroring real OpenCL where a non-blocking write captures the
    host pointer and requires the memory to stay unchanged until the
    command completes.  Only non-contiguous inputs pay a compaction copy.
    """
    if data is None or isinstance(data, bytes):
        return data
    try:
        view = memoryview(data)
    except TypeError:
        tobytes = getattr(data, "tobytes", None)
        if tobytes is not None:
            return tobytes()
        raise CLError(CL_INVALID_VALUE,
                      f"unsupported host data {type(data)}") from None
    if view.ndim != 1 or view.format != "B":
        try:
            view = view.cast("B")
        except TypeError:
            return view.tobytes()  # non-contiguous: copy is unavoidable
    return view
