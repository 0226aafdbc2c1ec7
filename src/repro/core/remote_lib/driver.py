"""The Remote OpenCL Library's driver: OpenCL calls → Device Manager RPC.

Implements the same :class:`~repro.ocl.objects.Driver` interface as the
native vendor runtime, which is the paper's *transparency* property: host
code cannot tell which one it is linked against.

Control-plane resource creation (buffers, kernels) is *eager-asynchronous*:
the call returns immediately with a handle whose remote identity resolves in
the background; command-queue operations referencing the handle are gated on
that resolution inside the ordered outbound stream, so timing and ordering
are preserved without infecting host code with extra blocking points.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...fpga.bitstream import BitstreamLibrary
from ...ocl.errors import (
    CLError,
    CL_BUILD_PROGRAM_FAILURE,
    CL_INVALID_KERNEL_NAME,
    CL_INVALID_VALUE,
    CL_MEM_OBJECT_ALLOCATION_FAILURE,
)
from ...ocl.objects import Command, CommandQueue, Driver, MemBuffer, Platform
from ...ocl.types import CommandType, DeviceType
from ...rpc import RpcError
from ...sim import Environment, Event
from ..device_manager import protocol
from .connection import Connection
from .events import RemoteEventMachine


class RemoteHandle:
    """Client-side handle to a server-side resource, resolved eagerly."""

    def __init__(self, env: Environment):
        self.remote_id: Optional[int] = None
        self.ready: Event = Event(env)
        self.error: Optional[Exception] = None
        self.freed = False

    def resolve(self, remote_id: int) -> None:
        self.remote_id = remote_id
        self.ready.settle(remote_id)

    def reject(self, error: Exception) -> None:
        self.error = error
        self.ready.fail(error)
        self.ready.defused = True


class RemoteDriver(Driver):
    """Driver backed by a BlastFunction Device Manager connection."""

    def __init__(
        self,
        connection: Connection,
        library: BitstreamLibrary,
        platform_info: Dict[str, Any],
        device_info: Dict[str, Any],
    ):
        self.env = connection.env
        self.connection = connection
        self.library = library
        self._platform_info = dict(platform_info)
        self._device_info = dict(device_info)
        self._kernel_handles: Dict[int, RemoteHandle] = {}

    # -- info ----------------------------------------------------------------
    def platform_info(self) -> Dict[str, str]:
        return dict(self._platform_info)

    def device_info(self) -> Dict[str, Any]:
        info = dict(self._device_info)
        info.setdefault("type", DeviceType.ACCELERATOR)
        return info

    def host_sync_delay(self) -> float:
        # Remote overheads are paid explicitly on the message paths.
        return 0.0

    # -- control plane ---------------------------------------------------------
    def create_buffer(self, buffer: MemBuffer) -> None:
        handle = RemoteHandle(self.env)
        buffer.handle = handle
        payload = {"size": buffer.size}
        if buffer._init_data is not None:
            # COPY_HOST_PTR: the manager stages the initial contents at
            # allocation (setup path; benchmarked flows use enqueued writes).
            payload["data"] = buffer._init_data
        result_event = self.connection.call_async(
            protocol.CREATE_BUFFER, payload
        )
        self._bind(result_event, handle, key="buffer_id")

    def release_buffer(self, buffer: MemBuffer) -> None:
        handle: RemoteHandle = buffer.handle
        if handle is None or handle.freed:
            return
        handle.freed = True

        def release_when_ready():
            if not handle.ready.triggered:
                try:
                    yield handle.ready
                except CLError:
                    return  # creation failed: nothing to release
            if handle.error is None:
                try:
                    yield from self.connection.call(
                        protocol.RELEASE_BUFFER,
                        {"buffer_id": handle.remote_id},
                    )
                except RpcError:
                    # The manager already dropped it (e.g. a full board
                    # reprogram invalidated every buffer): releasing a
                    # stale handle is not a client-visible error.
                    pass

        self.env.process(release_when_ready())

    def kernel_arg_count(self, kernel) -> int:
        """Arity from the shipped kernel metadata; registers the kernel
        server-side in the background."""
        binary = kernel.program.binary_name
        try:
            spec = self.library.get(binary).kernel(kernel.name)
        except KeyError as exc:
            raise CLError(CL_INVALID_KERNEL_NAME, str(exc)) from exc
        handle = RemoteHandle(self.env)
        self._kernel_handles[kernel.id] = handle
        result_event = self.connection.call_async(
            protocol.CREATE_KERNEL, {"binary": binary, "name": kernel.name}
        )
        self._bind(result_event, handle, key="kernel_id")
        return len(spec.args)

    def _bind(self, result_event: Event, handle: RemoteHandle,
              key: str) -> None:
        def binder():
            try:
                result = yield result_event
            except RpcError as exc:
                code = getattr(exc, "code", None)
                handle.reject(CLError(
                    code if code is not None
                    else CL_MEM_OBJECT_ALLOCATION_FAILURE,
                    str(exc),
                ))
            else:
                handle.resolve(int(result[key]))

        self.env.process(binder())

    # -- programming -------------------------------------------------------------
    def build_program(self, program):
        """Process: ask the manager to (re)configure the board."""
        try:
            yield from self.connection.call(
                protocol.BUILD_PROGRAM, {"binary": program.binary_name}
            )
        except RpcError as exc:
            code = getattr(exc, "code", None)
            raise CLError(
                code if code is not None else CL_BUILD_PROGRAM_FAILURE,
                str(exc),
            ) from exc
        return program

    # -- command plane ------------------------------------------------------------
    def create_queue(self, queue: CommandQueue) -> None:
        pass  # queues are identified by id in the wire protocol

    def release_queue(self, queue: CommandQueue) -> None:
        pass

    def enqueue(self, queue: CommandQueue, command: Command) -> None:
        event = command.event
        gates = [dep.completion for dep in command.wait_for
                 if not dep.is_complete] if command.wait_for else []

        if command.type is CommandType.WRITE_BUFFER:
            machine = RemoteEventMachine(
                self.connection, event,
                write_payload=command.data, write_nbytes=command.nbytes,
            )
            assert command.buffer is not None
            handle: RemoteHandle = command.buffer.handle
            payload = {"queue": queue.id, "nbytes": command.nbytes,
                       "offset": command.offset}
            self._send_op(protocol.ENQUEUE_WRITE, machine, payload,
                          gates, buffer_handle=handle)
        elif command.type is CommandType.READ_BUFFER:
            machine = RemoteEventMachine(self.connection, event)
            assert command.buffer is not None
            handle = command.buffer.handle
            payload = {"queue": queue.id, "nbytes": command.nbytes,
                       "offset": command.offset}
            self._send_op(protocol.ENQUEUE_READ, machine, payload,
                          gates, buffer_handle=handle)
        elif command.type is CommandType.COPY_BUFFER:
            machine = RemoteEventMachine(self.connection, event)
            assert command.buffer is not None
            assert command.dst_buffer is not None
            payload = {"queue": queue.id, "nbytes": command.nbytes,
                       "offset": command.offset,
                       "dst_offset": command.dst_offset}
            self._send_op(protocol.ENQUEUE_COPY, machine, payload, gates,
                          buffer_handle=command.buffer.handle,
                          dst_buffer_handle=command.dst_buffer.handle)
        elif command.type in (CommandType.NDRANGE_KERNEL, CommandType.TASK):
            machine = RemoteEventMachine(self.connection, event)
            assert command.kernel is not None
            kernel_handle = self._kernel_handles[command.kernel.id]
            arg_handles = []
            for value in command.kernel_args or []:
                if isinstance(value, MemBuffer):
                    arg_handles.append((protocol.ARG_BUFFER, value.handle))
                else:
                    arg_handles.append((protocol.ARG_SCALAR, value))
            payload = {"queue": queue.id}
            self._send_kernel_op(machine, payload, gates, kernel_handle,
                                 arg_handles)
        elif command.type in (CommandType.MARKER, CommandType.BARRIER):
            machine = RemoteEventMachine(self.connection, event)
            self._send_op(protocol.ENQUEUE_MARKER, machine,
                          {"queue": queue.id}, gates)
        else:
            raise CLError(CL_INVALID_VALUE,
                          f"unsupported command {command.type}")

    def flush(self, queue: CommandQueue) -> None:
        self.connection.stream_send(
            protocol.FLUSH, {"queue": queue.id}
        )

    def close(self) -> None:
        self.connection.close()

    # -- helpers -----------------------------------------------------------------
    def _send_op(self, method: str, machine: RemoteEventMachine,
                 payload: dict, gates: list,
                 buffer_handle: Optional[RemoteHandle] = None,
                 dst_buffer_handle: Optional[RemoteHandle] = None) -> None:
        self.connection.register_machine(machine)
        for handle in (buffer_handle, dst_buffer_handle):
            if handle is not None and not handle.ready.triggered:
                gates.append(handle.ready)

        def finalize() -> dict:
            # ``payload`` is this op's own dict: completed in place.
            if buffer_handle is not None:
                if buffer_handle.error is not None:
                    raise buffer_handle.error
                payload["buffer_id"] = buffer_handle.remote_id
            if dst_buffer_handle is not None:
                if dst_buffer_handle.error is not None:
                    raise dst_buffer_handle.error
                payload["dst_buffer_id"] = dst_buffer_handle.remote_id
            return payload

        self.connection.stream_send_op(
            method, finalize, tag=machine.tag, gates=gates
        )

    def _send_kernel_op(self, machine: RemoteEventMachine, payload: dict,
                        gates: list, kernel_handle: RemoteHandle,
                        arg_handles: list) -> None:
        self.connection.register_machine(machine)
        if not kernel_handle.ready.triggered:
            gates.append(kernel_handle.ready)
        for kind, value in arg_handles:
            if kind == protocol.ARG_BUFFER and not value.ready.triggered:
                gates.append(value.ready)

        def finalize() -> dict:
            if kernel_handle.error is not None:
                raise kernel_handle.error
            args = []
            for kind, value in arg_handles:
                if kind == protocol.ARG_BUFFER:
                    if value.error is not None:
                        raise value.error
                    args.append((kind, value.remote_id))
                else:
                    args.append((kind, value))
            payload["kernel_id"] = kernel_handle.remote_id
            payload["args"] = args
            return payload

        self.connection.stream_send_op(
            protocol.ENQUEUE_KERNEL, finalize, tag=machine.tag, gates=gates,
        )
