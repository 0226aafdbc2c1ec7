"""The FPGA board: programming, DMA, kernel execution, busy accounting.

One :class:`FPGABoard` models a Terasic DE5a-Net attached to a node.  The
board offers three externally visible activities, all simulation processes:

* :meth:`program` — full reconfiguration with a bitstream (exclusive,
  seconds-long, wipes device memory);
* :meth:`dma_write` / :meth:`dma_read` — host↔DDR transfers through the
  PCIe link;
* :meth:`execute` — run a kernel from the programmed bitstream (the board
  executes one kernel at a time: the time-sharing unit of the paper).

Every busy interval (DMA or compute) is reported to registered listeners;
the Device Manager uses this to export the *FPGA time utilization* metric
("time spent by the device computing OpenCL calls in a given amount of
time").

A caller that alone uses the board may issue a DMA, copy or kernel step
``lead`` seconds before it starts (:class:`BoardStep`): one event where a
wait followed by the step would cost two.  Whatever could change what
such a step read or was granted first returns it to that two-step chain
(:meth:`FPGABoard.split`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..kernels.base import AcceleratorKernel
from ..sim import Environment, Event, Request, Resource
from .bitstream import Bitstream
from .ddr import (
    DeviceBuffer,
    MemoryAllocator,
    as_uint8_view,
    payload_nbytes,
    zero_view,
)
from .hwspec import BoardSpec, DE5A_NET, PCIeSpec, PCIE_GEN3_X8
from .pcie import PCIeLink

#: Listener signature: (busy_seconds, activity) with activity in
#: {"dma", "kernel", "reconfigure"}.
BusyListener = Callable[[float, str], None]


class BoardError(RuntimeError):
    """Board misuse: executing without a bitstream, unknown kernel, ..."""


class KernelFault(RuntimeError):
    """A kernel run failed on the device (injected or hardware fault)."""


class BoardUnavailableError(BoardError):
    """The board is locked up (hardware wedge) until recovered."""


class ReconfigurationError(BoardError):
    """A (partial) reconfiguration failed, leaving the target unprogrammed."""


class StepSplit(Exception):
    """Thrown into the process of a :class:`BoardStep` split before its
    start: the process resumes at the start, with nothing done."""


class BoardStep(Event):
    """The one event of a board step issued ahead of its start.

    Issued at ``now`` with its ``grant`` (of the link or a slot, if the
    step needs one) already held, it ends at ``start + duration``, the
    float a ``lead`` Timeout followed by the step's Timeout ends on.
    :meth:`split` turns it back into the first of those two events.
    """

    __slots__ = ("start", "grant")

    def __init__(self, env: Environment, start: float, duration: float,
                 grant: Optional[Request]):
        super().__init__(env)
        self.start = start
        self.grant = grant
        self._ok = True
        env.schedule_at(self, start + duration)

    def split(self) -> None:
        """Release the grant and resume the waiter at ``start`` with
        :class:`StepSplit`, unless the step is already under way: from its
        start on it holds what the two-step chain would hold."""
        env = self.env
        if env.now >= self.start:
            return
        if self.grant is not None:
            self.grant.resource.release(self.grant)
        self._ok = False
        self._value = StepSplit()
        self.defused = True
        env.retime(self, self.start)


class FPGABoard:
    """A single FPGA accelerator board."""

    def __init__(
        self,
        env: Environment,
        name: str = "fpga0",
        spec: BoardSpec = DE5A_NET,
        pcie: PCIeSpec = PCIE_GEN3_X8,
        functional: bool = True,
    ):
        self.env = env
        self.name = name
        self.spec = spec
        self.functional = functional
        self.link = PCIeLink(env, pcie)
        self.memory = MemoryAllocator(spec.memory_bytes, functional)
        #: One partial-reconfiguration slot per accelerator region; each
        #: slot executes one kernel at a time.  Classic boards have a
        #: single slot, making kernel execution fully exclusive.
        self.slots: List[Optional[Bitstream]] = [None] * spec.pr_slots
        self._slot_locks = [Resource(env, capacity=1)
                            for _ in range(spec.pr_slots)]
        self._locks = (self.link.channel, *self._slot_locks)
        self.busy_seconds = 0.0
        self.kernel_runs = 0
        self.reconfigurations = 0
        self.partial_reconfigurations = 0
        self._busy_listeners: List[BusyListener] = []
        #: Fault injection hook for robustness testing: called before every
        #: kernel run as ``fault_injector(kernel_name, run_index)``; a
        #: truthy return makes the run fail with :class:`KernelFault` after
        #: consuming its device time (a hang/abort detected at completion).
        #: The special return ``"hang"`` models a wedged kernel: the abort
        #: only surfaces after :attr:`hang_detect_seconds` more.
        self.fault_injector: Optional[Callable[[str, int], bool]] = None
        #: Injected reconfiguration failures: called as
        #: ``reconfiguration_injector(bitstream_name)``; truthy → the
        #: reconfiguration consumes its full time, then fails and leaves
        #: the target region unprogrammed.
        self.reconfiguration_injector: Optional[Callable[[str], bool]] = None
        #: Watchdog latency for a hung kernel, seconds.
        self.hang_detect_seconds = 1.0
        #: False while the board is locked up (see :meth:`lock_up`).
        self.alive = True
        self.lockups = 0
        #: The last step issued with a lead; :meth:`split` reads it.
        self._lead: Optional[BoardStep] = None

    @property
    def slot_count(self) -> int:
        return self.spec.pr_slots

    @property
    def compute(self) -> Resource:
        """The primary slot's execution lock (single-slot compatibility)."""
        return self._slot_locks[0]

    @property
    def bitstream(self) -> Optional[Bitstream]:
        """The primary slot's image (single-slot compatibility)."""
        return self.slots[0]

    # -- observation -------------------------------------------------------
    def add_busy_listener(self, listener: BusyListener) -> None:
        """Register a callback invoked after every busy interval."""
        self._busy_listeners.append(listener)

    def _account(self, seconds: float, activity: str) -> None:
        self.busy_seconds += seconds
        for listener in self._busy_listeners:
            listener(seconds, activity)

    @property
    def programmed(self) -> bool:
        return any(slot is not None for slot in self.slots)

    # -- steps issued ahead of their start -----------------------------------
    @property
    def idle(self) -> bool:
        """True when nothing holds or waits for the link or a slot."""
        for lock in self._locks:
            if lock.users or lock.queue:
                return False
        return True

    def split(self) -> None:
        """Return a step issued ahead of its start to the two-step chain.

        Called first by everything that could change what such a step
        read or was granted when it was issued: reprogramming, lock-up and
        recovery, and the Device Manager requests that drop buffers or
        stop its worker (see :meth:`BoardStep.split`).
        """
        step, self._lead = self._lead, None
        if step is not None:
            step.split()

    def _step(self, grant: Optional[Request], duration: float, lead: float):
        """The event ending a step of ``duration`` seconds that starts
        ``lead`` seconds from now, ``grant`` held throughout."""
        if not lead:
            return self.env.timeout(duration)
        step = self._lead = BoardStep(self.env, self.env.now + lead,
                                      duration, grant)
        if not duration:
            # The chain's empty step is a second event at the start,
            # queued after what is already due then: keep the chain.
            self.split()
        return step

    # -- health --------------------------------------------------------------
    def lock_up(self) -> None:
        """Wedge the board: every operation fails until :meth:`recover`."""
        self.split()
        self.alive = False
        self.lockups += 1

    def recover(self) -> None:
        """Power-cycle a locked-up board: memory and slots are wiped."""
        self.split()
        self.memory.release_all()
        self.slots = [None] * self.slot_count
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise BoardUnavailableError(f"board {self.name} is locked up")

    def kernel_slot(self, name: str) -> tuple[int, AcceleratorKernel]:
        """Find which slot hosts a kernel; returns (slot index, kernel)."""
        if not self.programmed:
            raise BoardError(f"board {self.name} has no bitstream")
        for index, bitstream in enumerate(self.slots):
            if bitstream is not None and name in bitstream:
                return index, bitstream.kernel(name)
        raise KeyError(
            f"kernel {name!r} not programmed on board {self.name} "
            f"(slots: {[b.name if b else None for b in self.slots]})"
        )

    def kernel(self, name: str) -> AcceleratorKernel:
        """Look up a kernel among the programmed slots."""
        return self.kernel_slot(name)[1]

    # -- programming ---------------------------------------------------------
    def program(self, bitstream: Bitstream):
        """Process: full-device reconfiguration.

        Blocks all kernel execution for the full reconfiguration time,
        wipes every slot and invalidates device memory (all buffers are
        freed), as a real full-device reprogram does.  The image lands in
        slot 0.
        """
        self.split()
        self._check_alive()
        grants = [lock.request() for lock in self._slot_locks]
        try:
            for grant in grants:
                yield grant
            start = self.env.now
            yield self.env.timeout(self.spec.reconfiguration_time)
            self.memory.release_all()
            self.slots = [None] * self.slot_count
            if (self.reconfiguration_injector is not None
                    and self.reconfiguration_injector(bitstream.name)):
                self._account(self.env.now - start, "reconfigure")
                raise ReconfigurationError(
                    f"reconfiguration of board {self.name} with "
                    f"{bitstream.name!r} failed"
                )
            self.slots[0] = bitstream
            self.reconfigurations += 1
            self._account(self.env.now - start, "reconfigure")
        finally:
            for lock, grant in zip(self._slot_locks, grants):
                lock.release(grant)

    def program_slot(self, slot: int, bitstream: Bitstream):
        """Process: partial reconfiguration of one slot (space-sharing).

        Only the target slot is blocked; other slots keep executing and
        device memory survives, as with real PR flows.
        """
        self.split()
        if not 0 <= slot < self.slot_count:
            raise BoardError(
                f"slot {slot} out of range (board has {self.slot_count})"
            )
        self._check_alive()
        with self._slot_locks[slot].request() as grant:
            yield grant
            start = self.env.now
            yield self.env.timeout(self.spec.partial_reconfiguration_time)
            if (self.reconfiguration_injector is not None
                    and self.reconfiguration_injector(bitstream.name)):
                self.slots[slot] = None
                self._account(self.env.now - start, "reconfigure")
                raise ReconfigurationError(
                    f"partial reconfiguration of slot {slot} of board "
                    f"{self.name} with {bitstream.name!r} failed"
                )
            self.slots[slot] = bitstream
            self.partial_reconfigurations += 1
            self._account(self.env.now - start, "reconfigure")

    # -- memory ---------------------------------------------------------------
    def allocate(self, size: int) -> DeviceBuffer:
        """Allocate device memory (instantaneous control operation)."""
        self._check_alive()
        return self.memory.allocate(size)

    def free(self, buffer: DeviceBuffer | int) -> None:
        self.memory.release(buffer)

    # -- data movement ---------------------------------------------------------
    def dma_write(
        self,
        buffer: DeviceBuffer,
        nbytes: int,
        data=None,
        offset: int = 0,
        lead: float = 0.0,
    ):
        """Process: move ``nbytes`` host→device; returns nothing.

        ``data`` (any bytes-like object, memoryview or numpy array) is
        stored into the buffer when the board is functional; timing-only
        boards never touch the payload.  A nonzero ``lead`` issues the
        transfer that many seconds before it starts, on an idle board
        (see :class:`BoardStep`); so do the other steps.
        """
        if nbytes < 0 or offset < 0 or offset + nbytes > buffer.size:
            raise ValueError(
                f"write of {nbytes}@{offset} outside buffer size {buffer.size}"
            )
        self._check_alive()
        start = self.env.now + lead
        yield from self._transfer(nbytes, lead)
        if self.functional and data is not None:
            if payload_nbytes(data) > nbytes:
                data = as_uint8_view(data)[:nbytes]
            buffer.write(data, offset)
        self._account(self.env.now - start, "dma")

    def copy_on_device(self, src: DeviceBuffer, dst: DeviceBuffer,
                       nbytes: int, src_offset: int = 0,
                       dst_offset: int = 0, lead: float = 0.0):
        """Process: device-internal copy (``clEnqueueCopyBuffer``).

        Moves data DDR→DDR without crossing PCIe; bandwidth-limited by the
        on-board memory controller.
        """
        if (nbytes < 0 or src_offset < 0 or dst_offset < 0
                or src_offset + nbytes > src.size
                or dst_offset + nbytes > dst.size):
            raise ValueError(
                f"copy of {nbytes} bytes outside buffer bounds "
                f"(src {src.size}, dst {dst.size})"
            )
        self._check_alive()
        start = self.env.now + lead
        yield self._step(None, nbytes / self.DDR_COPY_BANDWIDTH, lead)
        if self.functional:
            data = src.read(nbytes, src_offset)
            if src is dst:
                # Same-buffer copies may overlap: snapshot the source view
                # (OpenCL leaves overlapping copies undefined; we keep the
                # pre-zero-copy snapshot semantics).
                data = data.tobytes()
            dst.write(data, dst_offset)
        self._account(self.env.now - start, "dma")

    #: On-board DDR-to-DDR copy bandwidth (read + write on DDR3-capable
    #: SODIMMs), bytes/second.
    DDR_COPY_BANDWIDTH = 10.0e9

    def dma_read(self, buffer: DeviceBuffer, nbytes: int, offset: int = 0,
                 lead: float = 0.0):
        """Process: move ``nbytes`` device→host; returns a view.

        Zero-copy: the returned ``memoryview`` is a live view of device
        memory (functional boards) or of the shared zero page (timing-only
        boards).  Callers that keep the data past the next operation on the
        buffer must :func:`~repro.fpga.ddr.materialize` it — the command
        layers do this at the user-facing read boundary.
        """
        if nbytes < 0 or offset < 0 or offset + nbytes > buffer.size:
            raise ValueError(
                f"read of {nbytes}@{offset} outside buffer size {buffer.size}"
            )
        self._check_alive()
        start = self.env.now + lead
        yield from self._transfer(nbytes, lead)
        self._account(self.env.now - start, "dma")
        if self.functional:
            return buffer.read(nbytes, offset)
        return zero_view(nbytes)

    def _transfer(self, nbytes: int, lead: float):
        """Process: move ``nbytes`` across the PCIe link (either direction);
        transfers are serialized through the link's channel."""
        link = self.link
        with link.channel.request() as grant:
            yield grant
            yield self._step(grant, link.spec.transfer_time(nbytes), lead)
        link.bytes_transferred += nbytes
        link.transfer_count += 1

    # -- execution ----------------------------------------------------------
    def execute(self, kernel_name: str, arg_values: list, lead: float = 0.0):
        """Process: run one kernel invocation to completion.

        Resolves and validates arguments against the kernel schema, holds
        the board's compute resource for the kernel's modelled duration and
        (in functional mode) performs the actual computation.  Returns the
        kernel's execution time in seconds.
        """
        self._check_alive()
        slot, kernel = self.kernel_slot(kernel_name)
        args = kernel.resolve_args(arg_values)
        duration = kernel.duration(args)
        with self._slot_locks[slot].request() as grant:
            yield grant
            # A full reprogram may have wiped the slot while we waited.
            current = self.slots[slot]
            if current is None or kernel_name not in current:
                raise BoardError(
                    f"kernel {kernel_name!r} was unloaded from slot {slot} "
                    f"of board {self.name} during a reconfiguration"
                )
            start = self.env.now + lead
            yield self._step(grant, duration, lead)
            run_index = self.kernel_runs
            self.kernel_runs += 1
            faulted = (
                self.fault_injector is not None
                and self.fault_injector(kernel_name, run_index)
            )
            if not faulted and self.functional:
                kernel.compute(args)
            if faulted == "hang":
                # A wedged kernel never signals completion; the abort only
                # surfaces once the manager's watchdog fires.
                yield self.env.timeout(self.hang_detect_seconds)
                self._account(self.env.now - start, "kernel")
                raise KernelFault(
                    f"kernel {kernel_name!r} run #{run_index} hung on "
                    f"board {self.name}"
                )
            self._account(self.env.now - start, "kernel")
            if faulted:
                raise KernelFault(
                    f"kernel {kernel_name!r} run #{run_index} failed on "
                    f"board {self.name}"
                )
        return duration

    def __repr__(self) -> str:
        configured = self.bitstream.name if self.bitstream else None
        return f"<FPGABoard {self.name} bitstream={configured!r}>"
