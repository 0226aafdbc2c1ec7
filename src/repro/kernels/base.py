"""Accelerator kernel abstraction.

A *kernel* in this reproduction is the pair the paper's bitstreams provide:

* a **latency model** — how long the synthesized accelerator takes on the
  FPGA for given argument sizes (calibrated against Figure 4 of the paper);
* a **functional model** — the actual computation, in NumPy, operating on
  device buffers, so correctness is testable against golden references.

Kernels are packaged into :class:`~repro.fpga.bitstream.Bitstream` objects
and executed by :class:`~repro.fpga.board.FPGABoard`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple


class ArgKind(enum.Enum):
    """How an argument is passed to the kernel."""

    GLOBAL_BUFFER = "global_buffer"
    SCALAR = "scalar"


class Direction(enum.Enum):
    """Data-flow direction of a buffer argument."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"


@dataclass(frozen=True)
class KernelArgSpec:
    """Declaration of one kernel argument (mirrors the .cl signature)."""

    name: str
    kind: ArgKind
    direction: Direction = Direction.IN

    def __post_init__(self) -> None:
        if self.kind is ArgKind.SCALAR and self.direction is not Direction.IN:
            raise ValueError("scalar arguments are input-only")


class KernelArgumentError(ValueError):
    """Bad kernel arguments (maps to CL_INVALID_KERNEL_ARGS)."""


class AcceleratorKernel(abc.ABC):
    """Base class for all synthesized accelerators.

    Subclasses declare ``name`` and ``args`` and implement
    :meth:`duration` (timing model) and :meth:`compute` (functional model).
    """

    #: OpenCL kernel name as it appears in the bitstream.
    name: str = ""
    #: Argument schema, in clSetKernelArg index order.
    args: Tuple[KernelArgSpec, ...] = ()

    def resolve_args(self, values: Sequence[Any]) -> Dict[str, Any]:
        """Validate positional argument ``values`` against the schema.

        Returns a name→value mapping.  Buffer arguments must be
        :class:`DeviceBuffer`, scalars must be numbers.
        """
        if len(values) != len(self.args):
            raise KernelArgumentError(
                f"{self.name} expects {len(self.args)} args, got {len(values)}"
            )
        resolved: Dict[str, Any] = {}
        for spec, value in zip(self.args, values):
            if spec.kind is ArgKind.GLOBAL_BUFFER:
                if not isinstance(value, DeviceBuffer):
                    raise KernelArgumentError(
                        f"arg {spec.name!r} of {self.name} must be a device "
                        f"buffer, got {type(value).__name__}"
                    )
            else:
                if not isinstance(value, (int, float)):
                    raise KernelArgumentError(
                        f"arg {spec.name!r} of {self.name} must be a scalar, "
                        f"got {type(value).__name__}"
                    )
            resolved[spec.name] = value
        return resolved

    @abc.abstractmethod
    def duration(self, args: Mapping[str, Any]) -> float:
        """Execution time on the FPGA, in seconds, for resolved ``args``."""

    @abc.abstractmethod
    def compute(self, args: Mapping[str, Any]) -> None:
        """Run the computation, writing results into the output buffers."""


def buffer_arg(name: str, direction: Direction = Direction.IN) -> KernelArgSpec:
    """Shorthand for a global-memory buffer argument."""
    return KernelArgSpec(name, ArgKind.GLOBAL_BUFFER, direction)


def scalar_arg(name: str) -> KernelArgSpec:
    """Shorthand for a scalar argument."""
    return KernelArgSpec(name, ArgKind.SCALAR)


# Last: repro.fpga imports AcceleratorKernel back (fpga ↔ kernels cycle).
from ..fpga.ddr import DeviceBuffer  # noqa: E402
