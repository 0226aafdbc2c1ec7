"""Bitstreams: compiled accelerator images the boards are programmed with.

A bitstream bundles one or more OpenCL kernels (the ``.aocx`` of the Intel
toolchain).  The Accelerators Registry compares bitstream identifiers when
deciding whether allocating a function to a device requires reconfiguration
(Algorithm 1's *accelerator compatibility*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..kernels.base import AcceleratorKernel


@dataclass(frozen=True)
class Bitstream:
    """An immutable accelerator image."""

    name: str
    vendor: str
    platform: str
    kernels: tuple[AcceleratorKernel, ...]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("a bitstream must contain at least one kernel")
        names = [kernel.name for kernel in self.kernels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate kernel names in {self.name}: {names}")

    def kernel(self, name: str) -> AcceleratorKernel:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(
            f"kernel {name!r} not in bitstream {self.name!r} "
            f"(has {[k.name for k in self.kernels]})"
        )

    def __contains__(self, kernel_name: str) -> bool:
        return any(kernel.name == kernel_name for kernel in self.kernels)


class BitstreamLibrary:
    """Named collection of available bitstreams (the cluster's image store)."""

    def __init__(self, bitstreams: Iterable[Bitstream] = ()):
        self._bitstreams: Dict[str, Bitstream] = {}
        for bitstream in bitstreams:
            self.add(bitstream)

    def add(self, bitstream: Bitstream) -> Bitstream:
        if bitstream.name in self._bitstreams:
            raise ValueError(f"duplicate bitstream {bitstream.name!r}")
        self._bitstreams[bitstream.name] = bitstream
        return bitstream

    def get(self, name: str) -> Bitstream:
        try:
            return self._bitstreams[name]
        except KeyError:
            raise KeyError(f"unknown bitstream {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._bitstreams)

    def __len__(self) -> int:
        return len(self._bitstreams)


_VENDOR = "Intel(R) Corporation"
_PLATFORM = "Intel(R) FPGA SDK for OpenCL(TM)"


def standard_library() -> BitstreamLibrary:
    """The three accelerator images used in the paper's evaluation."""
    from ..kernels.mm import MatrixMultiplyKernel
    from ..kernels.pipecnn import pipecnn_kernels
    from ..kernels.sobel import SobelKernel

    return BitstreamLibrary(
        [
            Bitstream("sobel", _VENDOR, _PLATFORM, (SobelKernel(),)),
            Bitstream("mm", _VENDOR, _PLATFORM, (MatrixMultiplyKernel(),)),
            Bitstream(
                "pipecnn_alexnet", _VENDOR, _PLATFORM,
                tuple(pipecnn_kernels()),
            ),
        ]
    )


def extended_library() -> BitstreamLibrary:
    """The standard library plus the extra Spector accelerators (FIR,
    histogram) — the wider image store a production deployment would
    carry."""
    from ..kernels.fir import FIRKernel
    from ..kernels.histogram import HistogramKernel

    library = standard_library()
    library.add(Bitstream("fir", _VENDOR, _PLATFORM, (FIRKernel(),)))
    library.add(Bitstream("histogram", _VENDOR, _PLATFORM,
                          (HistogramKernel(),)))
    return library
