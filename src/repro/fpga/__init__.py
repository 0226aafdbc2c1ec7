"""Simulated FPGA hardware substrate.

Models the paper's testbed hardware: Terasic DE5a-Net boards (Intel Arria 10
GX 1150, 8 GB DDR) behind PCIe gen2/gen3 links, with full-device
reconfiguration, a DDR allocator and exclusive kernel execution.  Timing
constants are calibrated to the paper's Figure 4 (see ``EXPERIMENTS.md``).
"""

from .bitstream import (
    Bitstream,
    BitstreamLibrary,
    extended_library,
    standard_library,
)
from .board import BoardError, FPGABoard, KernelFault
from .ddr import DeviceBuffer, MemoryAllocator, OutOfMemoryError
from .hwspec import (
    DE5A_NET,
    ETHERNET_1G,
    GiB,
    HOST_I7_6700,
    HOST_XEON_W3530,
    KiB,
    LOOPBACK,
    MiB,
    BoardSpec,
    HostSpec,
    NetworkSpec,
    NodeSpec,
    PCIeSpec,
    PCIE_GEN2_X8,
    PCIE_GEN3_X8,
    fleet_nodes,
    paper_testbed,
)
from .pcie import PCIeLink

__all__ = [
    "Bitstream",
    "BitstreamLibrary",
    "BoardError",
    "BoardSpec",
    "DE5A_NET",
    "DeviceBuffer",
    "ETHERNET_1G",
    "extended_library",
    "fleet_nodes",
    "FPGABoard",
    "GiB",
    "HOST_I7_6700",
    "HOST_XEON_W3530",
    "HostSpec",
    "KernelFault",
    "KiB",
    "LOOPBACK",
    "MemoryAllocator",
    "MiB",
    "NetworkSpec",
    "NodeSpec",
    "OutOfMemoryError",
    "PCIE_GEN2_X8",
    "PCIE_GEN3_X8",
    "PCIeLink",
    "PCIeSpec",
    "paper_testbed",
    "standard_library",
]
