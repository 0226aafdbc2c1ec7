"""Hardware specifications and calibrated timing constants.

The constants here encode the paper's testbed:

* three nodes — one master (node A: Xeon W3530, DDR3, PCIe **gen2** x8) and
  two workers (nodes B, C: i7-6700, DDR4, PCIe **gen3** x8);
* one Terasic DE5a-Net board per node (Intel Arria 10 GX 1150, 8 GB DDR);
* 1 Gb/s Ethernet between nodes.

Bandwidth/latency values are calibrated against Figure 4 of the paper (see
``EXPERIMENTS.md``): e.g. the single extra memcpy of the shared-memory path
costs ~155 ms for 2 GB, which pins the host memcpy bandwidth near 13 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GiB = 1024 ** 3
MiB = 1024 ** 2
KiB = 1024


@dataclass(frozen=True)
class PCIeSpec:
    """Effective characteristics of one PCIe connection."""

    generation: int
    lanes: int
    bandwidth: float  # effective bytes/second (after protocol overhead)
    latency: float    # per-DMA-transaction setup latency, seconds

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across the link (one DMA transaction)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return self.latency + nbytes / self.bandwidth


#: PCIe gen3 x8 — worker nodes B and C (effective ~6.8 GB/s).
PCIE_GEN3_X8 = PCIeSpec(generation=3, lanes=8, bandwidth=6.8e9, latency=10e-6)

#: PCIe gen2 x8 — master node A (effective ~3.4 GB/s).
PCIE_GEN2_X8 = PCIeSpec(generation=2, lanes=8, bandwidth=3.4e9, latency=15e-6)


@dataclass(frozen=True)
class HostSpec:
    """Host CPU/memory characteristics relevant to the data path."""

    name: str
    cores: int
    frequency_ghz: float
    memcpy_bandwidth: float     # bytes/second for a single-thread memcpy
    protobuf_bandwidth: float   # bytes/second for protobuf encode+decode
    #: Multiplier on fixed host-side software overheads (1.0 = worker node).
    speed_factor: float = 1.0


#: Worker node CPU (i7-6700, DDR4).
HOST_I7_6700 = HostSpec(
    name="Intel Core i7-6700 @ 3.40GHz",
    cores=4,
    frequency_ghz=3.4,
    memcpy_bandwidth=13.9e9,
    protobuf_bandwidth=4.6e9,
    speed_factor=1.0,
)

#: Master node CPU (Xeon W3530, DDR3) — measurably slower host path.
HOST_XEON_W3530 = HostSpec(
    name="Intel Xeon W3530 @ 2.80GHz",
    cores=4,
    frequency_ghz=2.8,
    memcpy_bandwidth=8.5e9,
    protobuf_bandwidth=3.0e9,
    speed_factor=1.35,
)


@dataclass(frozen=True)
class BoardSpec:
    """An FPGA accelerator board."""

    name: str
    fpga: str
    logic_elements: int
    memory_bytes: int
    #: Full-device reconfiguration time (bitstream programming), seconds.
    reconfiguration_time: float
    #: Partial-reconfiguration slots (the paper's future-work
    #: space-sharing; 1 = classic time-sharing-only board).
    pr_slots: int = 1
    #: Partial reconfiguration of one slot, seconds.
    partial_reconfiguration_time: float = 0.4

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("board memory must be positive")
        if self.pr_slots < 1:
            raise ValueError("a board needs at least one slot")


#: Terasic DE5a-Net: Intel Arria 10 GX 1150, 8 GB DDR over 2 SODIMMs.
DE5A_NET = BoardSpec(
    name="Terasic DE5a-Net",
    fpga="Intel Arria 10 GX 1150",
    logic_elements=1_150_000,
    memory_bytes=8 * GiB,
    reconfiguration_time=2.5,
)


@dataclass(frozen=True)
class NetworkSpec:
    """Characteristics of a network path between two endpoints."""

    bandwidth: float      # bytes/second
    latency: float        # one-way propagation + stack latency, seconds

    def transfer_time(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return self.latency + nbytes / self.bandwidth


#: 1 Gb/s Ethernet between nodes (~117 MB/s effective).
ETHERNET_1G = NetworkSpec(bandwidth=117e6, latency=150e-6)

#: Local virtual network stack (loopback / docker bridge on the same node).
LOOPBACK = NetworkSpec(bandwidth=4.0e9, latency=25e-6)


@dataclass(frozen=True)
class NodeSpec:
    """A cluster node: host CPU + PCIe connection + attached board."""

    name: str
    host: HostSpec
    pcie: PCIeSpec
    board: BoardSpec = DE5A_NET
    memory_bytes: int = 24 * GiB
    is_master: bool = False


def paper_testbed() -> list[NodeSpec]:
    """The three-node testbed of Section IV.

    Node A is the master (Xeon W3530, 24 GB DDR3, PCIe gen2); nodes B and C
    are workers (i7-6700, 32 GB DDR4, PCIe gen3).  Each node carries one
    DE5a-Net board.
    """
    return [
        NodeSpec(
            name="A",
            host=HOST_XEON_W3530,
            pcie=PCIE_GEN2_X8,
            memory_bytes=24 * GiB,
            is_master=True,
        ),
        NodeSpec(name="B", host=HOST_I7_6700, pcie=PCIE_GEN3_X8,
                 memory_bytes=32 * GiB),
        NodeSpec(name="C", host=HOST_I7_6700, pcie=PCIE_GEN3_X8,
                 memory_bytes=32 * GiB),
    ]


def fleet_nodes(boards: int) -> list[NodeSpec]:
    """A homogeneous fleet of i7-6700 worker nodes behind PCIe gen3, one
    board each; node 0 doubles as the master."""
    return [
        NodeSpec(
            name=f"n{index:04d}",
            host=HOST_I7_6700,
            pcie=PCIE_GEN3_X8,
            memory_bytes=32 * GiB,
            is_master=(index == 0),
        )
        for index in range(boards)
    ]
