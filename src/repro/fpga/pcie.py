"""PCI Express link model.

DMA transfers between host and board memory are serialized through the link
and take ``latency + nbytes/bandwidth`` seconds.  Node A's board sits behind
a gen2 connector, nodes B/C behind gen3 — the asymmetry the paper's Table II
exposes (node A saturates first).
"""

from __future__ import annotations

from ..sim import Environment, Resource
from .hwspec import PCIeSpec, PCIE_GEN3_X8


class PCIeLink:
    """A host↔board PCIe connection shared by all DMA transfers.

    The board moves data across it (:meth:`FPGABoard.dma_write` and
    :meth:`~FPGABoard.dma_read`), holding :attr:`channel` for each
    transfer's :meth:`PCIeSpec.transfer_time`.
    """

    def __init__(self, env: Environment, spec: PCIeSpec = PCIE_GEN3_X8):
        self.env = env
        self.spec = spec
        self.channel = Resource(env, capacity=1)
        self.bytes_transferred = 0
        self.transfer_count = 0
