"""Assembly of the paper's three-node testbed.

Builds the full substrate in one call: network, boards (node A behind PCIe
gen2, B/C behind gen3), Device Managers, cluster nodes and the metrics
scraper — the starting point of every multi-node experiment and example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.device_manager import DeviceManager
from ..fpga.bitstream import BitstreamLibrary, standard_library
from ..fpga.board import FPGABoard
from ..fpga.hwspec import NodeSpec, paper_testbed
from ..metrics import Scraper
from ..rpc import Network
from ..sim import Environment
from .apiserver import Cluster
from .objects import ClusterNode


@dataclass
class Testbed:
    """Everything a multi-node experiment needs, wired together."""

    env: Environment
    network: Network
    library: BitstreamLibrary
    cluster: Cluster
    managers: Dict[str, DeviceManager] = field(default_factory=dict)
    scraper: Optional[Scraper] = None

    #: Kept so late-added nodes (autoscaling) match the fleet's modes.
    functional: bool = False
    batching: bool = True

    def add_node(self, spec: NodeSpec) -> DeviceManager:
        """Provision a node with a board and Device Manager.

        Builds every node of the testbed, and later ones for the F1-style
        node autoscaler (the paper's future work): the caller is then
        responsible for registering the returned manager with the
        Accelerators Registry and the platform routers.
        """
        host = self.network.host(spec.name, spec.host)
        board = FPGABoard(
            self.env, name=f"fpga-{spec.name}", spec=spec.board,
            pcie=spec.pcie, functional=self.functional,
        )
        manager = DeviceManager(
            self.env, f"dm-{spec.name}", board, self.library, self.network,
            host, batching=self.batching,
        )
        self.managers[manager.name] = manager
        self.cluster.add_node(ClusterNode(spec, host, board))
        if self.scraper is not None:
            self.scraper.add_target(manager.name, manager.metrics,
                                    node=spec.name, device=board.name)
        return manager

def build_testbed(
    env: Environment,
    node_specs: Optional[List[NodeSpec]] = None,
    library: Optional[BitstreamLibrary] = None,
    functional: bool = False,
    scrape_interval: float = 1.0,
    with_scraper: bool = True,
    batching: bool = True,
) -> Testbed:
    """Construct the testbed of Section IV (or a custom node list).

    ``functional=False`` runs boards in timing-only mode — the right choice
    for load experiments; turn it on for examples that check results.
    """
    if node_specs is None:
        node_specs = paper_testbed()
    if library is None:
        library = standard_library()

    network = Network(env)
    cluster = Cluster(env)
    testbed = Testbed(env, network, library, cluster, functional=functional,
                      batching=batching)
    if with_scraper:
        testbed.scraper = Scraper(env, interval=scrape_interval)
    for spec in node_specs:
        testbed.add_node(spec)
    return testbed
