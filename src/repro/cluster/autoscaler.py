"""F1-style node autoscaling (the paper's stated future work).

"Future work will address the integration with AWS F1 for nodes
autoscaling" — this module provides that integration against the simulated
cloud: a :class:`NodeAutoscaler` watches the fleet's FPGA time utilization
and provisions FPGA instances, wiring each new node's board
and Device Manager into the cluster, the Accelerators Registry and the
Remote OpenCL Library's router so subsequently created function instances
can land on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..fpga.hwspec import HOST_I7_6700, NodeSpec, PCIE_GEN3_X8
from ..sim import Environment
from .testbed import Testbed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster ↔ core)
    from ..core.registry.registry import AcceleratorsRegistry
    from ..core.remote_lib.router import PlatformRouter


@dataclass(frozen=True)
class AutoscalerPolicy:
    """When and how to scale the FPGA node pool."""

    #: Scale out when mean fleet utilization exceeds this fraction.
    scale_out_threshold: float = 0.70
    #: Utilization averaging window, seconds.
    window: float = 10.0
    #: Evaluation period, seconds.
    interval: float = 5.0
    #: Minimum time between scaling actions, seconds.
    cooldown: float = 30.0
    #: F1 instance provisioning time (request → board usable), seconds.
    boot_delay: float = 45.0
    #: Hard cap on total nodes.
    max_nodes: int = 8


class NodeAutoscaler:
    """Grows the FPGA node pool based on fleet utilization."""

    def __init__(
        self,
        env: Environment,
        testbed: Testbed,
        registry: "AcceleratorsRegistry",
        router: "Optional[PlatformRouter]" = None,
        policy: AutoscalerPolicy = AutoscalerPolicy(),
        node_template: Optional[NodeSpec] = None,
    ):
        self.env = env
        self.testbed = testbed
        self.registry = registry
        self.router = router
        self.policy = policy
        self.node_template = node_template
        self.scale_outs = 0
        self.added_nodes: List[str] = []
        self._last_action = -policy.cooldown
        self._next_index = 1
        env.process(self._run())

    # -- observation -----------------------------------------------------------
    def fleet_utilization(self) -> float:
        """Mean per-device FPGA time utilization over the policy window."""
        gatherer = self.registry.gatherer
        if gatherer is None:
            return 0.0
        devices = self.registry.devices.all()
        if not devices:
            return 0.0
        total = sum(gatherer.utilization(d.name) for d in devices)
        return total / len(devices)

    # -- actions -----------------------------------------------------------------
    def scale_out(self):
        """Process: provision one F1 node and wire it into the system."""
        spec = self._new_node_spec()
        yield self.env.timeout(self.policy.boot_delay)
        manager = self.testbed.add_node(spec)
        self.registry.register_manager(manager)
        if self.router is not None:
            from ..core.remote_lib.router import ManagerAddress

            self.router.add_manager(ManagerAddress.of(manager))
        self.added_nodes.append(spec.name)
        self.scale_outs += 1
        return manager

    # -- control loop ---------------------------------------------------------
    def _run(self):
        while True:
            yield self.env.timeout(self.policy.interval)
            utilization = self.fleet_utilization()
            now = self.env.now
            if now - self._last_action < self.policy.cooldown:
                continue
            if (utilization > self.policy.scale_out_threshold
                    and len(self.testbed.cluster.nodes)
                    < self.policy.max_nodes):
                self._last_action = now
                yield from self.scale_out()

    def _new_node_spec(self) -> NodeSpec:
        while True:
            name = f"F1-{self._next_index}"
            self._next_index += 1
            if name not in self.testbed.cluster.nodes:
                break
        if self.node_template is not None:
            from dataclasses import replace

            return replace(self.node_template, name=name)
        return NodeSpec(name=name, host=HOST_I7_6700, pcie=PCIE_GEN3_X8)
