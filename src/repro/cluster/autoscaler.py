"""F1-style node autoscaling (the paper's stated future work).

"Future work will address the integration with AWS F1 for nodes
autoscaling" — this module provides that integration against the simulated
cloud: a :class:`NodeAutoscaler` watches the fleet's FPGA time utilization
and provisions (or retires) FPGA instances, wiring each new node's board
and Device Manager into the cluster, the Accelerators Registry and the
Remote OpenCL Library's router so subsequently created function instances
can land on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..fpga.hwspec import HOST_I7_6700, NodeSpec, PCIE_GEN3_X8
from ..sim import Environment, Interrupt
from .testbed import Testbed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster ↔ core)
    from ..core.registry.registry import AcceleratorsRegistry
    from ..core.remote_lib.router import PlatformRouter


@dataclass(frozen=True)
class AutoscalerPolicy:
    """When and how to scale the FPGA node pool."""

    #: Scale out when mean fleet utilization exceeds this fraction.
    scale_out_threshold: float = 0.70
    #: Scale in when it drops below this fraction (added nodes only).
    scale_in_threshold: float = 0.15
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
    """Grows/shrinks the FPGA node pool based on fleet utilization."""

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
        self.scale_ins = 0
        self.added_nodes: List[str] = []
        self._last_action = -policy.cooldown
        self._next_index = 1
        self._process = env.process(self._run())

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

    def scale_in(self, node_name: str) -> bool:
        """Retire an autoscaled node if no instance is allocated to it."""
        manager_name = f"dm-{node_name}"
        if (manager_name not in self.registry.devices
                or self.registry.functions.instances_on_device(manager_name)):
            return False
        if self.testbed.cluster.pods_on(node_name):
            return False
        if not self.registry.deregister_manager(manager_name):
            return False
        manager = self.testbed.managers.pop(manager_name, None)
        if manager is not None:
            manager.stop()
        if self.testbed.scraper is not None:
            self.testbed.scraper.remove_target(manager_name)
        if self.router is not None:
            self.router.remove_manager(manager_name)
        self.testbed.cluster.nodes.pop(node_name, None)
        self.added_nodes.remove(node_name)
        self.scale_ins += 1
        return True

    def stop(self) -> None:
        if self._process.is_alive:
            self._process.interrupt("autoscaler stopped")

    # -- control loop ---------------------------------------------------------
    def _run(self):
        try:
            while True:
                yield self.env.timeout(self.policy.interval)
                utilization = self.fleet_utilization()
                now = self.env.now
                if now - self._last_action < self.policy.cooldown:
                    continue
                node_count = len(self.testbed.cluster.nodes)
                if (utilization > self.policy.scale_out_threshold
                        and node_count < self.policy.max_nodes):
                    self._last_action = now
                    yield from self.scale_out()
                elif (utilization < self.policy.scale_in_threshold
                        and self.added_nodes):
                    if self.scale_in(self.added_nodes[-1]):
                        self._last_action = now
        except Interrupt:
            return

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
