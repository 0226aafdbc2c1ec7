"""Cluster object model: nodes, pods, device queries.

A thin Kubernetes: enough of the pod lifecycle (admission → scheduling →
running → termination), label/env metadata and watch events for the
Accelerators Registry to do what the paper describes — intercept function
creation, patch env/volumes/node binding, and migrate instances by
delete-and-recreate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..fpga.board import FPGABoard
from ..fpga.hwspec import NodeSpec
from ..rpc import NetworkHost


@dataclass(frozen=True)
class DeviceQuery:
    """A function's device requirements (Algorithm 1's ``devicequery``)."""

    vendor: str = ""
    platform: str = ""
    accelerator: str = ""  # bitstream name the function needs

    def matches_vendor(self, vendor: str, platform: str) -> bool:
        vendor_ok = not self.vendor or self.vendor in vendor
        platform_ok = not self.platform or self.platform in platform
        return vendor_ok and platform_ok


class PodPhase(enum.Enum):
    PENDING = "Pending"
    SCHEDULED = "Scheduled"
    RUNNING = "Running"
    TERMINATED = "Terminated"
    FAILED = "Failed"


@dataclass
class PodSpec:
    """Desired state of a pod (one serverless function instance)."""

    name: str
    function: str
    device_query: DeviceQuery = field(default_factory=DeviceQuery)
    labels: Dict[str, str] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=dict)
    #: Forced node placement ("" = scheduler decides).
    node_name: str = ""
    #: Mount a shared-memory volume towards the local Device Manager.
    shm_volume: bool = False


class Pod:
    """A live pod."""

    def __init__(self, spec: PodSpec):
        self.spec = spec
        self.phase = PodPhase.PENDING
        self.node: Optional["ClusterNode"] = None
        #: The workload process attached by the serverless runtime.
        self.process: Any = None
        self.created_at: Optional[float] = None
        self.started_at: Optional[float] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        where = self.node.name if self.node else "unscheduled"
        return f"<Pod {self.name} [{self.phase.value}] on {where}>"


class ClusterNode:
    """One machine of the testbed: host, network identity and FPGA board."""

    def __init__(self, spec: NodeSpec, host: NetworkHost,
                 board: Optional[FPGABoard] = None):
        self.spec = spec
        self.host = host
        self.board = board
        self.pods: Dict[str, Pod] = {}
        #: False while the node is failed; the scheduler skips it.
        self.ready = True

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_master(self) -> bool:
        return self.spec.is_master

    def __repr__(self) -> str:
        return f"<ClusterNode {self.name} pods={len(self.pods)}>"


class WatchEventType(enum.Enum):
    ADDED = "ADDED"
    MODIFIED = "MODIFIED"
    DELETED = "DELETED"


@dataclass(frozen=True)
class WatchEvent:
    """A cluster watch notification."""

    type: WatchEventType
    pod: Pod
