"""Devices Service and Functions Service (Section III-C).

"The Devices Service collects and manages information about the devices
(e.g. platform, configured bitstream and connected instances).  The
Functions Service contains data about the serverless functions (e.g.
identifier, location, device, created instances)."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...cluster.objects import DeviceQuery
from ..device_manager.manager import DeviceManager


@dataclass
class DeviceRecord:
    """Registry-side view of one Device Manager / board."""

    name: str                       # device manager name, e.g. "dm-B"
    node: str
    vendor: str
    platform: str
    manager: DeviceManager
    #: Bitstream a pending allocation will program; the Registry drops
    #: it once the board runs it.  Which instances the device serves is
    #: the Functions Service's record (``instances_on_device``).
    pending_bitstream: Optional[str] = None
    #: False once the Registry marks the device dead (lease expired);
    #: Algorithm 1 never considers dead devices.
    alive: bool = True

    @property
    def configured_bitstream(self) -> Optional[str]:
        return self.manager.configured_bitstream

    @property
    def effective_bitstream(self) -> Optional[str]:
        """What the device will run once pending work lands."""
        if self.pending_bitstream is not None:
            return self.pending_bitstream
        return self.configured_bitstream


class DevicesService:
    """Inventory of the cluster's accelerator devices."""

    def __init__(self) -> None:
        self._devices: Dict[str, DeviceRecord] = {}
        self._sorted: Optional[List[DeviceRecord]] = None

    def register(self, manager: DeviceManager) -> DeviceRecord:
        info = manager.library  # vendor/platform come from the bitstreams
        # All bitstreams in the standard library share vendor/platform.
        sample = info.get(info.names()[0]) if len(info) else None
        record = DeviceRecord(
            name=manager.name,
            node=manager.node.name,
            vendor=sample.vendor if sample else "",
            platform=sample.platform if sample else "",
            manager=manager,
        )
        self._devices[record.name] = record
        self._sorted = None
        return record

    def get(self, name: str) -> DeviceRecord:
        try:
            return self._devices[name]
        except KeyError:
            raise KeyError(f"unknown device {name!r}") from None

    def find(self, name: str) -> Optional[DeviceRecord]:
        return self._devices.get(name)

    def remove(self, name: str) -> Optional[DeviceRecord]:
        """Forget a device (node retired by the autoscaler)."""
        self._sorted = None
        return self._devices.pop(name, None)

    def all(self) -> List[DeviceRecord]:
        # Cached between membership changes: re-sorting the whole fleet on
        # every device_views() call is O(n log n) per allocation at scale.
        if self._sorted is None:
            self._sorted = sorted(self._devices.values(),
                                  key=lambda d: d.name)
        return list(self._sorted)

    def on_node(self, node: str) -> List[DeviceRecord]:
        return [d for d in self.all() if d.node == node]

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def __len__(self) -> int:
        return len(self._devices)


@dataclass
class InstanceRecord:
    """One function instance (pod) and its allocation."""

    name: str
    function: str
    node: str = ""
    device: str = ""
    #: Registration order of the owning function and insertion order of the
    #: instance, assigned by the Functions Service.  Together they
    #: reconstruct the legacy full-scan iteration order (functions in
    #: registration order, instances in insertion order) from the
    #: per-device index without walking every function.
    function_seq: int = 0
    seq: int = 0


@dataclass
class FunctionRecord:
    """One registered serverless function."""

    name: str
    device_query: DeviceQuery
    instances: Dict[str, InstanceRecord] = field(default_factory=dict)
    #: Registration order within the Functions Service.
    seq: int = 0


class FunctionsService:
    """Inventory of registered functions and their instances.

    Instance lookups are indexed: by name (the Device Manager's
    reconfiguration validator resolves its client on every BuildProgram)
    and by device (Algorithm 1 asks for a device's workloads on every
    allocation) — both were full scans over every registered function.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionRecord] = {}
        self._by_name: Dict[str, InstanceRecord] = {}
        self._by_device: Dict[str, Dict[str, InstanceRecord]] = {}
        self._function_seq = 0
        self._instance_seq = 0

    def register(self, name: str, device_query: DeviceQuery) -> FunctionRecord:
        record = self._functions.get(name)
        if record is None:
            self._function_seq += 1
            record = FunctionRecord(name, device_query,
                                    seq=self._function_seq)
            self._functions[name] = record
        return record

    def get(self, name: str) -> FunctionRecord:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"unknown function {name!r}") from None

    def known(self, name: str) -> bool:
        return name in self._functions

    def add_instance(self, function: str, instance: InstanceRecord) -> None:
        record = self.get(function)
        self._instance_seq += 1
        instance.function_seq = record.seq
        instance.seq = self._instance_seq
        record.instances[instance.name] = instance
        self._by_name[instance.name] = instance
        if instance.device:
            self._by_device.setdefault(instance.device, {})[
                instance.name] = instance

    def remove_instance(self, function: str, instance_name: str
                        ) -> Optional[InstanceRecord]:
        record = self._functions.get(function)
        if record is None:
            return None
        instance = record.instances.pop(instance_name, None)
        if instance is not None:
            self._by_name.pop(instance_name, None)
            on_device = self._by_device.get(instance.device)
            if on_device is not None:
                on_device.pop(instance_name, None)
        return instance

    def move_instance(self, instance_name: str,
                      device: str) -> Optional[InstanceRecord]:
        """Reassign an instance to another device, keeping indexes in sync.

        Used by live migration: the pod (and its node) stay put, only the
        accelerator side moves, so this touches the device index alone.
        """
        instance = self._by_name.get(instance_name)
        if instance is None:
            return None
        if instance.device:
            on_device = self._by_device.get(instance.device)
            if on_device is not None:
                on_device.pop(instance_name, None)
        instance.device = device
        if device:
            self._by_device.setdefault(device, {})[instance_name] = instance
        return instance

    def restore_instance(self, instance: InstanceRecord) -> None:
        """Re-attach a replayed instance with its original sequence numbers.

        Unlike :meth:`add_instance` this does not mint new sequence
        numbers — snapshot replay must reproduce the exact iteration order
        the pre-crash Registry would have used — but the internal counters
        are advanced past the restored values so post-recovery admissions
        keep sequencing monotonically.
        """
        record = self.get(instance.function)
        record.instances[instance.name] = instance
        self._by_name[instance.name] = instance
        if instance.device:
            self._by_device.setdefault(instance.device, {})[
                instance.name] = instance
        self._instance_seq = max(self._instance_seq, instance.seq)
        self._function_seq = max(self._function_seq, instance.function_seq)

    def instance(self, instance_name: str) -> Optional[InstanceRecord]:
        return self._by_name.get(instance_name)

    def all(self) -> List[FunctionRecord]:
        return sorted(self._functions.values(), key=lambda f: f.name)

    def instances_on_device(self, device: str) -> List[InstanceRecord]:
        # Sorting by (function registration, instance insertion) replays
        # the legacy all-functions scan order exactly.
        return sorted(
            self._by_device.get(device, {}).values(),
            key=lambda inst: (inst.function_seq, inst.seq),
        )
