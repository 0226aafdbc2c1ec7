"""The Accelerators Registry (BlastFunction's cluster master)."""

from .allocation import (
    AllocationDecision,
    AllocationError,
    DeviceView,
    MetricFilter,
    allocate,
    filterby_compatibility,
    filterby_metrics,
    not_compatible,
    orderby_metrics_and_acc,
    redistribution_plan,
)
from .gatherer import MetricsGatherer
from .health import REGISTRY_HOST, HealthMonitor
from .registry import (
    MANAGER_ENV,
    AcceleratorsRegistry,
    RegistryUnavailableError,
)
from .services import (
    DeviceRecord,
    DevicesService,
    FunctionRecord,
    FunctionsService,
    InstanceRecord,
)
from .standby import STANDBY_HOST, StandbyPolicy, WarmStandby
from .store import RegistryStore, StoreError, WalRecord

__all__ = [
    "AcceleratorsRegistry",
    "AllocationDecision",
    "AllocationError",
    "DeviceRecord",
    "DevicesService",
    "DeviceView",
    "FunctionRecord",
    "FunctionsService",
    "HealthMonitor",
    "InstanceRecord",
    "MANAGER_ENV",
    "REGISTRY_HOST",
    "RegistryStore",
    "RegistryUnavailableError",
    "STANDBY_HOST",
    "StandbyPolicy",
    "StoreError",
    "WalRecord",
    "WarmStandby",
    "MetricFilter",
    "MetricsGatherer",
    "allocate",
    "filterby_compatibility",
    "filterby_metrics",
    "not_compatible",
    "orderby_metrics_and_acc",
    "redistribution_plan",
]
