"""Platform router: discovery and connection establishment.

"The Remote OpenCL Library implements a central router component, which
keeps the list of the available platforms.  In particular, it gets the
address of the selected Device Manager (or managers if multiple addresses
are provided) and creates a connection to it through gRPC" (Section III-A).

In the deployed system the manager addresses arrive through environment
variables patched into the function's pod by the Accelerators Registry; the
serverless runtime passes the same information here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...fpga.bitstream import BitstreamLibrary
from ...ocl.objects import Platform
from ...rpc import Network, NetworkHost, RpcEndpoint
from ...sim import Environment
from ..device_manager import protocol
from ..device_manager.manager import DeviceManager
from .connection import Connection
from .driver import RemoteDriver


@dataclass(frozen=True)
class ManagerAddress:
    """Where a Device Manager can be reached."""

    name: str
    endpoint: RpcEndpoint
    node: NetworkHost

    @classmethod
    def of(cls, manager: DeviceManager) -> "ManagerAddress":
        return cls(manager.name, manager.endpoint, manager.node)


class PlatformRouter:
    """Keeps the list of available Device Managers and opens connections."""

    def __init__(self, env: Environment, network: Network,
                 library: BitstreamLibrary, recovery=None):
        self.env = env
        self.network = network
        self.library = library
        #: Optional :class:`~repro.faults.RetryPolicy` applied to every
        #: connection this router opens (``None`` = no recovery machinery).
        self.recovery = recovery
        self._managers: Dict[str, ManagerAddress] = {}
        #: Every connection opened through this router (chaos harnesses
        #: inspect these for in-flight machines and retry counts).
        self.connections: List[Connection] = []

    def add_manager(self, address: ManagerAddress) -> None:
        self._managers[address.name] = address

    def add_managers(self, addresses: List[ManagerAddress]) -> None:
        for address in addresses:
            self.add_manager(address)

    def connect(
        self,
        client_name: str,
        client_host: NetworkHost,
        manager_name: Optional[str] = None,
        prefer_shm: bool = True,
    ):
        """Process: connect to a Device Manager and build the platform.

        Returns a fully usable :class:`~repro.ocl.objects.Platform` whose
        driver is the Remote OpenCL Library — the object host code receives
        from ``clGetPlatformIDs``.
        """
        if not self._managers:
            raise LookupError("no Device Managers registered with the router")
        if manager_name is None:
            manager_name = sorted(self._managers)[0]
        try:
            address = self._managers[manager_name]
        except KeyError:
            raise LookupError(
                f"unknown Device Manager {manager_name!r} "
                f"(have {sorted(self._managers)})"
            ) from None

        connection = Connection(
            self.env, client_name, self.network, client_host,
            address.endpoint, address.node, prefer_shm=prefer_shm,
            recovery=self.recovery,
        )
        self.connections.append(connection)
        yield from connection.connect()
        platform_info = yield from connection.call(
            protocol.GET_PLATFORM_INFO, {}
        )
        device_info = yield from connection.call(
            protocol.GET_DEVICE_INFO, {}
        )
        driver = RemoteDriver(connection, self.library, platform_info,
                              device_info)
        return Platform(driver)


def remote_platform(
    env: Environment,
    client_name: str,
    client_host: NetworkHost,
    manager: DeviceManager,
    network: Network,
    library: BitstreamLibrary,
    prefer_shm: bool = True,
):
    """Process: one-call convenience to connect a client to one manager."""
    router = PlatformRouter(env, network, library)
    router.add_manager(ManagerAddress.of(manager))
    platform = yield from router.connect(
        client_name, client_host, manager.name, prefer_shm=prefer_shm
    )
    return platform
