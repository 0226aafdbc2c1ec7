"""Function instances: the warm runtime executing inside each pod.

On start an instance acquires its OpenCL platform — the Remote OpenCL
Library pointed at the Device Manager the Accelerators Registry patched into
the pod's environment, or the native vendor runtime for baseline
deployments — runs the app's one-time setup (program build, buffers), then
serves requests from the function's endpoint queue one at a time (the
single-connection watchdog model the paper loads with ``hey -c 1``).
"""

from __future__ import annotations

from typing import Optional

from ..cluster.objects import ClusterNode, Pod
from ..core.registry.registry import MANAGER_ENV
from ..core.remote_lib.router import PlatformRouter
from ..ocl.native import NativeDriver, native_platform
from ..ocl.objects import Platform
from ..sim import Environment, Interrupt
from .gateway import DeployedFunction, InvocationError


class InstanceStartupError(RuntimeError):
    """The instance could not acquire its platform or set up the app."""


class FunctionInstance:
    """One running instance (pod) of a deployed function."""

    def __init__(
        self,
        env: Environment,
        function: DeployedFunction,
        pod: Pod,
        node: ClusterNode,
        router: Optional[PlatformRouter],
    ):
        self.env = env
        self.function = function
        self.pod = pod
        self.node = node
        self.router = router
        self.app = function.spec.app_factory()
        self.platform: Optional[Platform] = None
        self.requests_served = 0
        self._current = None  # request being handled right now
        #: Exception that killed startup, if any (the instance stays down).
        self.startup_error: Optional[BaseException] = None
        self.ready = env.event()
        self.process = env.process(self._run())
        pod.process = self.process

    # -- platform acquisition --------------------------------------------------
    def _acquire_platform(self):
        runtime = self.function.spec.runtime
        if runtime == "native":
            if self.node.board is None:
                raise InstanceStartupError(
                    f"node {self.node.name} has no FPGA board"
                )
            # The vendor runtime linked directly, under serverless load.
            from ..fpga.bitstream import standard_library

            library = (
                self.router.library if self.router else standard_library()
            )
            platform = native_platform(
                self.env, self.node.board, library,
                host=self.node.spec.host,
            )
            platform.driver.loaded = True
            return platform
        if runtime == "blastfunction":
            if self.router is None:
                raise InstanceStartupError("no platform router configured")
            manager_name = self.pod.spec.env.get(MANAGER_ENV)
            platform = yield from self.router.connect(
                self.pod.name, self.node.host, manager_name,
                prefer_shm=self.pod.spec.shm_volume,
            )
            return platform
        raise InstanceStartupError(f"unknown runtime {runtime!r}")

    # -- main loop -------------------------------------------------------------
    def _run(self):
        try:
            self.platform = yield from self._acquire_platform()
            yield from self.app.setup(self.env, self.platform, self.node)
            if not self.ready.triggered:
                self.ready.succeed()
            while True:
                request = yield self.function.request_queue.get()
                self._current = request
                try:
                    host_overhead = (
                        self.app.host_overhead
                        * self.node.spec.host.speed_factor
                    )
                    yield self.env.timeout(host_overhead)
                    result = yield from self.app.handle(request)
                except Interrupt:
                    raise
                except Exception as exc:  # noqa: BLE001 - surfaced to caller
                    if not request.response.triggered:
                        request.response.fail(InvocationError(str(exc)))
                        request.response.defused = True
                    connection = getattr(self.platform.driver,
                                         "connection", None)
                    if (connection is not None
                            and connection.transport.broken is not None):
                        # The connection to the Device Manager broke (a
                        # crash, or a partition outlasting the transport's
                        # user timeout): take no request until a fresh
                        # session is warm.
                        self._teardown()
                        self.platform = yield from self._acquire_platform()
                        yield from self.app.setup(self.env, self.platform,
                                                  self.node)
                else:
                    self.requests_served += 1
                    if not request.response.triggered:
                        request.response.settle(result)
                self._current = None
        except Interrupt:
            self._fail_inflight()
            self._teardown()
            return
        except Exception as exc:  # noqa: BLE001 - startup failures
            # Contained: one instance failing to come up (e.g. its board's
            # reconfiguration was denied) must not crash the control plane.
            # Waiters observe the failure through the failed ``ready`` event.
            if not self.ready.triggered:
                self.ready.fail(exc)
                self.ready.defused = True
            self.startup_error = exc
            self._fail_inflight()
            self._teardown()
            return

    def _fail_inflight(self) -> None:
        """Never strand a caller: fail the request we died holding."""
        request, self._current = self._current, None
        if request is not None and not request.response.triggered:
            request.response.fail(InvocationError(
                f"instance {self.pod.name} terminated mid-request"))
            request.response.defused = True

    def _teardown(self) -> None:
        if self.platform is not None:
            driver = self.platform.driver
            close = getattr(driver, "close", None)
            if close is not None:
                close()
