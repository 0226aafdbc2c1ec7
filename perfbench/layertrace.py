"""Per-layer tracing for the benchmark's traced run.

Everything here lives outside the program: wrappers are installed around
each layer's entry points by patching class and module attributes, and a
:class:`TracingEnvironment` subclass counts every scheduled event.  The
wrappers yield exactly the events the wrapped code yields, so a traced run
simulates the same bytes as an untraced one (the benchmark checks this).

* **Self time.**  A layer's self time is the host time inside its wrapped
  entry points minus the time spent in nested wrapped entry points.  A
  generator entry point is timed on every resume.  Every process body is
  wrapped as it is started, attributed to the layer its code lives in.
  Whatever no wrapper covers (the event loop, heap, callbacks) is ``sim``.
* **Events.**  Each scheduled event belongs to the innermost non-``sim``
  frame of the stack that scheduled it.  Process start-up and completion
  events, and events scheduled from inside the event loop's callbacks, are
  ``sim``'s own.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import Counter
from functools import lru_cache
from time import perf_counter
from types import GeneratorType
from typing import Callable, List, Optional, Tuple

import repro
from repro.serverless.gateway import Request
from repro.sim import Environment, Initialize, Process
from repro.sim.events import NORMAL
from repro.sim.resources import StoreGet

#: Layer names, in report order; each is a package of ``repro``.
LAYERS = ("sim", "rpc", "remote_lib", "device_manager", "ocl", "fpga",
          "metrics", "registry", "serverless", "live", "cluster", "loadgen")

#: Packages whose code is attributed to another layer.
_PACKAGE_LAYER = {"kernels": "fpga"}

_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Entry points wrapped in the traced run: (layer, module, attribute).  An
#: attribute is ``Class.method`` or a module-level function.  The list holds
#: the calls that cross from one layer into another on the three workloads.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # rpc
    ("rpc", "repro.rpc.transport", "Transport.deliver_to_server"),
    ("rpc", "repro.rpc.transport", "Transport.deliver_to_client"),
    ("rpc", "repro.rpc.transport", "Transport.data_to_server"),
    ("rpc", "repro.rpc.transport", "Transport.data_to_client"),
    ("rpc", "repro.rpc.transport", "Transport.control_to_client"),
    ("rpc", "repro.rpc.transport", "make_transport"),
    ("rpc", "repro.rpc.messages", "unary_call"),
    ("rpc", "repro.rpc.messages", "reply"),
    ("rpc", "repro.rpc.messages", "reply_error"),
    ("rpc", "repro.rpc.messages", "send_to_client"),
    ("rpc", "repro.rpc.network", "Network.transfer"),
    ("rpc", "repro.rpc.network", "Network.host"),
    # remote_lib
    ("remote_lib", "repro.core.remote_lib.driver", "RemoteDriver.enqueue"),
    ("remote_lib", "repro.core.remote_lib.driver", "RemoteDriver.flush"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.host_sync_delay"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.create_buffer"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.release_buffer"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.build_program"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.create_queue"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.release_queue"),
    ("remote_lib", "repro.core.remote_lib.driver",
     "RemoteDriver.kernel_arg_count"),
    ("remote_lib", "repro.core.remote_lib.router", "PlatformRouter.connect"),
    ("remote_lib", "repro.core.remote_lib.connection", "Connection.call"),
    ("remote_lib", "repro.core.remote_lib.connection",
     "Connection.stream_send"),
    ("remote_lib", "repro.core.remote_lib.connection",
     "Connection.stream_send_op"),
    ("remote_lib", "repro.core.remote_lib.connection",
     "Connection.stream_write_data"),
    ("remote_lib", "repro.core.remote_lib.connection",
     "Connection.pause_stream"),
    ("remote_lib", "repro.core.remote_lib.connection",
     "Connection.resume_stream"),
    ("remote_lib", "repro.core.remote_lib.connection", "Connection.rebind"),
    # device_manager
    ("device_manager", "repro.core.device_manager.manager",
     "DeviceManager.__init__"),
    ("device_manager", "repro.core.device_manager.manager",
     "DeviceManager._on_board_activity"),
    ("device_manager", "repro.core.device_manager.manager",
     "DeviceManager.drain"),
    ("device_manager", "repro.core.device_manager.manager",
     "DeviceManager.resume"),
    ("device_manager", "repro.core.device_manager.manager",
     "DeviceManager.steal_parked_ops"),
    ("device_manager", "repro.core.device_manager.manager",
     "DeviceManager.take_client_tasks"),
    # ocl
    ("ocl", "repro.ocl.objects", "CommandQueue.enqueue_write_buffer"),
    ("ocl", "repro.ocl.objects", "CommandQueue.enqueue_read_buffer"),
    ("ocl", "repro.ocl.objects", "CommandQueue.enqueue_copy_buffer"),
    ("ocl", "repro.ocl.objects", "CommandQueue.enqueue_kernel"),
    ("ocl", "repro.ocl.objects", "CommandQueue.finish"),
    ("ocl", "repro.ocl.objects", "CommandQueue.write_buffer"),
    ("ocl", "repro.ocl.objects", "CommandQueue.read_buffer"),
    ("ocl", "repro.ocl.objects", "CommandQueue.run_kernel"),
    ("ocl", "repro.ocl.objects", "Context.create_buffer"),
    ("ocl", "repro.ocl.objects", "Context.create_queue"),
    ("ocl", "repro.ocl.objects", "Context.create_program"),
    ("ocl", "repro.ocl.objects", "Program.build"),
    ("ocl", "repro.ocl.objects", "Program.create_kernel"),
    ("ocl", "repro.ocl.objects", "Kernel.set_args"),
    ("ocl", "repro.ocl.objects", "Platform.get_devices"),
    ("ocl", "repro.ocl.objects", "CLEvent.set_status"),
    ("ocl", "repro.ocl.objects", "CLEvent.complete"),
    ("ocl", "repro.ocl.objects", "CLEvent.fail"),
    # fpga
    ("fpga", "repro.fpga.board", "FPGABoard.__init__"),
    ("fpga", "repro.fpga.board", "FPGABoard.dma_write"),
    ("fpga", "repro.fpga.board", "FPGABoard.dma_read"),
    ("fpga", "repro.fpga.board", "FPGABoard.execute"),
    ("fpga", "repro.fpga.board", "FPGABoard.program"),
    ("fpga", "repro.fpga.board", "FPGABoard.allocate"),
    ("fpga", "repro.fpga.board", "FPGABoard.free"),
    ("fpga", "repro.fpga.ddr", "materialize"),
    # metrics
    ("metrics", "repro.metrics.registry", "MetricFamily.labels"),
    ("metrics", "repro.metrics.registry", "MetricFamily.inc"),
    ("metrics", "repro.metrics.registry", "MetricFamily.set"),
    ("metrics", "repro.metrics.registry", "MetricFamily.observe"),
    ("metrics", "repro.metrics.registry", "_Child.inc"),
    ("metrics", "repro.metrics.registry", "_Child.set"),
    ("metrics", "repro.metrics.registry", "_Child.observe"),
    ("metrics", "repro.metrics.registry", "MetricsRegistry.__init__"),
    ("metrics", "repro.metrics.scraper", "Scraper.scrape_once"),
    ("metrics", "repro.metrics.scraper", "Scraper.add_target"),
    ("metrics", "repro.metrics.timeseries", "TimeSeries.latest"),
    ("metrics", "repro.metrics.timeseries", "TimeSeries.rate"),
    ("metrics", "repro.metrics.timeseries", "TimeSeries.avg"),
    ("metrics", "repro.metrics.timeseries", "TimeSeries.first_time_in"),
    ("metrics", "repro.metrics.timeseries",
     "TimeSeriesDatabase.select_matching"),
    # registry
    ("registry", "repro.core.registry.registry",
     "AcceleratorsRegistry.__init__"),
    ("registry", "repro.core.registry.registry",
     "AcceleratorsRegistry._admit"),
    ("registry", "repro.core.registry.registry",
     "AcceleratorsRegistry._on_watch"),
    ("registry", "repro.core.registry.registry",
     "AcceleratorsRegistry._on_scrape"),
    ("registry", "repro.core.registry.registry",
     "AcceleratorsRegistry._validate_reconfiguration"),
    ("registry", "repro.core.registry.registry",
     "AcceleratorsRegistry.complete_live_migration"),
    ("registry", "repro.core.registry.health", "HealthMonitor._tick"),
    # serverless
    ("serverless", "repro.serverless.gateway", "Gateway.invoke"),
    ("serverless", "repro.serverless.gateway", "Gateway.deploy"),
    ("serverless", "repro.serverless.controller",
     "FunctionController._on_watch"),
    ("serverless", "repro.serverless.controller",
     "FunctionController.wait_ready"),
    ("serverless", "repro.serverless.controller",
     "FunctionController.migrate"),
    # live
    ("live", "repro.live.migration", "LiveMigrator.migrate"),
    # cluster
    ("cluster", "repro.cluster.testbed", "build_testbed"),
    ("cluster", "repro.cluster.apiserver", "Cluster.create_pod"),
    ("cluster", "repro.cluster.apiserver", "Cluster.patch_pod"),
    ("cluster", "repro.cluster.apiserver", "Cluster.delete_pod"),
    # loadgen
    ("loadgen", "repro.loadgen.hey", "run_load"),
)


@lru_cache(maxsize=None)
def _layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for frames the event
    attribution looks through (``sim``, this file, generated code)."""
    if filename.startswith(_HERE):
        return "loadgen" if filename.endswith("workloads.py") else None
    if not filename.startswith(_REPRO):
        return None
    package = filename[len(_REPRO):].split(os.sep)
    name = package[1] if package[0] == "core" else package[0]
    name = _PACKAGE_LAYER.get(name, name)
    return None if name == "sim" else name


class Tracer:
    """Self time per layer, call counts per entry point, events per layer."""

    def __init__(self) -> None:
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        #: Simulated seconds spent inside ``Connection.call`` (sum, count).
        self.call_wait = [0.0, 0]
        #: Host data copies recorded by every transport.
        self.copies = 0
        #: Simulated seconds requests waited in a function's queue.
        self.queue_wait = [0.0, 0]
        self.events: Counter = Counter()
        self.heap_peak = 0
        self._stack: List[List[float]] = []
        self._run_code = Environment.run.__code__

    # -- self time ---------------------------------------------------------
    def _account(self, layer: str, start: float, frame: List[float]) -> None:
        elapsed = perf_counter() - start
        stack = self._stack
        stack.pop()
        self.self_time[layer] += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed

    def traced_generator(self, layer: str, generator):
        """Delegate to ``generator`` like ``yield from``, timing each resume."""
        stack = self._stack
        value = None
        error: Optional[BaseException] = None
        while True:
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                if error is None:
                    event = generator.send(value)
                else:
                    event = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._account(layer, start, frame)
            try:
                value = yield event
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded inward
                value, error = None, exc

    def wrap(self, layer: str, key: str, function: Callable) -> Callable:
        stack = self._stack
        calls = self.calls
        tracer = self

        def traced(*args, **kwargs):
            calls[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._account(layer, start, frame)
            if type(result) is GeneratorType:
                return tracer.traced_generator(layer, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every entry point (class attribute or module function)."""
        for layer, module_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            key = f"{layer}:{attribute}"
            if "." in attribute:
                owner_name, name = attribute.split(".")
                owner = getattr(module, owner_name)
                original = inspect.getattr_static(owner, name)
                if not inspect.isfunction(original):
                    raise TypeError(f"{module_name}.{attribute} is not a "
                                    "plain function")
                setattr(owner, name, self.wrap(layer, key, original))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(layer, key, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if namespace is None:
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, name, wrapped)
        self._wrap_special()

    def _wrap_special(self) -> None:
        """Entry points whose arguments carry a count or a simulated time."""
        from repro.core.remote_lib.connection import Connection
        from repro.rpc.transport import CopyStats

        record = CopyStats.record

        def counted_record(stats, count, nbytes):
            self.copies += count
            return record(stats, count, nbytes)

        CopyStats.record = counted_record
        call = Connection.call

        def timed_call(connection, method, payload):
            env = connection.env
            start = env.now
            result = yield from call(connection, method, payload)
            self.call_wait[0] += env.now - start
            self.call_wait[1] += 1
            return result

        Connection.call = timed_call

    # -- events ------------------------------------------------------------
    def layer_of_caller(self, frame) -> str:
        """The innermost layer on the stack above the event loop."""
        run_code = self._run_code
        while frame is not None:
            code = frame.f_code
            if code is run_code:
                return "sim"
            layer = _layer_of_file(code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "sim"


class TracingEnvironment(Environment):
    """An :class:`Environment` that attributes every event to a layer,
    records the event heap's peak depth and the request queue wait, and
    traces every process body it starts."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def schedule(self, event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        tracer = self.tracer
        if type(event) is Initialize or isinstance(event, Process):
            layer = "sim"
        else:
            layer = tracer.layer_of_caller(sys._getframe(1))
            if type(event) is StoreGet and type(event._value) is Request:
                wait = tracer.queue_wait
                wait[0] += self._now - event._value.created
                wait[1] += 1
        tracer.events[layer] += 1
        super().schedule(event, delay, priority)
        depth = len(self._queue)
        if depth > tracer.heap_peak:
            tracer.heap_peak = depth

    def process(self, generator):
        if type(generator) is GeneratorType:
            layer = _layer_of_file(generator.gi_code.co_filename)
            if layer is not None:
                generator = self.tracer.traced_generator(layer, generator)
        return super().process(generator)
