"""The three accelerated cloud functions of the paper's evaluation.

Each app is host code written **once** against the OpenCL object model — it
runs unchanged on the native vendor runtime and on BlastFunction's Remote
OpenCL Library (the paper's transparency property).  The request flows
mirror the originals:

* **Sobel** (Spector): write image → kernel → blocking read (one task);
* **MM** (Spector): write A, write B → kernel → blocking read (one task);
* **AlexNet** (PipeCNN): per layer, enqueue ``mem_rd``/``conv``/
  (``pool``)/(``lrn``)/``mem_wr`` and wait for the layer — "several kernels
  iteratively with multiple parallel command queues", which is why its
  relative overhead under BlastFunction is the highest (Table IV).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional

from ..kernels.alexnet import LayerSpec, alexnet_layers
from ..ocl.objects import Context, Platform, wait_for_events
from ..sim import Environment


class FunctionApp(abc.ABC):
    """Base class for serverless function application code."""

    #: Host-side time per request (parse, prepare, respond), worker-node
    #: seconds; instances scale it by their node's speed factor.
    host_overhead: float = 3.0e-3

    @abc.abstractmethod
    def setup(self, env: Environment, platform: Platform, node) -> Any:
        """Process: one-time warm-up (context, program build, buffers)."""

    @abc.abstractmethod
    def handle(self, request) -> Any:
        """Process: serve one request using OpenCL."""


class SobelApp(FunctionApp):
    """Sobel edge detection on a fixed-size grayscale image."""

    host_overhead = 3.2e-3

    def __init__(self, width: int = 1920, height: int = 1080,
                 functional: bool = False, seed: int = 0):
        self.width = width
        self.height = height
        self.functional = functional
        self.seed = seed
        self.nbytes = width * height * 4
        self.input_data: Optional[bytes] = None

    def setup(self, env, platform, node):
        self.env = env
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("sobel")
        yield from program.build()
        self.kernel = program.create_kernel("sobel")
        self.in_buf = self.context.create_buffer(self.nbytes)
        self.out_buf = self.context.create_buffer(self.nbytes)
        self.kernel.set_args(self.in_buf, self.out_buf,
                             self.width, self.height)
        if self.functional:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            image = rng.integers(0, 4096, size=(self.height, self.width),
                                 dtype=np.uint32)
            self.input_data = image.tobytes()

    def handle(self, request):
        self.queue.enqueue_write_buffer(
            self.in_buf, self.input_data, nbytes=self.nbytes
        )
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.out_buf)
        return {"bytes": len(data) if data else self.nbytes}


class MMApp(FunctionApp):
    """Square float32 matrix multiply.

    The Spector MM host code transfers its operand matrices with *blocking*
    writes before launching the kernel — under BlastFunction each blocking
    write closes a small task, while the vendor runtime pays its blocking
    completion path per call.  This is the mechanism behind Table III's
    latency inversion (Native ≈ 21–24 ms vs BlastFunction ≈ 11–13 ms).
    """

    host_overhead = 2.0e-3

    def __init__(self, n: int = 448, functional: bool = False, seed: int = 0):
        self.n = n
        self.functional = functional
        self.seed = seed
        self.nbytes = n * n * 4
        self.a_data: Optional[bytes] = None
        self.b_data: Optional[bytes] = None

    def setup(self, env, platform, node):
        self.env = env
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("mm")
        yield from program.build()
        self.kernel = program.create_kernel("mm")
        self.a_buf = self.context.create_buffer(self.nbytes)
        self.b_buf = self.context.create_buffer(self.nbytes)
        self.c_buf = self.context.create_buffer(self.nbytes)
        self.kernel.set_args(self.a_buf, self.b_buf, self.c_buf,
                             self.n, self.n, self.n)
        if self.functional:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            self.a_data = rng.standard_normal(
                (self.n, self.n)).astype(np.float32).tobytes()
            self.b_data = rng.standard_normal(
                (self.n, self.n)).astype(np.float32).tobytes()

    def handle(self, request):
        yield from self.queue.write_buffer(self.a_buf, self.a_data,
                                           nbytes=self.nbytes)
        yield from self.queue.write_buffer(self.b_buf, self.b_data,
                                           nbytes=self.nbytes)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.c_buf)
        return {"bytes": len(data) if data else self.nbytes}


class FIRApp(FunctionApp):
    """FIR filter over a float32 sample block (Spector).

    Not part of the paper's evaluation trio; used by experiments that need
    extra accelerators competing for boards (the reconfiguration storm of
    the migration experiment).  Coefficients are loaded once at setup, so a
    request is write block → kernel → blocking read.
    """

    host_overhead = 1.5e-3

    def __init__(self, n: int = 1 << 20, taps: int = 64,
                 functional: bool = False, seed: int = 0):
        self.n = n
        self.taps = taps
        self.functional = functional
        self.seed = seed
        self.nbytes = n * 4
        self.signal_data: Optional[bytes] = None

    def setup(self, env, platform, node):
        self.env = env
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("fir")
        yield from program.build()
        self.kernel = program.create_kernel("fir")
        self.signal_buf = self.context.create_buffer(self.nbytes)
        self.coeffs_buf = self.context.create_buffer(self.taps * 4)
        self.out_buf = self.context.create_buffer(self.nbytes)
        self.kernel.set_args(self.signal_buf, self.coeffs_buf, self.out_buf,
                             self.n, self.taps)
        coeffs_data = None
        if self.functional:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            self.signal_data = rng.standard_normal(self.n).astype(
                np.float32).tobytes()
            coeffs_data = (np.hanning(self.taps) / self.taps).astype(
                np.float32).tobytes()
        self.queue.enqueue_write_buffer(self.coeffs_buf, coeffs_data,
                                        nbytes=self.taps * 4)
        yield from self.queue.finish()

    def handle(self, request):
        self.queue.enqueue_write_buffer(self.signal_buf, self.signal_data,
                                        nbytes=self.nbytes)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.out_buf)
        return {"bytes": len(data) if data else self.nbytes}


class HistogramApp(FunctionApp):
    """Histogram of a uint32 value block (Spector).

    Second storm app of the migration experiment: write values → kernel →
    blocking read of the (small) bin counters.
    """

    host_overhead = 1.5e-3

    def __init__(self, n: int = 1 << 20, bins: int = 1024,
                 functional: bool = False, seed: int = 0):
        self.n = n
        self.bins = bins
        self.functional = functional
        self.seed = seed
        self.nbytes = n * 4
        self.values_data: Optional[bytes] = None

    def setup(self, env, platform, node):
        self.env = env
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("histogram")
        yield from program.build()
        self.kernel = program.create_kernel("hist")
        self.values_buf = self.context.create_buffer(self.nbytes)
        self.counts_buf = self.context.create_buffer(self.bins * 4)
        self.kernel.set_args(self.values_buf, self.counts_buf,
                             self.n, self.bins)
        if self.functional:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            self.values_data = rng.integers(
                0, 1 << 32, size=self.n, dtype=np.uint32
            ).tobytes()

    def handle(self, request):
        self.queue.enqueue_write_buffer(self.values_buf, self.values_data,
                                        nbytes=self.nbytes)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.counts_buf)
        return {"bins": len(data) // 4 if data else self.bins}


class AlexNetApp(FunctionApp):
    """PipeCNN AlexNet inference, layer by layer."""

    host_overhead = 4.0e-3

    def __init__(self, functional: bool = False, seed: int = 0):
        self.functional = functional
        self.seed = seed
        self.layers: List[LayerSpec] = alexnet_layers()
        self.input_nbytes = 3 * 227 * 227 * 4
        self.input_data: Optional[bytes] = None

    def setup(self, env, platform, node):
        self.env = env
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("pipecnn_alexnet")
        yield from program.build()
        self.k_mem_rd = program.create_kernel("mem_rd")
        self.k_conv = program.create_kernel("conv")
        self.k_pool = program.create_kernel("pool")
        self.k_lrn = program.create_kernel("lrn")
        self.k_mem_wr = program.create_kernel("mem_wr")

        # Activation scratch: generous fixed-size buffers reused per layer.
        scratch = 4 << 20
        ctx = self.context
        self.act = [ctx.create_buffer(scratch), ctx.create_buffer(scratch)]
        self.staging = ctx.create_buffer(scratch)
        self.conv_out = ctx.create_buffer(scratch)
        self.pool_out = ctx.create_buffer(scratch)
        self.lrn_out = ctx.create_buffer(scratch)

        # Per-layer weights/biases, loaded once at startup.
        rng = None
        if self.functional:
            import numpy as np

            rng = np.random.default_rng(self.seed)
        self.weights = []
        self.biases = []
        for layer in self.layers:
            conv = layer.conv
            w_buf = ctx.create_buffer(conv.weight_count * 4)
            b_buf = ctx.create_buffer(conv.out_channels * 4)
            if rng is not None:
                w = (rng.standard_normal(conv.weight_count) * 0.01).astype(
                    np.float32
                )
                b = np.zeros(conv.out_channels, dtype=np.float32)
                self.queue.enqueue_write_buffer(w_buf, w.tobytes())
                self.queue.enqueue_write_buffer(b_buf, b.tobytes())
            self.weights.append(w_buf)
            self.biases.append(b_buf)
        yield from self.queue.finish()
        if self.functional:
            image = (np.asarray(
                np.random.default_rng(self.seed).standard_normal(
                    (3, 227, 227)
                ), dtype=np.float32)
            )
            self.input_data = image.tobytes()

    def handle(self, request):
        queue = self.queue
        current = self.act[0]
        queue.enqueue_write_buffer(current, self.input_data,
                                   nbytes=self.input_nbytes)
        for index, layer in enumerate(self.layers):
            conv = layer.conv
            in_bytes = conv.in_channels * conv.in_size ** 2 * 4
            self.k_mem_rd.set_args(current, self.staging, in_bytes)
            queue.enqueue_kernel(self.k_mem_rd)

            self.k_conv.set_args(
                self.staging, self.weights[index], self.biases[index],
                self.conv_out, conv.in_channels, conv.in_size,
                conv.out_channels, conv.out_size, conv.kernel, conv.stride,
                conv.pad, conv.groups, int(conv.relu),
            )
            queue.enqueue_kernel(self.k_conv)
            stage_out = self.conv_out

            if layer.pool is not None:
                pool = layer.pool
                self.k_pool.set_args(
                    stage_out, self.pool_out, pool.channels, pool.in_size,
                    pool.out_size, pool.kernel, pool.stride,
                )
                queue.enqueue_kernel(self.k_pool)
                stage_out = self.pool_out

            if layer.lrn is not None:
                lrn = layer.lrn
                self.k_lrn.set_args(
                    stage_out, self.lrn_out, lrn.channels, lrn.size,
                    lrn.local_size, lrn.alpha, lrn.beta, lrn.k,
                )
                queue.enqueue_kernel(self.k_lrn)
                stage_out = self.lrn_out

            out_bytes = layer.output_count * 4
            target = self.act[(index + 1) % 2]
            self.k_mem_wr.set_args(stage_out, target, out_bytes)
            layer_done = queue.enqueue_kernel(self.k_mem_wr)
            current = target
            # PipeCNN waits for each layer (event-driven, clWaitForEvents)
            # before launching the next; the wait forces a flush, so under
            # BlastFunction every layer boundary costs one task round trip.
            queue.flush()
            yield wait_for_events([layer_done])

        logits_bytes = 1000 * 4
        read_event = queue.enqueue_read_buffer(current, nbytes=logits_bytes)
        queue.flush()
        yield wait_for_events([read_event])
        data = read_event.value
        if self.functional and data:
            import numpy as np

            logits = np.frombuffer(data, dtype=np.float32)
            return {"top1": int(logits.argmax())}
        return {"top1": None}
