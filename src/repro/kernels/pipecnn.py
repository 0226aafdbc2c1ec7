"""PipeCNN kernels: an OpenCL CNN accelerator executed layer by layer.

PipeCNN [18] organises inference as a pipeline of OpenCL kernels —
``mem_rd`` (fetch/reorder), ``conv`` (convolution / fully-connected with
ReLU), ``pool``, ``lrn`` and ``mem_wr`` — which the host enqueues once per
layer, waiting for each layer before launching the next.  This many-kernel,
many-queue structure is exactly why the paper observes a *higher* relative
overhead for PipeCNN under BlastFunction (Table IV): every layer boundary
costs one control round trip.

Timing model calibration: the aggregate AlexNet inference time lands at
≈ 85 ms of device time, consistent with Table IV (Native ≈ 94 ms end-to-end
latency at ≈ 96% utilization for 11.91 rq/s over three boards).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .base import AcceleratorKernel, Direction, buffer_arg, scalar_arg

if TYPE_CHECKING:
    import numpy as np

#: Convolution engine MAC rate (MAC/s).
CONV_MAC_RATE = 12.0e9

#: Fully-connected (memory-bound) MAC rate (MAC/s).
FC_MAC_RATE = 2.2e9

#: Pooling/LRN element-operation rate (ops/s).
POOL_OP_RATE = 2.0e9
LRN_OP_RATE = 2.0e9

#: On-chip reorder bandwidth for mem_rd/mem_wr (bytes/s).
MEM_REORDER_BANDWIDTH = 20.0e9

#: Per-kernel launch overhead (seconds).
PIPECNN_LAUNCH_OVERHEAD = 50e-6

BYTES_PER_VALUE = 4  # float32 activations and weights


class MemReadKernel(AcceleratorKernel):
    """``mem_rd(src, dst, nbytes)`` — fetch/reorder activations."""

    name = "mem_rd"
    args = (
        buffer_arg("src", Direction.IN),
        buffer_arg("dst", Direction.OUT),
        scalar_arg("nbytes"),
    )

    def duration(self, args: Mapping[str, object]) -> float:
        nbytes = int(args["nbytes"])  # type: ignore[arg-type]
        if nbytes < 0:
            raise ValueError("negative size")
        return PIPECNN_LAUNCH_OVERHEAD + nbytes / MEM_REORDER_BANDWIDTH

    def compute(self, args: Mapping[str, object]) -> None:
        nbytes = int(args["nbytes"])  # type: ignore[arg-type]
        src, dst = args["src"], args["dst"]
        dst.write(src.read(nbytes), 0)  # type: ignore[union-attr]


class MemWriteKernel(MemReadKernel):
    """``mem_wr(src, dst, nbytes)`` — write back/reorder results."""

    name = "mem_wr"


class ConvKernel(AcceleratorKernel):
    """``conv(...)`` — grouped 2-D convolution (+bias, +optional ReLU).

    Fully-connected layers run on the same engine as 1×1-output
    convolutions; they hit the memory-bound :data:`FC_MAC_RATE`.
    """

    name = "conv"
    args = (
        buffer_arg("input", Direction.IN),
        buffer_arg("weights", Direction.IN),
        buffer_arg("bias", Direction.IN),
        buffer_arg("output", Direction.OUT),
        scalar_arg("in_channels"),
        scalar_arg("in_size"),
        scalar_arg("out_channels"),
        scalar_arg("out_size"),
        scalar_arg("kernel"),
        scalar_arg("stride"),
        scalar_arg("pad"),
        scalar_arg("groups"),
        scalar_arg("relu"),
    )

    @staticmethod
    def _geometry(args: Mapping[str, object]):
        keys = ("in_channels", "in_size", "out_channels", "out_size",
                "kernel", "stride", "pad", "groups", "relu")
        return tuple(int(args[key]) for key in keys)  # type: ignore[arg-type]

    def duration(self, args: Mapping[str, object]) -> float:
        (in_c, _in_s, out_c, out_s, k, _s, _p, groups, _relu) = \
            self._geometry(args)
        macs = out_s * out_s * out_c * k * k * (in_c // groups)
        rate = FC_MAC_RATE if out_s == 1 else CONV_MAC_RATE
        return PIPECNN_LAUNCH_OVERHEAD + macs / rate

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        (in_c, in_s, out_c, out_s, k, stride, pad, groups, relu) = \
            self._geometry(args)
        x = args["input"].as_array(np.float32, (in_c, in_s, in_s))  # type: ignore[union-attr]
        w = args["weights"].as_array(  # type: ignore[union-attr]
            np.float32, (out_c, in_c // groups, k, k)
        )
        b = args["bias"].as_array(np.float32, (out_c,))  # type: ignore[union-attr]
        out = args["output"].as_array(np.float32, (out_c, out_s, out_s))  # type: ignore[union-attr]
        out[:, :, :] = conv2d_reference(
            x, w, b, stride=stride, pad=pad, groups=groups, relu=bool(relu)
        )


class PoolKernel(AcceleratorKernel):
    """``pool(input, output, channels, in_size, out_size, kernel, stride)``."""

    name = "pool"
    args = (
        buffer_arg("input", Direction.IN),
        buffer_arg("output", Direction.OUT),
        scalar_arg("channels"),
        scalar_arg("in_size"),
        scalar_arg("out_size"),
        scalar_arg("kernel"),
        scalar_arg("stride"),
    )

    def duration(self, args: Mapping[str, object]) -> float:
        channels = int(args["channels"])  # type: ignore[arg-type]
        out_size = int(args["out_size"])  # type: ignore[arg-type]
        kernel = int(args["kernel"])  # type: ignore[arg-type]
        ops = channels * out_size * out_size * kernel * kernel
        return PIPECNN_LAUNCH_OVERHEAD + ops / POOL_OP_RATE

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        channels = int(args["channels"])  # type: ignore[arg-type]
        in_size = int(args["in_size"])  # type: ignore[arg-type]
        out_size = int(args["out_size"])  # type: ignore[arg-type]
        kernel = int(args["kernel"])  # type: ignore[arg-type]
        stride = int(args["stride"])  # type: ignore[arg-type]
        x = args["input"].as_array(np.float32, (channels, in_size, in_size))  # type: ignore[union-attr]
        out = args["output"].as_array(  # type: ignore[union-attr]
            np.float32, (channels, out_size, out_size)
        )
        out[:, :, :] = maxpool_reference(x, kernel, stride)


class LRNKernel(AcceleratorKernel):
    """``lrn(input, output, channels, size, local_size, alpha, beta, k)``."""

    name = "lrn"
    args = (
        buffer_arg("input", Direction.IN),
        buffer_arg("output", Direction.OUT),
        scalar_arg("channels"),
        scalar_arg("size"),
        scalar_arg("local_size"),
        scalar_arg("alpha"),
        scalar_arg("beta"),
        scalar_arg("k"),
    )

    def duration(self, args: Mapping[str, object]) -> float:
        channels = int(args["channels"])  # type: ignore[arg-type]
        size = int(args["size"])  # type: ignore[arg-type]
        local_size = int(args["local_size"])  # type: ignore[arg-type]
        ops = channels * size * size * local_size
        return PIPECNN_LAUNCH_OVERHEAD + ops / LRN_OP_RATE

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        channels = int(args["channels"])  # type: ignore[arg-type]
        size = int(args["size"])  # type: ignore[arg-type]
        local_size = int(args["local_size"])  # type: ignore[arg-type]
        alpha = float(args["alpha"])  # type: ignore[arg-type]
        beta = float(args["beta"])  # type: ignore[arg-type]
        k = float(args["k"])  # type: ignore[arg-type]
        x = args["input"].as_array(np.float32, (channels, size, size))  # type: ignore[union-attr]
        out = args["output"].as_array(np.float32, (channels, size, size))  # type: ignore[union-attr]
        out[:, :, :] = lrn_reference(x, local_size, alpha, beta, k)


# ---------------------------------------------------------------------------
# Golden reference implementations (shared with the test suite)
# ---------------------------------------------------------------------------

def conv2d_reference(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int,
    pad: int,
    groups: int = 1,
    relu: bool = True,
) -> np.ndarray:
    """Grouped 2-D convolution via im2col; float32 in, float32 out."""
    import numpy as np

    in_c, in_h, in_w = x.shape
    out_c, in_c_per_group, k, _ = w.shape
    if in_c % groups or out_c % groups:
        raise ValueError("channels must divide evenly into groups")
    if in_c // groups != in_c_per_group:
        raise ValueError("weight shape inconsistent with groups")

    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_h = (in_h + 2 * pad - k) // stride + 1
    out_w = (in_w + 2 * pad - k) // stride + 1
    out = np.empty((out_c, out_h, out_w), dtype=np.float32)

    out_c_per_group = out_c // groups
    for g in range(groups):
        xg = padded[g * in_c_per_group:(g + 1) * in_c_per_group]
        # im2col: (in_c_per_group*k*k, out_h*out_w)
        cols = np.empty((in_c_per_group * k * k, out_h * out_w),
                        dtype=np.float32)
        idx = 0
        for c in range(in_c_per_group):
            for dy in range(k):
                for dx in range(k):
                    patch = xg[
                        c,
                        dy:dy + out_h * stride:stride,
                        dx:dx + out_w * stride:stride,
                    ]
                    cols[idx] = patch.reshape(-1)
                    idx += 1
        wg = w[g * out_c_per_group:(g + 1) * out_c_per_group].reshape(
            out_c_per_group, -1
        )
        og = wg @ cols + b[
            g * out_c_per_group:(g + 1) * out_c_per_group, None
        ]
        out[g * out_c_per_group:(g + 1) * out_c_per_group] = og.reshape(
            out_c_per_group, out_h, out_w
        )
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def maxpool_reference(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Max pooling over square windows (valid padding)."""
    import numpy as np

    channels, in_h, in_w = x.shape
    out_h = (in_h - kernel) // stride + 1
    out_w = (in_w - kernel) // stride + 1
    out = np.full((channels, out_h, out_w), -np.inf, dtype=np.float32)
    for dy in range(kernel):
        for dx in range(kernel):
            window = x[
                :,
                dy:dy + out_h * stride:stride,
                dx:dx + out_w * stride:stride,
            ]
            np.maximum(out, window, out=out)
    return out


def lrn_reference(
    x: np.ndarray, local_size: int, alpha: float, beta: float, k: float
) -> np.ndarray:
    """AlexNet cross-channel local response normalisation."""
    import numpy as np

    channels = x.shape[0]
    squared = x.astype(np.float64) ** 2
    half = local_size // 2
    scale = np.full_like(squared, k)
    for c in range(channels):
        lo = max(0, c - half)
        hi = min(channels, c + half + 1)
        scale[c] += (alpha / local_size) * squared[lo:hi].sum(axis=0)
    return (x / scale ** beta).astype(np.float32)


def pipecnn_kernels() -> list[AcceleratorKernel]:
    """The full PipeCNN kernel set, as packaged in its bitstream."""
    return [
        MemReadKernel(),
        ConvKernel(),
        PoolKernel(),
        LRNKernel(),
        MemWriteKernel(),
    ]
