"""Accelerated cloud functions used in the paper's evaluation.

Three accelerators, as in Section IV:

* :class:`SobelKernel` — Spector Sobel edge detector (32×8 blocks, 4×1
  window, no SIMD, 1 compute unit);
* :class:`MatrixMultiplyKernel` — Spector MM (1 CU, 8 work items, fully
  unrolled 16×16 block);
* PipeCNN (``mem_rd``/``conv``/``pool``/``lrn``/``mem_wr``) configured for
  AlexNet.

Each kernel couples a functional NumPy model (testable against golden
references) with a latency model calibrated to Figure 4 of the paper.
"""

from .alexnet import (
    INPUT_CHANNELS,
    INPUT_SIZE,
    NUM_CLASSES,
    ConvSpec,
    LayerSpec,
    LRNSpec,
    PoolSpec,
    alexnet_layers,
)
from .fir import FIRKernel, fir_reference
from .histogram import HistogramKernel, histogram_reference
from .base import (
    AcceleratorKernel,
    ArgKind,
    Direction,
    KernelArgSpec,
    KernelArgumentError,
    buffer_arg,
    scalar_arg,
)
from .mm import MatrixMultiplyKernel, SpectorMMConfig
from .pipecnn import (
    ConvKernel,
    LRNKernel,
    MemReadKernel,
    MemWriteKernel,
    PoolKernel,
    conv2d_reference,
    lrn_reference,
    maxpool_reference,
    pipecnn_kernels,
)
from .sobel import SobelKernel, SpectorSobelConfig, sobel_reference

__all__ = [
    "INPUT_CHANNELS",
    "INPUT_SIZE",
    "NUM_CLASSES",
    "AcceleratorKernel",
    "ArgKind",
    "ConvKernel",
    "ConvSpec",
    "Direction",
    "FIRKernel",
    "HistogramKernel",
    "fir_reference",
    "histogram_reference",
    "KernelArgSpec",
    "KernelArgumentError",
    "LRNKernel",
    "LRNSpec",
    "LayerSpec",
    "MatrixMultiplyKernel",
    "MemReadKernel",
    "MemWriteKernel",
    "PoolKernel",
    "PoolSpec",
    "SobelKernel",
    "SpectorMMConfig",
    "SpectorSobelConfig",
    "alexnet_layers",
    "buffer_arg",
    "conv2d_reference",
    "lrn_reference",
    "maxpool_reference",
    "pipecnn_kernels",
    "scalar_arg",
    "sobel_reference",
]
