"""AlexNet network description for the PipeCNN accelerator.

PipeCNN executes CNNs layer by layer: for each layer the host enqueues the
``mem_rd`` (fetch/reorder), ``conv`` (convolution or fully-connected),
optionally ``pool``/``lrn``, and ``mem_wr`` kernels, then waits for the
layer to finish before launching the next one.  This module describes the
AlexNet topology the paper synthesized ("we synthesized PipeCNN with AlexNet
as in [18]") in a form both the functional model and the serverless
application can consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class ConvSpec:
    """A convolution (or FC-as-convolution) stage."""

    in_channels: int
    in_size: int           # square spatial input (after padding applied below)
    out_channels: int
    out_size: int          # square spatial output
    kernel: int
    stride: int
    pad: int
    groups: int = 1
    relu: bool = True

    @property
    def weight_count(self) -> int:
        return (
            self.out_channels * (self.in_channels // self.groups)
            * self.kernel * self.kernel
        )

    def __post_init__(self) -> None:
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("channels must divide evenly into groups")
        expected = (self.in_size + 2 * self.pad - self.kernel) // self.stride + 1
        if expected != self.out_size:
            raise ValueError(
                f"inconsistent geometry: expected out_size {expected}, "
                f"declared {self.out_size}"
            )


@dataclass(frozen=True)
class PoolSpec:
    """A max-pooling stage."""

    channels: int
    in_size: int
    out_size: int
    kernel: int
    stride: int

    def __post_init__(self) -> None:
        expected = (self.in_size - self.kernel) // self.stride + 1
        if expected != self.out_size:
            raise ValueError(
                f"inconsistent pooling geometry: expected {expected}, "
                f"declared {self.out_size}"
            )


@dataclass(frozen=True)
class LRNSpec:
    """Local response normalisation across channels."""

    channels: int
    size: int              # square spatial size
    local_size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75
    k: float = 1.0


@dataclass(frozen=True)
class LayerSpec:
    """One PipeCNN *layer invocation*: conv plus optional pool/lrn."""

    name: str
    conv: ConvSpec
    pool: Optional[PoolSpec] = None
    lrn: Optional[LRNSpec] = None

    @property
    def output_channels(self) -> int:
        return self.conv.out_channels

    @property
    def output_size(self) -> int:
        if self.pool is not None:
            return self.pool.out_size
        return self.conv.out_size

    @property
    def output_count(self) -> int:
        return self.output_channels * self.output_size ** 2


def alexnet_layers() -> List[LayerSpec]:
    """The 8 AlexNet layer invocations as configured in PipeCNN."""
    return [
        LayerSpec(
            "conv1",
            ConvSpec(3, 227, 96, 55, kernel=11, stride=4, pad=0),
            pool=PoolSpec(96, 55, 27, kernel=3, stride=2),
            lrn=LRNSpec(96, 27),
        ),
        LayerSpec(
            "conv2",
            ConvSpec(96, 27, 256, 27, kernel=5, stride=1, pad=2, groups=2),
            pool=PoolSpec(256, 27, 13, kernel=3, stride=2),
            lrn=LRNSpec(256, 13),
        ),
        LayerSpec(
            "conv3",
            ConvSpec(256, 13, 384, 13, kernel=3, stride=1, pad=1),
        ),
        LayerSpec(
            "conv4",
            ConvSpec(384, 13, 384, 13, kernel=3, stride=1, pad=1, groups=2),
        ),
        LayerSpec(
            "conv5",
            ConvSpec(384, 13, 256, 13, kernel=3, stride=1, pad=1, groups=2),
            pool=PoolSpec(256, 13, 6, kernel=3, stride=2),
        ),
        LayerSpec(
            "fc6",
            ConvSpec(256, 6, 4096, 1, kernel=6, stride=1, pad=0),
        ),
        LayerSpec(
            "fc7",
            ConvSpec(4096, 1, 4096, 1, kernel=1, stride=1, pad=0),
        ),
        LayerSpec(
            "fc8",
            ConvSpec(4096, 1, 1000, 1, kernel=1, stride=1, pad=0, relu=False),
        ),
    ]


#: Input image geometry expected by AlexNet.
INPUT_CHANNELS = 3
INPUT_SIZE = 227
NUM_CLASSES = 1000
