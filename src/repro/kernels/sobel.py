"""Sobel edge detector from the Spector benchmark suite.

The paper synthesizes the Spector Sobel operator with the configuration that
gives the best latency: 32×8 blocks, 4×1 window, no SIMD, a single compute
unit.  The timing model is calibrated against Figure 4(b): the native RTT is
0.27 ms for a 10×10 image and 14.53 ms for 1920×1080 (≈ 8 MB written and
read), implying a streaming throughput of ≈ 175 Mpixel/s for the kernel
portion once the PCIe transfer time is subtracted.

Pixels are 32-bit (as in Spector), so a W×H image moves ``4·W·H`` bytes in
each direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .base import AcceleratorKernel, Direction, buffer_arg, scalar_arg

if TYPE_CHECKING:
    import numpy as np

#: Bytes per pixel on the wire and in device memory.
BYTES_PER_PIXEL = 4

#: Calibrated kernel throughput (pixels/second), from Fig. 4(b).
SOBEL_THROUGHPUT = 175.4e6

#: Fixed kernel launch/drain latency, seconds.
SOBEL_LAUNCH_OVERHEAD = 30e-6

#: Saturation ceiling of the 32-bit magnitude output.
_MAX_MAGNITUDE = 0xFFFFFFFF

_GX = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
_GY = ((-1, -2, -1), (0, 0, 0), (1, 2, 1))


@dataclass(frozen=True)
class SpectorSobelConfig:
    """Design-space point used for synthesis (Section IV of the paper)."""

    block: tuple[int, int] = (32, 8)
    window: tuple[int, int] = (4, 1)
    simd: int = 1
    compute_units: int = 1


class SobelKernel(AcceleratorKernel):
    """``sobel(in_img, out_img, width, height)`` — 3×3 gradient magnitude."""

    name = "sobel"
    args = (
        buffer_arg("in_img", Direction.IN),
        buffer_arg("out_img", Direction.OUT),
        scalar_arg("width"),
        scalar_arg("height"),
    )
    config = SpectorSobelConfig()

    def duration(self, args: Mapping[str, object]) -> float:
        width = int(args["width"])  # type: ignore[arg-type]
        height = int(args["height"])  # type: ignore[arg-type]
        if width <= 0 or height <= 0:
            raise ValueError("image dimensions must be positive")
        return SOBEL_LAUNCH_OVERHEAD + (width * height) / SOBEL_THROUGHPUT

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        width = int(args["width"])  # type: ignore[arg-type]
        height = int(args["height"])  # type: ignore[arg-type]
        in_buf = args["in_img"]
        out_buf = args["out_img"]
        image = in_buf.as_array(np.uint32, (height, width)).astype(np.int64)  # type: ignore[union-attr]
        magnitude = sobel_reference(image)
        out = out_buf.as_array(np.uint32, (height, width))  # type: ignore[union-attr]
        out[:, :] = magnitude

    @staticmethod
    def image_bytes(width: int, height: int) -> int:
        """Size of one image transfer (one direction)."""
        return width * height * BYTES_PER_PIXEL


def sobel_reference(image: np.ndarray) -> np.ndarray:
    """Golden-model Sobel: |gx| + |gy| with zero borders, saturating.

    Matches the Spector kernel semantics: interior pixels get the L1
    gradient magnitude; the one-pixel border is zero.
    """
    import numpy as np

    if image.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    image = image.astype(np.int64)
    height, width = image.shape
    result = np.zeros((height, width), dtype=np.int64)
    if height >= 3 and width >= 3:
        gx = np.zeros((height - 2, width - 2), dtype=np.int64)
        gy = np.zeros((height - 2, width - 2), dtype=np.int64)
        for dy in range(3):
            for dx in range(3):
                window = image[dy:dy + height - 2, dx:dx + width - 2]
                gx += _GX[dy][dx] * window
                gy += _GY[dy][dx] * window
        result[1:-1, 1:-1] = np.abs(gx) + np.abs(gy)
    return np.minimum(result, _MAX_MAGNITUDE).astype(np.uint32)
