"""Histogram kernel (Spector benchmark suite).

Bins 32-bit values into ``bins`` buckets (values are taken modulo the bin
count, as in the Spector host which pre-scales its inputs).  The design
processes two samples per cycle with banked on-chip counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .base import AcceleratorKernel, Direction, buffer_arg, scalar_arg

if TYPE_CHECKING:
    import numpy as np

#: Samples per second (2 samples/cycle @ 200 MHz).
HISTOGRAM_SAMPLE_RATE = 400e6

#: Fixed launch/drain latency plus the final counter flush, seconds.
HISTOGRAM_LAUNCH_OVERHEAD = 40e-6

#: Maximum bins the banked-counter design supports.
HISTOGRAM_MAX_BINS = 4096


class HistogramKernel(AcceleratorKernel):
    """``hist(values, counts, n, bins)`` — uint32 histogram."""

    name = "hist"
    args = (
        buffer_arg("values", Direction.IN),
        buffer_arg("counts", Direction.OUT),
        scalar_arg("n"),
        scalar_arg("bins"),
    )

    def duration(self, args: Mapping[str, object]) -> float:
        n = int(args["n"])  # type: ignore[arg-type]
        bins = int(args["bins"])  # type: ignore[arg-type]
        if n <= 0:
            raise ValueError("sample count must be positive")
        if not 1 <= bins <= HISTOGRAM_MAX_BINS:
            raise ValueError(f"bins must be in [1, {HISTOGRAM_MAX_BINS}]")
        return HISTOGRAM_LAUNCH_OVERHEAD + n / HISTOGRAM_SAMPLE_RATE

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        n = int(args["n"])  # type: ignore[arg-type]
        bins = int(args["bins"])  # type: ignore[arg-type]
        values = args["values"].as_array(np.uint32, (n,))  # type: ignore[union-attr]
        counts = args["counts"].as_array(np.uint32, (bins,))  # type: ignore[union-attr]
        counts[:] = histogram_reference(values, bins)


def histogram_reference(values: np.ndarray, bins: int) -> np.ndarray:
    """Golden model: counts of ``values % bins``."""
    import numpy as np

    reduced = (values.astype(np.uint64) % bins).astype(np.int64)
    return np.bincount(reduced, minlength=bins).astype(np.uint32)
