"""FIR filter kernel (Spector benchmark suite).

A causal single-rate FIR: ``y[i] = Σ_j c[j]·x[i-j]`` with zero history
before the first sample.  The synthesized design streams one sample per
cycle with the tap loop fully unrolled, so device time is dominated by the
sample count, not the tap count (up to the design's maximum taps).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .base import AcceleratorKernel, Direction, buffer_arg, scalar_arg

if TYPE_CHECKING:
    import numpy as np

#: Samples per second the pipeline sustains (1 sample/cycle @ 200 MHz).
FIR_SAMPLE_RATE = 200e6

#: Fixed launch/drain latency, seconds.
FIR_LAUNCH_OVERHEAD = 30e-6

#: Maximum taps the unrolled design supports.
FIR_MAX_TAPS = 128


class FIRKernel(AcceleratorKernel):
    """``fir(signal, coeffs, output, n, taps)`` — float32 causal FIR."""

    name = "fir"
    args = (
        buffer_arg("signal", Direction.IN),
        buffer_arg("coeffs", Direction.IN),
        buffer_arg("output", Direction.OUT),
        scalar_arg("n"),
        scalar_arg("taps"),
    )

    def duration(self, args: Mapping[str, object]) -> float:
        n = int(args["n"])  # type: ignore[arg-type]
        taps = int(args["taps"])  # type: ignore[arg-type]
        if n <= 0:
            raise ValueError("sample count must be positive")
        if not 1 <= taps <= FIR_MAX_TAPS:
            raise ValueError(f"taps must be in [1, {FIR_MAX_TAPS}]")
        return FIR_LAUNCH_OVERHEAD + n / FIR_SAMPLE_RATE

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        n = int(args["n"])  # type: ignore[arg-type]
        taps = int(args["taps"])  # type: ignore[arg-type]
        signal = args["signal"].as_array(np.float32, (n,))  # type: ignore[union-attr]
        coeffs = args["coeffs"].as_array(np.float32, (taps,))  # type: ignore[union-attr]
        out = args["output"].as_array(np.float32, (n,))  # type: ignore[union-attr]
        out[:] = fir_reference(signal, coeffs)


def fir_reference(signal: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Golden model: causal FIR with zero initial history."""
    import numpy as np

    full = np.convolve(signal.astype(np.float64),
                       coeffs.astype(np.float64))
    return full[: len(signal)].astype(np.float32)
