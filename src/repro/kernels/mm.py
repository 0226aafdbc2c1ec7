"""Matrix-multiply kernel from the Spector benchmark suite.

The paper uses the best Spector MM design point: one compute unit, 8 work
items per unit, a fully unrolled 16×16 block.  The timing model is
calibrated against Figure 4(c): native RTT 0.45 ms at 16×16 rising to
3.571 s at 4096×4096.  Subtracting the PCIe transfer time of the three
matrices leaves a compute rate of ≈ 19.4 GMAC/s.

Matrices are float32 and may be rectangular (``C[M,N] = A[M,K] @ B[K,N]``);
the paper sweeps square sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .base import AcceleratorKernel, Direction, buffer_arg, scalar_arg

#: float32 elements.
BYTES_PER_ELEMENT = 4

#: Calibrated multiply-accumulate rate (MAC/s), from Fig. 4(c).
MM_MAC_RATE = 19.4e9

#: Fixed kernel launch/drain latency, seconds.
MM_LAUNCH_OVERHEAD = 40e-6


@dataclass(frozen=True)
class SpectorMMConfig:
    """Design-space point used for synthesis (Section IV of the paper)."""

    compute_units: int = 1
    work_items: int = 8
    block: tuple[int, int] = (16, 16)
    unrolled: bool = True


class MatrixMultiplyKernel(AcceleratorKernel):
    """``mm(a, b, c, m, n, k)`` — C[M,N] = A[M,K] · B[K,N] in float32."""

    name = "mm"
    args = (
        buffer_arg("a", Direction.IN),
        buffer_arg("b", Direction.IN),
        buffer_arg("c", Direction.OUT),
        scalar_arg("m"),
        scalar_arg("n"),
        scalar_arg("k"),
    )
    config = SpectorMMConfig()

    def duration(self, args: Mapping[str, object]) -> float:
        m, n, k = (int(args[key]) for key in ("m", "n", "k"))  # type: ignore[arg-type]
        if min(m, n, k) <= 0:
            raise ValueError("matrix dimensions must be positive")
        return MM_LAUNCH_OVERHEAD + (m * n * k) / MM_MAC_RATE

    def compute(self, args: Mapping[str, object]) -> None:
        import numpy as np

        m, n, k = (int(args[key]) for key in ("m", "n", "k"))  # type: ignore[arg-type]
        a = args["a"].as_array(np.float32, (m, k))  # type: ignore[union-attr]
        b = args["b"].as_array(np.float32, (k, n))  # type: ignore[union-attr]
        c = args["c"].as_array(np.float32, (m, n))  # type: ignore[union-attr]
        c[:, :] = a @ b

    @staticmethod
    def matrix_bytes(rows: int, cols: int) -> int:
        return rows * cols * BYTES_PER_ELEMENT
