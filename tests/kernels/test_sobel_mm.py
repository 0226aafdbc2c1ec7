"""Functional and timing-model tests for the Spector Sobel and MM kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    KernelArgumentError,
    MatrixMultiplyKernel,
    SobelKernel,
    sobel_reference,
)
from repro.kernels.mm import MM_MAC_RATE
from repro.kernels.sobel import SOBEL_THROUGHPUT


class FakeBuffer:
    """Minimal stand-in that mimics DeviceBuffer's array view protocol."""

    def __init__(self, nbytes):
        import numpy as np

        self._data = np.zeros(nbytes, dtype=np.uint8)
        self.size = nbytes

    def as_array(self, dtype, shape):
        wanted = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self._data[:wanted].view(dtype).reshape(shape)


class TestSobelReference:
    def test_flat_image_has_zero_gradient(self):
        image = np.full((8, 8), 100, dtype=np.uint32)
        assert sobel_reference(image).sum() == 0

    def test_vertical_edge_detected(self):
        image = np.zeros((5, 5), dtype=np.uint32)
        image[:, 3:] = 100
        result = sobel_reference(image)
        assert result[2, 2] > 0
        assert result[2, 1] == 0

    def test_border_is_zero(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 1000, size=(6, 7), dtype=np.uint32)
        result = sobel_reference(image)
        assert result[0].sum() == 0
        assert result[-1].sum() == 0
        assert result[:, 0].sum() == 0
        assert result[:, -1].sum() == 0

    def test_tiny_image_all_zero(self):
        image = np.ones((2, 2), dtype=np.uint32)
        assert sobel_reference(image).sum() == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            sobel_reference(np.zeros((2, 2, 3)))

    @given(
        height=st.integers(min_value=3, max_value=12),
        width=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_convolution(self, height, width, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 4096, size=(height, width)).astype(np.int64)
        gx_k = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
        gy_k = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]])
        expected = np.zeros((height, width), dtype=np.int64)
        for y in range(1, height - 1):
            for x in range(1, width - 1):
                window = image[y - 1:y + 2, x - 1:x + 2]
                gx = int((window * gx_k).sum())
                gy = int((window * gy_k).sum())
                expected[y, x] = abs(gx) + abs(gy)
        np.testing.assert_array_equal(
            sobel_reference(image), expected.astype(np.uint32)
        )


class TestSobelKernel:
    def test_duration_linear_in_pixels(self):
        kernel = SobelKernel()
        small = kernel.duration({"width": 100, "height": 100})
        large = kernel.duration({"width": 200, "height": 200})
        assert large > small
        # Slope check: 4x pixels => ~4x kernel time (minus launch overhead).
        assert (large - small) == pytest.approx(
            3 * 100 * 100 / SOBEL_THROUGHPUT
        )

    def test_fullhd_duration_matches_fig4b_calibration(self):
        kernel = SobelKernel()
        duration = kernel.duration({"width": 1920, "height": 1080})
        # Native RTT at 1080p is 14.53 ms with ~2.4 ms of PCIe transfers and
        # ~0.27 ms of host overhead: the kernel itself is ~11.8 ms.
        assert duration == pytest.approx(11.8e-3, rel=0.05)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SobelKernel().duration({"width": 0, "height": 10})

    def test_compute_via_buffers(self):
        kernel = SobelKernel()
        width = height = 6
        rng = np.random.default_rng(3)
        image = rng.integers(0, 500, size=(height, width), dtype=np.uint32)
        in_buf = FakeBuffer(image.nbytes)
        out_buf = FakeBuffer(image.nbytes)
        in_buf.as_array(np.uint32, (height, width))[:, :] = image
        kernel.compute({
            "in_img": in_buf, "out_img": out_buf,
            "width": width, "height": height,
        })
        np.testing.assert_array_equal(
            out_buf.as_array(np.uint32, (height, width)),
            sobel_reference(image),
        )

    def test_resolve_args_validates_types(self):
        kernel = SobelKernel()
        with pytest.raises(KernelArgumentError):
            kernel.resolve_args(["not a buffer", FakeBuffer(4), 1, 1])


class TestMatrixMultiplyKernel:
    def test_duration_cubic(self):
        kernel = MatrixMultiplyKernel()
        d256 = kernel.duration({"m": 256, "n": 256, "k": 256})
        d512 = kernel.duration({"m": 512, "n": 512, "k": 512})
        assert (d512 - d256) == pytest.approx(
            (512**3 - 256**3) / MM_MAC_RATE
        )

    def test_4096_duration_matches_fig4c_calibration(self):
        kernel = MatrixMultiplyKernel()
        duration = kernel.duration({"m": 4096, "n": 4096, "k": 4096})
        # 3.571 s native RTT minus ~30 ms of transfers.
        assert duration == pytest.approx(3.54, rel=0.02)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            MatrixMultiplyKernel().duration({"m": 0, "n": 4, "k": 4})

    def test_compute_rectangular(self):
        kernel = MatrixMultiplyKernel()
        rng = np.random.default_rng(7)
        m, n, k = 5, 7, 3
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, n), dtype=np.float32)
        a_buf, b_buf, c_buf = (
            FakeBuffer(a.nbytes), FakeBuffer(b.nbytes),
            FakeBuffer(m * n * 4),
        )
        a_buf.as_array(np.float32, (m, k))[:, :] = a
        b_buf.as_array(np.float32, (k, n))[:, :] = b
        kernel.compute({
            "a": a_buf, "b": b_buf, "c": c_buf, "m": m, "n": n, "k": k,
        })
        np.testing.assert_allclose(
            c_buf.as_array(np.float32, (m, n)), a @ b, rtol=1e-5
        )

    @given(size=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_square_matmul_matches_numpy(self, size, seed):
        kernel = MatrixMultiplyKernel()
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((size, size), dtype=np.float32)
        b = rng.standard_normal((size, size), dtype=np.float32)
        a_buf = FakeBuffer(a.nbytes)
        b_buf = FakeBuffer(b.nbytes)
        c_buf = FakeBuffer(a.nbytes)
        a_buf.as_array(np.float32, a.shape)[:, :] = a
        b_buf.as_array(np.float32, b.shape)[:, :] = b
        kernel.compute({
            "a": a_buf, "b": b_buf, "c": c_buf,
            "m": size, "n": size, "k": size,
        })
        np.testing.assert_allclose(
            c_buf.as_array(np.float32, (size, size)), a @ b,
            rtol=1e-4, atol=1e-5,
        )

    def test_arg_count_mismatch(self):
        with pytest.raises(KernelArgumentError):
            MatrixMultiplyKernel().resolve_args([1, 2])
