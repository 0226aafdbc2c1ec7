"""Tests for the PipeCNN kernels and the AlexNet network description."""

import numpy as np
import pytest

from repro.kernels import (
    ConvKernel,
    ConvSpec,
    LRNKernel,
    MemReadKernel,
    PoolKernel,
    alexnet_layers,
    conv2d_reference,
    lrn_reference,
    maxpool_reference,
    pipecnn_kernels,
)
from repro.kernels.pipecnn import CONV_MAC_RATE, FC_MAC_RATE


def macs(conv):
    """Multiply-accumulates of one inference of a convolution stage."""
    return (conv.out_size * conv.out_size * conv.out_channels
            * conv.kernel * conv.kernel * (conv.in_channels // conv.groups))


class FakeBuffer:
    def __init__(self, nbytes):
        self._data = np.zeros(nbytes, dtype=np.uint8)
        self.size = nbytes

    def as_array(self, dtype, shape):
        wanted = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self._data[:wanted].view(dtype).reshape(shape)

    def write(self, payload, offset=0):
        view = np.frombuffer(
            payload.tobytes() if isinstance(payload, np.ndarray) else payload,
            dtype=np.uint8,
        )
        self._data[offset:offset + len(view)] = view

    def read(self, size=None, offset=0):
        if size is None:
            size = self.size - offset
        return self._data[offset:offset + size].tobytes()


class TestAlexNetDescription:
    def test_eight_layers(self):
        layers = alexnet_layers()
        assert [l.name for l in layers] == [
            "conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8",
        ]

    def test_total_macs_matches_alexnet(self):
        # AlexNet forward pass is ~724 MMAC (conv ~666M, fc ~59M).
        assert sum(macs(layer.conv) for layer in alexnet_layers()) == \
            pytest.approx(724e6, rel=0.01)

    def test_layer_geometry_chains(self):
        layers = alexnet_layers()
        for previous, current in zip(layers, layers[1:]):
            assert previous.output_channels == current.conv.in_channels
            assert previous.output_size == current.conv.in_size

    def test_final_layer_is_classifier(self):
        last = alexnet_layers()[-1]
        assert last.conv.out_channels == 1000
        assert last.conv.out_size == 1
        assert not last.conv.relu

    def test_grouped_layer_macs(self):
        conv2 = alexnet_layers()[1].conv
        assert conv2.groups == 2
        assert macs(conv2) == 27 * 27 * 256 * 5 * 5 * 48

    def test_inconsistent_geometry_rejected(self):
        with pytest.raises(ValueError):
            ConvSpec(3, 227, 96, 54, kernel=11, stride=4, pad=0)

    def test_bad_groups_rejected(self):
        with pytest.raises(ValueError):
            ConvSpec(3, 10, 7, 8, kernel=3, stride=1, pad=0, groups=2)


class TestConvReference:
    def test_identity_kernel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        w = np.zeros((1, 1, 1, 1), dtype=np.float32)
        w[0, 0, 0, 0] = 1.0
        b = np.zeros(1, dtype=np.float32)
        out = conv2d_reference(x, w, b, stride=1, pad=0, relu=False)
        np.testing.assert_allclose(out, x)

    def test_bias_applied(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        w = np.zeros((1, 1, 1, 1), dtype=np.float32)
        b = np.array([5.0], dtype=np.float32)
        out = conv2d_reference(x, w, b, stride=1, pad=0, relu=False)
        assert (out == 5.0).all()

    def test_relu_clips_negatives(self):
        x = np.ones((1, 2, 2), dtype=np.float32)
        w = np.full((1, 1, 1, 1), -1.0, dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out = conv2d_reference(x, w, b, stride=1, pad=0, relu=True)
        assert (out == 0.0).all()

    def test_stride_and_padding_geometry(self):
        x = np.random.default_rng(0).standard_normal((3, 11, 11)).astype(np.float32)
        w = np.random.default_rng(1).standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        out = conv2d_reference(x, w, b, stride=2, pad=1, relu=False)
        assert out.shape == (4, 6, 6)

    def test_grouped_convolution_blocks_cross_talk(self):
        # Two groups; input of group 2 must not affect output of group 1.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        b = np.zeros(2, dtype=np.float32)
        base = conv2d_reference(x, w, b, stride=1, pad=1, groups=2, relu=False)
        x2 = x.copy()
        x2[2:] += 10.0  # perturb only group 2's input channels
        perturbed = conv2d_reference(x2, w, b, stride=1, pad=1, groups=2,
                                     relu=False)
        np.testing.assert_allclose(perturbed[0], base[0], rtol=1e-5)
        assert not np.allclose(perturbed[1], base[1])

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = conv2d_reference(x, w, b, stride=1, pad=0, relu=False)
        # Naive direct computation.
        expected = np.zeros((3, 4, 4), dtype=np.float64)
        for oc in range(3):
            for oy in range(4):
                for ox in range(4):
                    acc = b[oc]
                    for ic in range(2):
                        acc += (x[ic, oy:oy + 3, ox:ox + 3] * w[oc, ic]).sum()
                    expected[oc, oy, ox] = acc
        np.testing.assert_allclose(out, expected, rtol=1e-4)


class TestPoolAndLRN:
    def test_maxpool_basic(self):
        x = np.array([[[1, 2, 3, 4],
                       [5, 6, 7, 8],
                       [9, 10, 11, 12],
                       [13, 14, 15, 16]]], dtype=np.float32)
        out = maxpool_reference(x, kernel=2, stride=2)
        np.testing.assert_allclose(out, [[[6, 8], [14, 16]]])

    def test_maxpool_overlapping_windows(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        out = maxpool_reference(x, kernel=3, stride=2)
        assert out.shape == (1, 2, 2)
        assert out[0, 1, 1] == 24.0

    def test_lrn_preserves_shape_and_scales_down(self):
        x = np.full((8, 4, 4), 2.0, dtype=np.float32)
        out = lrn_reference(x, local_size=5, alpha=1e-1, beta=0.75, k=1.0)
        assert out.shape == x.shape
        assert (out < x).all()
        assert (out > 0).all()

    def test_lrn_identity_with_zero_alpha(self):
        x = np.random.default_rng(0).standard_normal((4, 3, 3)).astype(np.float32)
        out = lrn_reference(x, local_size=5, alpha=0.0, beta=0.75, k=1.0)
        np.testing.assert_allclose(out, x, rtol=1e-6)


class TestPipeCNNKernels:
    def test_kernel_set(self):
        names = {kernel.name for kernel in pipecnn_kernels()}
        assert names == {"mem_rd", "conv", "pool", "lrn", "mem_wr"}

    def test_conv_duration_uses_conv_rate(self):
        kernel = ConvKernel()
        args = {"in_channels": 256, "in_size": 13, "out_channels": 384,
                "out_size": 13, "kernel": 3, "stride": 1, "pad": 1,
                "groups": 1, "relu": 1}
        macs = 13 * 13 * 384 * 9 * 256
        assert kernel.duration(args) == pytest.approx(
            50e-6 + macs / CONV_MAC_RATE
        )

    def test_fc_duration_uses_fc_rate(self):
        kernel = ConvKernel()
        args = {"in_channels": 4096, "in_size": 1, "out_channels": 4096,
                "out_size": 1, "kernel": 1, "stride": 1, "pad": 0,
                "groups": 1, "relu": 1}
        macs = 4096 * 4096
        assert kernel.duration(args) == pytest.approx(
            50e-6 + macs / FC_MAC_RATE
        )

    def test_alexnet_device_time_lands_near_85ms(self):
        """Aggregate kernel durations ≈ 85 ms, consistent with Table IV."""
        conv = ConvKernel()
        pool = PoolKernel()
        lrn = LRNKernel()
        total = 0.0
        for layer in alexnet_layers():
            spec = layer.conv
            total += conv.duration({
                "in_channels": spec.in_channels, "in_size": spec.in_size,
                "out_channels": spec.out_channels, "out_size": spec.out_size,
                "kernel": spec.kernel, "stride": spec.stride,
                "pad": spec.pad, "groups": spec.groups,
                "relu": int(spec.relu),
            })
            if layer.pool:
                total += pool.duration({
                    "channels": layer.pool.channels,
                    "in_size": layer.pool.in_size,
                    "out_size": layer.pool.out_size,
                    "kernel": layer.pool.kernel,
                    "stride": layer.pool.stride,
                })
            if layer.lrn:
                total += lrn.duration({
                    "channels": layer.lrn.channels, "size": layer.lrn.size,
                    "local_size": layer.lrn.local_size,
                    "alpha": layer.lrn.alpha, "beta": layer.lrn.beta,
                    "k": layer.lrn.k,
                })
        assert 0.075 <= total <= 0.095

    def test_mem_rd_copies_bytes(self):
        kernel = MemReadKernel()
        src, dst = FakeBuffer(16), FakeBuffer(16)
        src.write(b"0123456789abcdef")
        kernel.compute({"src": src, "dst": dst, "nbytes": 16})
        assert dst.read(16) == b"0123456789abcdef"

    def test_conv_kernel_compute_via_buffers(self):
        kernel = ConvKernel()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        in_buf = FakeBuffer(x.nbytes)
        w_buf = FakeBuffer(w.nbytes)
        b_buf = FakeBuffer(b.nbytes)
        out_buf = FakeBuffer(3 * 3 * 3 * 4)
        in_buf.as_array(np.float32, x.shape)[:] = x
        w_buf.as_array(np.float32, w.shape)[:] = w
        b_buf.as_array(np.float32, b.shape)[:] = b
        kernel.compute({
            "input": in_buf, "weights": w_buf, "bias": b_buf,
            "output": out_buf, "in_channels": 2, "in_size": 5,
            "out_channels": 3, "out_size": 3, "kernel": 3, "stride": 1,
            "pad": 0, "groups": 1, "relu": 0,
        })
        expected = conv2d_reference(x, w, b, stride=1, pad=0, relu=False)
        np.testing.assert_allclose(
            out_buf.as_array(np.float32, (3, 3, 3)), expected, rtol=1e-5
        )
