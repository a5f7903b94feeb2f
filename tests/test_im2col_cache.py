"""The im2col/col2im kernels against their reference formulations: the
strided unroll vs. a fancy-index gather, and the vectorized slice
scatter vs. ``np.add.at``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.darknet import im2col as m
from repro.darknet.layers import convolutional
from tests.reference_kernels import sample_minor

# (n, c, h, w, kernel, stride, pad) — exercises k=1, stride>1,
# rectangular inputs, and zero/nonzero padding.
SHAPES = [
    (1, 1, 5, 5, 3, 1, 1),
    (2, 3, 8, 8, 3, 1, 0),
    (2, 3, 9, 7, 3, 2, 1),
    (1, 4, 12, 12, 5, 3, 2),
    (3, 2, 6, 6, 1, 1, 0),
    (1, 1, 28, 28, 3, 1, 1),
    (2, 8, 7, 11, 2, 2, 0),
]


def _patch_indices(channels, height, width, kernel, stride, pad):
    out_h = m.conv_output_size(height, kernel, stride, pad)
    out_w = m.conv_output_size(width, kernel, stride, pad)
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def gather_im2col(images, kernel, stride, pad):
    """Reference im2col: gather through explicit patch-index tensors."""
    n, c, h, w = images.shape
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    k, i, j = _patch_indices(c, h, w, kernel, stride, pad)
    cols = padded[:, k, i, j]  # (N, C*k*k, OH*OW)
    return cols.transpose(1, 2, 0).reshape(c * kernel * kernel, -1)


def scatter_col2im(cols, images_shape, kernel, stride, pad):
    """Reference col2im: buffered ``np.add.at`` scatter."""
    n, c, h, w = images_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    k, i, j = _patch_indices(c, h, w, kernel, stride, pad)
    reshaped = cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), reshaped)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


def images_for(shape, seed=0):
    n, c, h, w = shape[:4]
    return (
        np.random.default_rng(seed)
        .normal(size=(n, c, h, w))
        .astype(np.float32)
    )


class TestStridedFastPath:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_im2col_bit_identical_to_gather(self, shape):
        n, c, h, w, k, stride, pad = shape
        imgs = images_for(shape)
        fast = m.im2col(imgs, k, stride, pad)
        reference = gather_im2col(imgs, k, stride, pad)
        assert fast.shape == reference.shape
        assert np.array_equal(fast, reference)  # bitwise, not approx
        # The GEMM operand keeps its layout whatever layout ``imgs`` had.
        assert fast.flags.c_contiguous
        again = m.im2col(sample_minor(imgs), k, stride, pad)
        assert again.flags.c_contiguous and np.array_equal(again, reference)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_col2im_matches_scatter_add(self, shape):
        n, c, h, w, k, stride, pad = shape
        out_h = m.conv_output_size(h, k, stride, pad)
        out_w = m.conv_output_size(w, k, stride, pad)
        cols = (
            np.random.default_rng(1)
            .normal(size=(c * k * k, out_h * out_w * n))
            .astype(np.float32)
        )
        fast = m.col2im(cols, (n, c, h, w), k, stride, pad)
        reference = scatter_col2im(cols, (n, c, h, w), k, stride, pad)
        # Summation order across kernel offsets differs — float-rounding
        # level agreement, not bitwise.
        np.testing.assert_allclose(fast, reference, rtol=1e-5, atol=1e-6)

    def test_roundtrip_gradient_shape(self):
        imgs = images_for((2, 3, 8, 8))
        cols = m.im2col(imgs, 3, 1, 1)
        back = m.col2im(cols, imgs.shape, 3, 1, 1)
        assert back.shape == imgs.shape


class TestConvLayerEquivalence:
    def test_forward_backward_match_legacy(self, monkeypatch):
        """A conv layer's forward/backward agrees with the same layer
        lowered through the reference formulations."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3, 10, 10)).astype(np.float32)
        delta_seed = rng.normal(size=(4, 8, 10, 10)).astype(np.float32)

        def run():
            layer = convolutional.ConvolutionalLayer(
                in_shape=(3, 10, 10),
                filters=8,
                kernel=3,
                stride=1,
                pad=1,
                rng=np.random.default_rng(7),
            )
            return layer.forward(x), layer.backward(delta_seed)

        out, dx = run()
        monkeypatch.setattr(convolutional, "im2col", gather_im2col)
        monkeypatch.setattr(convolutional, "col2im", scatter_col2im)
        ref_out, ref_dx = run()
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-5, atol=1e-6)
