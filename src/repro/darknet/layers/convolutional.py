"""Convolutional layer with optional batch normalization (Darknet-style).

The paper's evaluation models are stacks of "LReLU-convolutional"
layers; Darknet's batch-normalized convolution carries exactly five
parameter arrays (weights, biases, scales, rolling mean, rolling
variance), which is where the paper's 140 B of per-layer encryption
metadata (5 buffers x 28 B) comes from.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.darknet.activations import get_activation
from repro.darknet.im2col import (
    col2im,
    conv_output_size,
    im2col,
    im2col_batched_into,
)
from repro.darknet.layers.base import (
    GradientBuffer,
    Layer,
    NamedBuffer,
    ParamPair,
    uniform_weights,
)

_BN_EPSILON = 1e-5
_BN_MOMENTUM = 0.9  # rolling stats track the (fast-moving) batch stats


class ConvolutionalLayer(Layer):
    """2-D convolution, optional batchnorm, elementwise activation.

    The gradient accumulators are made by the first training step, not
    here.  Darknet's ``make_convolutional_layer`` allocates them with
    the weights, but a network that is only served or mirrored never
    reads them, and at 512 filters they are as large as the weights.
    """

    kind = "convolutional"
    weight_updates = GradientBuffer("weights")
    bias_updates = GradientBuffer("biases")
    scale_updates = GradientBuffer("scales")

    def __init__(
        self,
        in_shape: Tuple[int, int, int],
        filters: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int = 1,
        activation: str = "leaky",
        batch_normalize: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        c, h, w = in_shape
        out_h = conv_output_size(h, kernel, stride, pad)
        out_w = conv_output_size(w, kernel, stride, pad)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"convolution collapses {in_shape} to "
                f"({filters}, {out_h}, {out_w})"
            )
        self.in_shape = in_shape
        self.filters = filters
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.batch_normalize = batch_normalize
        self.activation = get_activation(activation)
        self.out_shape = (filters, out_h, out_w)

        rng = rng or np.random.default_rng(0)
        fan_in = c * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)  # Darknet's initialization
        self.weights = uniform_weights(rng, scale, (filters, fan_in))
        self.biases = np.zeros(filters, dtype=np.float32)
        if batch_normalize:
            self.scales = np.ones(filters, dtype=np.float32)
            self.rolling_mean = np.zeros(filters, dtype=np.float32)
            self.rolling_variance = np.ones(filters, dtype=np.float32)

        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._bn_cache: Optional[tuple] = None
        self._output: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        cols = im2col(x, self.kernel, self.stride, self.pad)
        f, out_h, out_w = self.out_shape
        raw = (self.weights @ cols).reshape(f, out_h, out_w, n)
        raw = raw.transpose(3, 0, 1, 2)  # (N, F, OH, OW)

        if self.batch_normalize:
            raw = self._batchnorm_forward(raw)
        raw += self.biases.reshape(1, -1, 1, 1)
        out = self.activation.forward(raw)
        self._x_shape = x.shape
        self._cols = cols
        self._output = out
        return out

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        """Batched inference kernel: one im2col, one GEMM call.

        The GEMM runs as a single 3-D ``np.matmul`` whose batch axis is
        the sample axis, so each sample's product has the exact operand
        shapes of a batch-of-one GEMM — per-sample results are bitwise
        independent of the batch, unlike a fused GEMM over ``N*OH*OW``
        columns whose BLAS blocking (and therefore rounding) depends on
        ``N``.  Batch norm applies the rolling statistics.  All
        operands live in the workspace; steady state allocates nothing.
        """
        n = x.shape[0]
        c, h, w = self.in_shape
        k, stride, pad = self.kernel, self.stride, self.pad
        f, out_h, out_w = self.out_shape

        if pad:
            padded = ws.take(
                "padded", (n, c, h + 2 * pad, w + 2 * pad), x.dtype,
                zero_fill=True,
            )
            padded[:, :, pad : pad + h, pad : pad + w] = x
        else:
            padded = x
        cols = ws.take("cols", (n, c * k * k, out_h * out_w), x.dtype)
        im2col_batched_into(padded, k, stride, cols)

        raw3 = ws.take("raw", (n, f, out_h * out_w), x.dtype)
        np.matmul(self.weights, cols, out=raw3)
        raw = raw3.reshape(n, f, out_h, out_w)

        if self.batch_normalize:
            # Rolling statistics are rewritten in place by hot reloads,
            # so inv_std is derived per batch, never cached.
            inv_std = ws.take("inv_std", (f,), x.dtype)
            np.add(self.rolling_variance, _BN_EPSILON, out=inv_std)
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            np.subtract(raw, self.rolling_mean.reshape(1, -1, 1, 1), out=raw)
            np.multiply(raw, inv_std.reshape(1, -1, 1, 1), out=raw)
            np.multiply(self.scales.reshape(1, -1, 1, 1), raw, out=raw)
        np.add(raw, self.biases.reshape(1, -1, 1, 1), out=raw)
        return self.activation.forward_into(raw, ws)

    def backward(self, delta: np.ndarray) -> np.ndarray:
        d_cols = self.weights.T @ self._accumulate(delta)
        return col2im(
            d_cols, self._x_shape, self.kernel, self.stride, self.pad
        )

    def accumulate(self, delta: np.ndarray) -> None:
        """Parameter gradients only: no input-delta GEMM, no ``col2im``."""
        self._accumulate(delta)

    def _accumulate(self, delta: np.ndarray) -> np.ndarray:
        """Accumulate every parameter gradient of ``delta``; returns the
        ``(filters, OH*OW*N)`` delta the input-delta GEMM reads."""
        assert self._cols is not None and self._output is not None
        # The gradient is a fresh array laid out like ``_output`` — the
        # sample-minor view the GEMM emitted — and delta·gradient lands
        # in it, so every reduction below runs per-channel-contiguous
        # whatever layout ``delta`` arrived in.
        d = self.activation.gradient(self._output)
        np.multiply(delta, d, out=d)

        # Bias (or batchnorm beta) gradient.
        self.bias_updates += d.sum(axis=(0, 2, 3))
        if self.batch_normalize:
            d = self._batchnorm_backward(d)

        d_flat = d.transpose(1, 2, 3, 0).reshape(self.filters, -1)
        self.weight_updates += d_flat @ self._cols.T
        return d_flat

    # ------------------------------------------------------------------
    def _batchnorm_forward(self, x: np.ndarray) -> np.ndarray:
        """Normalise by the batch statistics, which also move the
        rolling ones (what ``infer`` reads)."""
        axes = (0, 2, 3)
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        self.rolling_mean[...] = (
            _BN_MOMENTUM * self.rolling_mean + (1 - _BN_MOMENTUM) * mean
        )
        self.rolling_variance[...] = (
            _BN_MOMENTUM * self.rolling_variance + (1 - _BN_MOMENTUM) * var
        )
        inv_std = 1.0 / np.sqrt(var + _BN_EPSILON)
        x_hat = x - mean.reshape(1, -1, 1, 1)
        x_hat *= inv_std.reshape(1, -1, 1, 1)
        self._bn_cache = (x_hat, inv_std)
        return self.scales.reshape(1, -1, 1, 1) * x_hat

    def _batchnorm_backward(self, delta: np.ndarray) -> np.ndarray:
        """Standard batchnorm gradient, fused form; consumes ``delta``.

        Each ufunc is the one the allocating expression
        ``inv_std * (d_xhat - sum_d / m - x_hat * sum_dx / m)`` would
        run, in its order; ``out=`` only names where the result lands.
        """
        assert self._bn_cache is not None
        x_hat, inv_std = self._bn_cache
        axes = (0, 2, 3)
        m = delta.shape[0] * delta.shape[2] * delta.shape[3]

        scratch = delta * x_hat
        self.scale_updates += scratch.sum(axis=axes)
        d_xhat = np.multiply(delta, self.scales.reshape(1, -1, 1, 1), out=delta)
        sum_d = d_xhat.sum(axis=axes).reshape(1, -1, 1, 1)
        np.multiply(d_xhat, x_hat, out=scratch)
        sum_dx = scratch.sum(axis=axes).reshape(1, -1, 1, 1)
        np.multiply(x_hat, sum_dx, out=scratch)
        np.divide(scratch, m, out=scratch)
        np.subtract(d_xhat, sum_d / m, out=d_xhat)
        np.subtract(d_xhat, scratch, out=d_xhat)
        return np.multiply(inv_std.reshape(1, -1, 1, 1), d_xhat, out=d_xhat)

    # ------------------------------------------------------------------
    def trainable(self) -> List[ParamPair]:
        pairs = [
            (self.weights, self.weight_updates),
            (self.biases, self.bias_updates),
        ]
        if self.batch_normalize:
            pairs.append((self.scales, self.scale_updates))
        return pairs

    def parameter_buffers(self) -> List[NamedBuffer]:
        buffers = [("weights", self.weights), ("biases", self.biases)]
        if self.batch_normalize:
            buffers += [
                ("scales", self.scales),
                ("rolling_mean", self.rolling_mean),
                ("rolling_variance", self.rolling_variance),
            ]
        return buffers

    def flops(self, batch: int) -> float:
        f, out_h, out_w = self.out_shape
        fan_in = self.weights.shape[1]
        # GEMM forward + two GEMMs backward.
        return 3 * 2.0 * f * fan_in * out_h * out_w * batch
