"""Frozen training kernels: the bodies ``repro.darknet`` ran before the
layout-coherent rewrite, kept verbatim as the reference the current
kernels are held to (``tests/test_training_kernels.py``).

Each body is the parent's, unchanged: ``np.where`` selects, an
``np.pad``-based ``im2col``, a C-ordered ``col2im`` accumulator,
masked-``copyto`` pooling with an int32 argmax plane, an allocating
batchnorm, and a conv backward whose ``delta * gradient`` takes
whatever layout numpy's mixed-operand tie-break picks.  They are
layout-*sensitive* exactly where the rewrite is not, so differential
tests feed both sides sample-minor inputs.

``as_reference(net)`` turns a built network into one assembled from
these bodies; ``sample_minor(a)`` re-lays an array the way a conv
layer's forward emits it.

``reference_predict(net, x)`` is the inference oracle: the
``forward(x, train=False)`` body every layer kind ran before
``Layer.infer`` became the only inference path, which ``infer`` is held
to sample by sample (``tests/test_serving_zero_copy.py``).
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

from repro.darknet.activations import Activation, get_activation
from repro.darknet.im2col import conv_output_size
from repro.darknet.layers import ConvolutionalLayer, MaxPoolLayer

_BN_EPSILON = 1e-5
_BN_MOMENTUM = 0.9


def sample_minor(a: np.ndarray) -> np.ndarray:
    """``a`` re-laid sample-minor: memory order (C, H, W, N), logical
    ``(N, C, H, W)`` — what a conv layer's forward emits."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def leaky_forward(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.1 * x)


def leaky_gradient(y: np.ndarray) -> np.ndarray:
    return np.where(y > 0, 1.0, 0.1).astype(y.dtype)


REFERENCE_LEAKY = Activation(
    "leaky", leaky_forward, leaky_gradient, get_activation("leaky").forward_into
)


def _patch_windows(padded: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(2, 3)
    )
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows


def im2col(
    images: np.ndarray, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Unroll ``(N, C, H, W)`` images into ``(C*k*k, N*OH*OW)`` columns."""
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    windows = _patch_windows(padded, kernel, stride)
    n, c, out_h, out_w = windows.shape[:4]
    # Row = (channel, kernel_row, kernel_col), column = (out_pos, image).
    return windows.transpose(1, 4, 5, 2, 3, 0).reshape(
        c * kernel * kernel, out_h * out_w * n
    )


def col2im(
    cols: np.ndarray,
    images_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add columns back into image space (gradient of im2col)."""
    n, c, h, w = images_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += cols6[:, ki, kj].transpose(3, 0, 1, 2)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


class ReferenceMaxPoolLayer(MaxPoolLayer):
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride

        out: Optional[np.ndarray] = None
        argmax: Optional[np.ndarray] = None
        for idx in range(s * s):
            di, dj = divmod(idx, s)
            window = x[
                :, :, di : di + st * out_h : st, dj : dj + st * out_w : st
            ]
            if out is None:
                out = window.copy()
                if train:
                    argmax = np.zeros(window.shape, dtype=np.int32)
            else:
                mask = window > out
                np.copyto(out, window, where=mask)
                if train:
                    np.copyto(argmax, idx, where=mask)
        assert out is not None
        if train:
            self._x_shape = x.shape
            self._argmax = argmax
        return out

    def backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._argmax is not None and self._x_shape is not None
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride
        dx = np.zeros(self._x_shape, dtype=delta.dtype)
        for idx in range(s * s):
            di, dj = divmod(idx, s)
            mask = self._argmax == idx
            dx[
                :, :, di : di + st * out_h : st, dj : dj + st * out_w : st
            ] += delta * mask
        return dx


class ReferenceConvolutionalLayer(ConvolutionalLayer):
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n = x.shape[0]
        cols = im2col(x, self.kernel, self.stride, self.pad)
        f, out_h, out_w = self.out_shape
        raw = (self.weights @ cols).reshape(f, out_h, out_w, n)
        raw = raw.transpose(3, 0, 1, 2)  # (N, F, OH, OW)

        if self.batch_normalize:
            raw = self._batchnorm_forward(raw, train)
        raw = raw + self.biases.reshape(1, -1, 1, 1)
        out = self.activation.forward(raw)
        if train:
            # Backward caches only exist while training: an inference
            # stream must not pin ever-fresh arrays on the layer.
            self._x_shape = x.shape
            self._cols = cols
            self._pre_activation = raw
            self._output = out
        return out

    def _batchnorm_forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        axes = (0, 2, 3)
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.rolling_mean[...] = (
                _BN_MOMENTUM * self.rolling_mean + (1 - _BN_MOMENTUM) * mean
            )
            self.rolling_variance[...] = (
                _BN_MOMENTUM * self.rolling_variance + (1 - _BN_MOMENTUM) * var
            )
        else:
            mean = self.rolling_mean
            var = self.rolling_variance
        inv_std = 1.0 / np.sqrt(var + _BN_EPSILON)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        if train:
            self._bn_cache = (x_hat, inv_std)
        return self.scales.reshape(1, -1, 1, 1) * x_hat

    def backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._output is not None
        delta = delta * self.activation.gradient(self._output)

        # Bias (or batchnorm beta) gradient.
        self.bias_updates += delta.sum(axis=(0, 2, 3))
        if self.batch_normalize:
            delta = self._batchnorm_backward(delta)

        n = delta.shape[0]
        f = self.filters
        d_flat = delta.transpose(1, 2, 3, 0).reshape(f, -1)
        self.weight_updates += d_flat @ self._cols.T
        d_cols = self.weights.T @ d_flat
        return col2im(
            d_cols, self._x_shape, self.kernel, self.stride, self.pad
        )

    def _batchnorm_backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._bn_cache is not None
        x_hat, inv_std = self._bn_cache
        axes = (0, 2, 3)
        m = delta.shape[0] * delta.shape[2] * delta.shape[3]

        self.scale_updates += (delta * x_hat).sum(axis=axes)
        d_xhat = delta * self.scales.reshape(1, -1, 1, 1)
        # Standard batchnorm gradient, fused form.
        sum_d = d_xhat.sum(axis=axes).reshape(1, -1, 1, 1)
        sum_dx = (d_xhat * x_hat).sum(axis=axes).reshape(1, -1, 1, 1)
        return (
            inv_std.reshape(1, -1, 1, 1)
            * (d_xhat - sum_d / m - x_hat * sum_dx / m)
        )


def as_reference(net):
    """Re-class ``net``'s conv / maxpool layers (and their leaky
    activation) onto the frozen bodies, in place; returns ``net``."""
    for layer in net.layers:
        if type(layer) is ConvolutionalLayer:
            layer.__class__ = ReferenceConvolutionalLayer
            if layer.activation.name == "leaky":
                layer.activation = REFERENCE_LEAKY
        elif type(layer) is MaxPoolLayer:
            layer.__class__ = ReferenceMaxPoolLayer
        elif getattr(layer, "activation", None) is get_activation("leaky"):
            layer.activation = REFERENCE_LEAKY
    return net


# ----------------------------------------------------------------------
# The inference oracle.  Conv and maxpool run their reference classes'
# ``forward(train=False)`` above; the other kinds' ``train=False``
# bodies are kept here as they stood.
# ----------------------------------------------------------------------
def _connected_predict(layer, x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[0], -1)
    if flat.shape[1] != layer.inputs:
        raise ValueError(
            f"connected layer expects {layer.inputs} inputs, "
            f"got {flat.shape[1]}"
        )
    return layer.activation.forward(flat @ layer.weights.T + layer.biases)


def _softmax_predict(layer, x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[0], -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


_PREDICT = {
    "connected": _connected_predict,
    "softmax": _softmax_predict,
}


def reference_predict(net, x: np.ndarray) -> np.ndarray:
    """What ``Network.predict(x)`` returned: every layer's inference
    body, run on a reference copy of ``net`` (``net`` is untouched).

    Over a batch the conv GEMM is fused, so only a batch of one is the
    per-sample oracle ``Layer.infer`` is held to."""
    out = x
    for layer in as_reference(copy.deepcopy(net)).layers:
        if isinstance(layer, (ReferenceConvolutionalLayer, ReferenceMaxPoolLayer)):
            out = layer.forward(out, train=False)
        else:
            out = _PREDICT[layer.kind](layer, out)
    return out
