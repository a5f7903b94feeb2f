"""Softmax output layer with cross-entropy loss.

Every output layer in the paper's models is softmax; training minimizes
cross-entropy against one-hot labels with SGD.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.darknet.layers.base import Layer

_EPSILON = 1e-9


class SoftmaxLayer(Layer):
    """Terminal layer: produces class probabilities and the loss delta."""

    kind = "softmax"

    def __init__(self, in_shape: Tuple[int, ...]) -> None:
        self.in_shape = in_shape
        self.out_shape = in_shape
        self._probs: Optional[np.ndarray] = None
        self._delta: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        shifted = flat - flat.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        self._probs = probs
        return probs

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        """Workspace-backed softmax: same ufunc sequence as ``forward``
        (row-wise max-shift, exp, row-sum normalize), so per-sample
        outputs are bitwise identical at any batch size."""
        n = x.shape[0]
        flat = x.reshape(n, -1)
        m = ws.take("max", (n, 1), flat.dtype)
        np.amax(flat, axis=1, keepdims=True, out=m)
        probs = ws.take("probs", (n, flat.shape[1]), flat.dtype)
        np.subtract(flat, m, out=probs)
        np.exp(probs, out=probs)
        total = ws.take("sum", (n, 1), flat.dtype)
        np.sum(probs, axis=1, keepdims=True, out=total)
        np.divide(probs, total, out=probs)
        return probs

    def loss(self, truth: np.ndarray) -> float:
        """Mean cross-entropy of the last forward pass against ``truth``.

        Also prepares the delta that :meth:`backward` will propagate,
        so callers invoke ``forward`` → ``loss`` → ``backward``.
        """
        if self._probs is None:
            raise RuntimeError("loss() requires a preceding forward()")
        probs = self._probs
        truth = truth.reshape(probs.shape)
        n = probs.shape[0]
        self._delta = (probs - truth) / n
        # Clip instead of adding epsilon: probs + eps can exceed 1.0 when
        # the true class saturates, making log positive and the loss a tiny
        # negative number.
        clipped = np.clip(probs, _EPSILON, 1.0)
        return float(-(truth * np.log(clipped)).sum() / n)

    def backward(self, delta: Optional[np.ndarray] = None) -> np.ndarray:
        """Propagate the cross-entropy delta (ignores the argument)."""
        if self._delta is None:
            raise RuntimeError("backward() requires a preceding loss()")
        out = self._delta.reshape((-1,) + tuple(self.in_shape))
        self._delta = None
        return out
