"""Fully-connected (Darknet "connected") layer."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.darknet.activations import get_activation
from repro.darknet.layers.base import (
    GradientBuffer,
    Layer,
    NamedBuffer,
    ParamPair,
    uniform_weights,
)


class ConnectedLayer(Layer):
    """Dense layer: ``y = act(x W^T + b)``; weights shaped (out, in).

    Exempt from the layout contract of :meth:`Layer.backward`: the GEMM
    takes ``x.reshape(N, -1)`` as it arrives — C-contiguous after a
    pool, a sample-minor view after a conv — and BLAS rounds the two
    differently in the last bits.
    """

    kind = "connected"
    weight_updates = GradientBuffer("weights")
    bias_updates = GradientBuffer("biases")

    def __init__(
        self,
        in_shape: Tuple[int, ...],
        outputs: int,
        activation: str = "leaky",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        inputs = int(np.prod(in_shape))
        self.in_shape = in_shape
        self.inputs = inputs
        self.outputs = outputs
        self.activation = get_activation(activation)
        self.out_shape = (outputs,)

        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / inputs)
        self.weights = uniform_weights(rng, scale, (outputs, inputs))
        self.biases = np.zeros(outputs, dtype=np.float32)

        self._x: Optional[np.ndarray] = None
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.inputs:
            raise ValueError(
                f"connected layer expects {self.inputs} inputs, "
                f"got {flat.shape[1]}"
            )
        out = self.activation.forward(flat @ self.weights.T + self.biases)
        self._x = flat
        self._output = out
        return out

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        """Batched dense kernel: one 3-D GEMM call, workspace-backed.

        The batch axis of ``np.matmul`` is the sample axis, so each
        sample multiplies with batch-of-one operand shapes and its
        result is bitwise the same however many ride in the batch.
        """
        n = x.shape[0]
        flat = x.reshape(n, -1)
        if flat.shape[1] != self.inputs:
            raise ValueError(
                f"connected layer expects {self.inputs} inputs, "
                f"got {flat.shape[1]}"
            )
        out3 = ws.take("out", (n, 1, self.outputs), flat.dtype)
        np.matmul(flat[:, None, :], self.weights.T, out=out3)
        out = out3.reshape(n, self.outputs)
        np.add(out, self.biases, out=out)
        return self.activation.forward_into(out, ws)

    def backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._x is not None and self._output is not None
        delta = delta * self.activation.gradient(self._output)
        self.weight_updates += delta.T @ self._x
        self.bias_updates += delta.sum(axis=0)
        d_x = delta @ self.weights
        return d_x.reshape((delta.shape[0],) + tuple(self.in_shape))

    def trainable(self) -> List[ParamPair]:
        return [
            (self.weights, self.weight_updates),
            (self.biases, self.bias_updates),
        ]

    def parameter_buffers(self) -> List[NamedBuffer]:
        return [("weights", self.weights), ("biases", self.biases)]

    def flops(self, batch: int) -> float:
        return 3 * 2.0 * self.inputs * self.outputs * batch
