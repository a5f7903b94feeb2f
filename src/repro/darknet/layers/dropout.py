"""Dropout layer (inverted scaling, matching Darknet)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.darknet.layers.base import Layer


class DropoutLayer(Layer):
    """Zeroes activations with probability ``probability`` at train time."""

    kind = "dropout"

    def __init__(
        self,
        in_shape: Tuple[int, ...],
        probability: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {probability}")
        self.in_shape = in_shape
        self.out_shape = in_shape
        self.probability = probability
        self.rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.probability == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.probability
        mask = (self.rng.random(x.shape) < keep) / keep
        self._mask = mask.astype(x.dtype)
        return x * self._mask

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        return x

    def backward(self, delta: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return delta
        return delta * self._mask
