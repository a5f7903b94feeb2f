"""The Darknet network: a layer stack with SGD training.

Mirrors Darknet's training loop (Fig. 3 of the paper): forward
propagation, loss, backward propagation, SGD update with learning rate,
momentum and weight decay.  The paper's evaluation uses learning rate
0.1, batch size 128 and SGD throughout.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.darknet.layers.base import Layer, NamedBuffer
from repro.darknet.layers.softmax import SoftmaxLayer
from repro.darknet.policy import LearningRatePolicy


class Network:
    """A feed-forward stack of layers ending (for training) in softmax."""

    def __init__(
        self,
        layers: Sequence[Layer],
        learning_rate: float = 0.1,
        momentum: float = 0.9,
        decay: float = 0.0005,
        batch: int = 128,
        lr_policy: Optional[LearningRatePolicy] = None,
    ) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.learning_rate = learning_rate
        self.lr_policy = lr_policy
        self.momentum = momentum
        self.decay = decay
        self.batch = batch
        #: Completed training iterations (Darknet's ``seen``/``iter``;
        #: the value the PM mirror records so training resumes where it
        #: left off).
        self.iteration = 0
        self._velocities: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def softmax(self) -> SoftmaxLayer:
        """The terminal softmax layer (training networks must have one)."""
        last = self.layers[-1]
        if not isinstance(last, SoftmaxLayer):
            raise TypeError("network does not end in a softmax layer")
        return last

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def param_count(self) -> int:
        """Total learnable + statistic scalars across layers."""
        return sum(layer.param_count for layer in self.layers)

    @property
    def param_bytes(self) -> int:
        """Model size in bytes — the x-axis of Fig. 7."""
        return sum(layer.param_bytes for layer in self.layers)

    def parameter_buffers(self) -> List[Tuple[int, NamedBuffer]]:
        """All (layer index, (name, array)) buffers, in mirror order."""
        out = []
        for i, layer in enumerate(self.layers):
            for named in layer.parameter_buffers():
                out.append((i, named))
        return out

    def flops(self, batch: Optional[int] = None) -> float:
        """FLOPs of one training iteration at ``batch`` samples."""
        b = batch if batch is not None else self.batch
        return sum(layer.flops(b) for layer in self.layers)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """The training forward (inference is :meth:`infer`)."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self) -> None:
        """Back-propagate the softmax loss into every gradient
        accumulator.  The first layer only accumulates (see
        :meth:`Layer.accumulate`): nothing reads the input's delta."""
        delta = self.softmax.backward()
        for layer in reversed(self.layers[1:-1]):
            delta = layer.backward(delta)
        self.layers[0].accumulate(delta)

    def backward_from(self, delta: np.ndarray) -> np.ndarray:
        """Back-propagate an externally supplied delta through every
        layer (used by pipeline-sharded training, where the loss lives
        in a later stage's enclave); returns the input gradient."""
        for layer in reversed(self.layers):
            delta = layer.backward(delta)
        return delta

    @property
    def current_learning_rate(self) -> float:
        """Learning rate at the current iteration (after the schedule)."""
        if self.lr_policy is None:
            return self.learning_rate
        return self.lr_policy.learning_rate(self.learning_rate, self.iteration)

    def update(self) -> None:
        """SGD with momentum and weight decay; clears the gradients."""
        pairs = [pair for layer in self.layers for pair in layer.trainable()]
        if self._velocities is None:
            self._velocities = [np.zeros_like(p) for p, _ in pairs]
        lr = self.current_learning_rate
        for (param, grad), velocity in zip(pairs, self._velocities):
            np.multiply(velocity, self.momentum, out=velocity)
            velocity -= lr * (grad / self.batch + self.decay * param)
            param += velocity
            grad[...] = 0.0

    def reset_optimizer(self) -> None:
        """Return the volatile optimizer state to a fresh build's.

        Zeroes the iteration counter, drops the momentum velocities and
        clears every gradient accumulator; parameters are untouched.
        Followed by a full parameter assignment, the network trains
        bit-for-bit like a newly built one of the same architecture
        (layer caches are rewritten by the next ``forward``), which is
        what lets a federated client keep one model for a whole boot.
        """
        self.iteration = 0
        self._velocities = None
        for layer in self.layers:
            for _, grad in layer.trainable():
                grad[...] = 0.0

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One full training iteration; returns the batch loss."""
        self.forward(x)
        loss = self.softmax.loss(y)
        self.backward()
        self.update()
        self.iteration += 1
        return loss

    def infer(self, x: np.ndarray, arena) -> np.ndarray:
        """Class probabilities for a batch: the one inference path.

        Batched and allocation-free once ``arena`` has seen the batch
        size.  Per-sample outputs are bitwise identical whatever batch
        a sample rides in (each layer's ``infer`` contract), so the
        serving tier can coalesce requests into one forward pass without
        changing a single response byte.  The returned array is an arena
        view — valid until the next ``infer`` call on the same arena.
        """
        out = x
        for index, layer in enumerate(self.layers):
            out = layer.infer(out, arena.workspace(index))
        return out
