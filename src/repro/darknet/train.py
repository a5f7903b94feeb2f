"""Plain (non-Plinius) training loop — the in-DRAM baseline.

This is ordinary Darknet training with everything in volatile memory:
no mirroring, no checkpointing.  The Plinius trainer in
:mod:`repro.core.trainer` wraps the same network mechanics with
PM-backed fault tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.darknet.data import DataMatrix
from repro.darknet.network import Network


@dataclass
class TrainingLog:
    """Loss per iteration (the y-axis of Figs. 9 and 10)."""

    losses: List[float] = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)

    def record(self, iteration: int, loss: float) -> None:
        self.iterations.append(iteration)
        self.losses.append(loss)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no iterations recorded")
        return self.losses[-1]


def train(
    network: Network,
    data: DataMatrix,
    iterations: int,
    batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    input_shape: Optional[tuple] = None,
    log: Optional[TrainingLog] = None,
) -> TrainingLog:
    """Train for ``iterations`` batches; returns the loss log."""
    batch = batch_size if batch_size is not None else network.batch
    rng = rng or np.random.default_rng(0)
    log = log if log is not None else TrainingLog()
    for _ in range(iterations):
        x, y = data.random_batch(batch, rng)
        if input_shape is not None:
            x = x.reshape((len(x),) + tuple(input_shape))
        loss = network.train_batch(x, y)
        log.record(network.iteration, loss)
    return log
