"""The training loss log every trainer keeps.

A training step is :meth:`~repro.darknet.network.Network.train_batch`;
the Plinius trainer in :mod:`repro.core.trainer` drives it with
PM-backed fault tolerance and records each step's loss here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


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
