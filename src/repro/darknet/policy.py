"""Darknet learning-rate schedules.

Darknet's ``[net]`` section supports a ``policy`` option controlling how
the learning rate evolves over iterations: ``constant`` (default),
``steps`` (piecewise scaling at given iterations), ``exp`` (geometric
decay), ``poly`` (polynomial decay to zero at ``max_batches``) and
``sig`` (sigmoid drop around ``step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class LearningRatePolicy:
    """A learning-rate schedule evaluated per iteration."""

    kind: str = "constant"
    gamma: float = 0.99
    power: float = 4.0
    step: int = 1
    steps: Tuple[int, ...] = field(default_factory=tuple)
    scales: Tuple[float, ...] = field(default_factory=tuple)
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        known = ("constant", "steps", "exp", "poly", "sig")
        if self.kind not in known:
            raise ValueError(
                f"unknown policy {self.kind!r}; known: {', '.join(known)}"
            )
        if self.kind == "steps" and len(self.steps) != len(self.scales):
            raise ValueError(
                f"steps ({len(self.steps)}) and scales ({len(self.scales)}) "
                "must pair up"
            )

    def learning_rate(self, base: float, iteration: int) -> float:
        """Effective learning rate at ``iteration``."""
        if self.kind == "constant":
            return base
        if self.kind == "steps":
            rate = base
            for boundary, scale in zip(self.steps, self.scales):
                if iteration >= boundary:
                    rate *= scale
            return rate
        if self.kind == "exp":
            return base * (self.gamma ** iteration)
        if self.kind == "poly":
            progress = min(iteration / self.max_iterations, 1.0)
            return base * (1.0 - progress) ** self.power
        # sig: smooth step-down centred on `step`.
        return base / (1.0 + math.exp(self.gamma * (iteration - self.step)))

    @classmethod
    def from_options(cls, options: dict) -> "LearningRatePolicy":
        """Build from Darknet ``[net]`` options (string values)."""
        kind = options.get("policy", "constant").strip().lower()

        def ints(key: str) -> Tuple[int, ...]:
            raw = options.get(key, "")
            return tuple(int(v) for v in raw.split(",") if v.strip())

        def floats(key: str) -> Tuple[float, ...]:
            raw = options.get(key, "")
            return tuple(float(v) for v in raw.split(",") if v.strip())

        max_iterations = int(options.get("max_batches", 10_000))
        if kind == "poly" and max_iterations <= 0:
            raise ValueError(
                f"[net] max_batches must be positive for policy=poly, "
                f"got {max_iterations}"
            )
        return cls(
            kind=kind,
            gamma=float(options.get("gamma", 0.99)),
            power=float(options.get("power", 4.0)),
            step=int(options.get("step", 1)),
            steps=ints("steps"),
            scales=floats("scales"),
            max_iterations=max_iterations,
        )
