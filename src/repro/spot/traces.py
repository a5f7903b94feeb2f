"""Spot-price traces: a deterministic synthetic generator.

The generator produces a mean-reverting price series at the paper's
5-minute spacing with occasional demand spikes, shaped like the EC2
traces of [38]: long quiet stretches below a reasonable bid, punctuated
by short excursions above it.  ``assets/traces/ec2_spot_trace.csv`` is
its default series written out as ``timestamp,price``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

INTERVAL_SECONDS = 300  # the paper's 5-minute sampling


@dataclass(frozen=True)
class SpotTrace:
    """A market-price time series."""

    timestamps: Tuple[int, ...]
    prices: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.prices):
            raise ValueError(
                f"{len(self.timestamps)} timestamps vs {len(self.prices)} prices"
            )
        if len(self.timestamps) < 2:
            raise ValueError("a trace needs at least two samples")

    def __len__(self) -> int:
        return len(self.timestamps)

    def running_mask(self, max_bid: float) -> List[bool]:
        """Per-interval instance state: True while ``max_bid > price``."""
        return [max_bid > p for p in self.prices]

    def interruptions(self, max_bid: float) -> int:
        """Number of running -> killed transitions at ``max_bid``."""
        mask = self.running_mask(max_bid)
        return sum(
            1 for a, b in zip(mask, mask[1:]) if a and not b
        )


#: Mean spot price ($/h) the synthetic series reverts to.
BASE_PRICE = 0.0902
#: How far a demand spike rises above the base price.
SPIKE_HEIGHT = 0.012
#: Samples in the series: eight hours at 5-minute spacing.
N_INTERVALS = 96
#: Demand spikes in the series.
N_SPIKES = 2


def synthetic_trace() -> SpotTrace:
    """A deterministic EC2-shaped price series.

    Mean-reverting noise around ``BASE_PRICE`` with ``N_SPIKES`` short
    demand spikes rising ``SPIKE_HEIGHT`` above base — at the paper's
    bid of 0.0955 they yield exactly two interruptions.
    """
    rng = np.random.default_rng(38)
    prices = np.empty(N_INTERVALS)
    level = BASE_PRICE
    for i in range(N_INTERVALS):
        level += 0.25 * (BASE_PRICE - level) + rng.normal(0, 0.0006)
        prices[i] = level
    # Demand spikes at deterministic spots (avoid the endpoints).
    spike_centers = [
        int(N_INTERVALS * (k + 1) / (N_SPIKES + 1)) for k in range(N_SPIKES)
    ]
    for center in spike_centers:
        width = int(rng.integers(2, 5))
        for j in range(max(0, center - width // 2), min(N_INTERVALS, center + width)):
            prices[j] = BASE_PRICE + SPIKE_HEIGHT + rng.uniform(0, 0.002)
    timestamps = tuple(i * INTERVAL_SECONDS for i in range(N_INTERVALS))
    return SpotTrace(timestamps=timestamps, prices=tuple(float(p) for p in prices))

