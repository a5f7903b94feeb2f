"""Spot-price traces: file format + synthetic generator.

Trace files are CSV with a header: ``timestamp,price`` where timestamps
are seconds (5-minute spacing in the paper's traces).  The synthetic
generator produces a mean-reverting price series with occasional demand
spikes, shaped like the EC2 traces of [38]: long quiet stretches below a
reasonable bid, punctuated by short excursions above it.
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


def synthetic_trace(n_intervals: int = 96, n_spikes: int = 2) -> SpotTrace:
    """A deterministic EC2-shaped price series.

    Mean-reverting noise around ``BASE_PRICE`` with ``n_spikes`` short
    demand spikes rising ``SPIKE_HEIGHT`` above base — at the paper's
    bid of 0.0955 the defaults yield exactly two interruptions.
    """
    rng = np.random.default_rng(38)
    prices = np.empty(n_intervals)
    level = BASE_PRICE
    for i in range(n_intervals):
        level += 0.25 * (BASE_PRICE - level) + rng.normal(0, 0.0006)
        prices[i] = level
    # Demand spikes at deterministic spots (avoid the endpoints).
    spike_centers = [
        int(n_intervals * (k + 1) / (n_spikes + 1)) for k in range(n_spikes)
    ]
    for center in spike_centers:
        width = int(rng.integers(2, 5))
        for j in range(max(0, center - width // 2), min(n_intervals, center + width)):
            prices[j] = BASE_PRICE + SPIKE_HEIGHT + rng.uniform(0, 0.002)
    timestamps = tuple(i * INTERVAL_SECONDS for i in range(n_intervals))
    return SpotTrace(timestamps=timestamps, prices=tuple(float(p) for p in prices))


def render_trace(trace: SpotTrace) -> str:
    """Serialize a trace to CSV text."""
    lines = ["timestamp,price"]
    lines += [f"{t},{p:.6f}" for t, p in zip(trace.timestamps, trace.prices)]
    return "\n".join(lines) + "\n"


def load_trace(text: str) -> SpotTrace:
    """Parse CSV trace text (as written by :func:`render_trace`)."""
    timestamps: List[int] = []
    prices: List[float] = []
    for lineno, line in enumerate(text.strip().splitlines(), start=1):
        if lineno == 1 and line.lower().startswith("timestamp"):
            continue
        try:
            t_str, p_str = line.split(",")
            timestamps.append(int(t_str))
            prices.append(float(p_str))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {line!r}") from exc
    return SpotTrace(timestamps=tuple(timestamps), prices=tuple(prices))
