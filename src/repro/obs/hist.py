"""Log-bucketed latency histograms.

A :class:`LogHistogram` is the fixed-shape sketch behind every
``recorder.observe(name, value)`` call: values are binned into
power-of-two buckets (bucket *e* covers ``[2**(e-1), 2**e)``), so the
sketch is

* **bounded** — at most one counter per occupied exponent, regardless
  of sample count;
* **deterministic** — bucketing uses :func:`math.frexp` (exact binary
  exponent extraction, no ``log`` rounding fuzz), and every exported
  view sorts its keys, so same-seed runs serialize byte-identically.

Quantile estimates use the nearest-rank rule over bucket counts and
report the arithmetic midpoint of the bucket holding the rank-th
sample — guaranteed within one log2 bucket of the exact sorted
quantile (the regression tests assert exactly that against
``np.percentile`` on serve-bench latencies).  Exact ``count``, ``sum``,
``min`` and ``max`` are kept alongside the buckets, so means and range
endpoints are not sketched.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["LogHistogram", "bucket_index"]

#: Bucket index assigned to zero and negative samples (queue waits of
#: exactly 0 simulated seconds are common and must not be dropped).
UNDERFLOW_BUCKET = -1075  # below the smallest subnormal float exponent


def bucket_index(value: float) -> int:
    """The log2 bucket holding ``value``: bucket ``e`` is ``[2**(e-1), 2**e)``.

    Zero and negative values land in the dedicated underflow bucket.
    """
    if value <= 0.0:
        return UNDERFLOW_BUCKET
    _, exponent = math.frexp(value)  # value = m * 2**e with 0.5 <= m < 1
    return exponent


def _bucket_midpoint(bucket: int) -> float:
    """Arithmetic midpoint of bucket ``bucket`` (``1.5 * 2**(b-1)``)."""
    if bucket == UNDERFLOW_BUCKET:
        return 0.0
    return 1.5 * math.ldexp(1.0, bucket - 1)


class LogHistogram:
    """Fixed log2-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("_buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Add one sample."""
        value = float(value)
        bucket = bucket_index(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Exact mean (sum and count are not sketched)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, within one log2 bucket of exact.

        ``q <= 0`` returns the exact minimum and ``q >= 1`` the exact
        maximum; in between, the estimate is the midpoint of the bucket
        containing the ceil(q * count)-th smallest sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return float(self.min or 0.0)
        if q >= 1.0:
            return float(self.max or 0.0)
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for bucket in sorted(self._buckets):
            cumulative += self._buckets[bucket]
            if cumulative >= rank:
                return _bucket_midpoint(bucket)
        return float(self.max or 0.0)  # pragma: no cover - defensive

    def buckets(self) -> List[Tuple[int, int]]:
        """Sorted ``(bucket_exponent, count)`` pairs."""
        return sorted(self._buckets.items())

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready view (bucket keys sorted, stringified)."""
        return {
            "buckets": {str(b): n for b, n in sorted(self._buckets.items())},
            "count": self.count,
            "max": self.max,
            "mean": self.mean(),
            "min": self.min,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
            "sum": self.sum,
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(count={self.count}, "
            f"buckets={len(self._buckets)}, mean={self.mean():.3g})"
        )
