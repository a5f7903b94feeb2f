"""Coalesced sets of half-open integer intervals.

Dirty-range tracking for the simulated persistent memory device.  Tracking
dirtiness at range granularity (instead of per cache line) keeps the cost
of simulating a multi-megabyte ``memcpy`` proportional to the number of
*distinct* writes, not the number of lines touched.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Tuple

Interval = Tuple[int, int]


class IntervalSet:
    """A set of non-overlapping, non-adjacent half-open intervals ``[a, b)``.

    Maintains the invariant that intervals are sorted and coalesced:
    adding ``[0, 5)`` then ``[5, 9)`` stores a single ``[0, 9)``.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []

    @classmethod
    def of(cls, intervals) -> "IntervalSet":
        """The set covering every ``(start, end)`` of ``intervals``."""
        out = cls()
        for a, b in intervals:
            out.add(a, b)
        return out

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(zip(self._starts, self._ends))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(f"[{a},{b})" for a, b in self)
        return f"IntervalSet({spans})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    @property
    def total(self) -> int:
        """Total number of integers covered."""
        return sum(b - a for a, b in self)

    def clear(self) -> None:
        """Remove every interval."""
        self._starts.clear()
        self._ends.clear()

    def add(self, start: int, end: int) -> None:
        """Add the half-open interval ``[start, end)``, coalescing."""
        if start >= end:
            return
        # Find the window of existing intervals that touch or overlap
        # [start, end).  An interval [a, b) touches iff a <= end and
        # b >= start.
        starts, ends = self._starts, self._ends
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(starts, end)
        if lo == hi:
            starts.insert(lo, start)
            ends.insert(lo, end)
            return
        if starts[lo] < start:
            start = starts[lo]
        if ends[hi - 1] > end:
            end = ends[hi - 1]
        if hi - lo == 1:
            starts[lo] = start
            ends[lo] = end
            return
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]

    def remove(self, start: int, end: int) -> None:
        """Remove ``[start, end)`` from the covered set."""
        if start >= end:
            return
        # Window of intervals with strict overlap: a < end and b > start.
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_left(self._starts, end)
        if lo >= hi:
            return
        replacement_starts: List[int] = []
        replacement_ends: List[int] = []
        if self._starts[lo] < start:
            replacement_starts.append(self._starts[lo])
            replacement_ends.append(start)
        if self._ends[hi - 1] > end:
            replacement_starts.append(end)
            replacement_ends.append(self._ends[hi - 1])
        self._starts[lo:hi] = replacement_starts
        self._ends[lo:hi] = replacement_ends

    def contains(self, point: int) -> bool:
        """Whether ``point`` is covered by any interval."""
        idx = bisect.bisect_right(self._starts, point) - 1
        return idx >= 0 and point < self._ends[idx]

    def overlap(self, start: int, end: int) -> List[Interval]:
        """Intervals of the intersection with ``[start, end)``."""
        if start >= end:
            return []
        starts, ends = self._starts, self._ends
        lo = bisect.bisect_right(ends, start)
        hi = bisect.bisect_left(starts, end)
        if lo >= hi:
            return []
        # Every interval in the window overlaps: a < end and b > start.
        if hi - lo == 1:
            a, b = starts[lo], ends[lo]
            return [(a if a > start else start, b if b < end else end)]
        out = list(zip(starts[lo:hi], ends[lo:hi]))
        if out[0][0] < start:
            out[0] = (start, out[0][1])
        if out[-1][1] > end:
            out[-1] = (out[-1][0], end)
        return out

    def gaps(self, start: int, end: int) -> List[Interval]:
        """Intervals of ``[start, end)`` that are *not* covered."""
        out: List[Interval] = []
        pos = start
        for a, b in self.overlap(start, end):
            if pos < a:
                out.append((pos, a))
            pos = b
        if pos < end:
            out.append((pos, end))
        return out

    def overlap_total(self, start: int, end: int) -> int:
        """Number of covered integers within ``[start, end)``."""
        total = 0
        for a, b in self.overlap(start, end):
            total += b - a
        return total
