"""Romulus' volatile log of modified ranges.

The log records the address ranges mutated by the in-flight transaction.
It lives in *volatile* (enclave) memory — Romulus' central insight is
that this log never needs to survive a crash: if the crash happens while
mutating, *back* is consistent and *main* is rebuilt from it wholesale,
so knowing which ranges were dirty is unnecessary.

The log coalesces adjacent ranges (via :class:`IntervalSet`) so that the
commit-time copy of main to back is proportional to the modified bytes,
and it reports the raw entry count so runtime profiles with bounded log
space (SCONE in Fig. 6) can charge spill costs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.faults import plan as faultplan
from repro.hw.intervals import IntervalSet


class VolatileLog:
    """Coalescing range log with an append counter."""

    def __init__(self) -> None:
        self._ranges = IntervalSet()
        self.entries = 0

    def record(self, offset: int, length: int) -> None:
        """Log a store to ``[offset, offset + length)``."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("romulus.log.record")
        if length <= 0:
            return
        self._ranges.add(offset, offset + length)
        self.entries += 1

    def clear(self) -> None:
        """Empty the log (transaction committed or aborted)."""
        self._ranges.clear()
        self.entries = 0

    def ranges(self) -> Iterator[Tuple[int, int]]:
        """Iterate coalesced ``(start, end)`` ranges."""
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)
