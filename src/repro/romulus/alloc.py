"""Persistent memory allocator (the ``PMalloc`` of Algorithm 3).

A bump allocator whose metadata lives *inside the main region* (bump
pointer at main offset 0).  Because all metadata writes go through the
transaction, a crash mid-allocation rolls the allocator state back
together with the data it was allocating for — no persistent leaks,
no dangling blocks.  Nothing frees: the mirror and the data matrix
each allocate once per region and rewrite in place.

Block layout: each allocation is preceded by an 8-byte size header.
Main offset 8 holds an always-empty free-list head, which every
allocation loads (see :meth:`PersistentHeap.pmalloc`).
"""

from __future__ import annotations

from repro.romulus.region import USER_DATA_START, RomulusRegion
from repro.romulus.transaction import Transaction

_BUMP_OFFSET = 0
_FREE_HEAD_OFFSET = 8
_HEADER = 8  # size header preceding every block
_ALIGN = 64  # cache-line alignment, matching persist<> granularity
_MIN_BLOCK = 64


class AllocationError(MemoryError):
    """Raised when the main region cannot satisfy an allocation."""


def _align(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


class PersistentHeap:
    """Allocator facade over a region; all mutations require a transaction."""

    def __init__(self, region: RomulusRegion) -> None:
        self.region = region

    # ------------------------------------------------------------------
    @property
    def bump(self) -> int:
        """Current bump pointer (main-relative)."""
        return self.region.read_u64(_BUMP_OFFSET)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed from the user area (including size headers)."""
        return self.bump - USER_DATA_START

    def pmalloc(self, tx: Transaction, size: int) -> int:
        """Allocate ``size`` bytes; returns the main-relative offset."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive: {size}")
        need = max(_align(size + _HEADER), _MIN_BLOCK)

        # A charged PM load of the empty free-list head: the simulated
        # times of every figure include it.
        self.region.read_u64(_FREE_HEAD_OFFSET)
        bump = self.bump
        if bump + need > self.region.main_size:
            raise AllocationError(
                f"persistent heap exhausted: need {need} bytes, "
                f"bump at {self.bump} of {self.region.main_size}"
            )
        tx.write_u64(_BUMP_OFFSET, bump + need)
        tx.write_u64(bump, need)
        return bump + _HEADER

    def allocation_size(self, user_offset: int) -> int:
        """Usable bytes of the allocation at ``user_offset``."""
        return self.region.read_u64(user_offset - _HEADER) - _HEADER
