"""The Romulus persistent region: header + twin *main*/*back* copies.

On-device layout (all sizes in bytes)::

    base + 0      magic        8   b"ROMULUS1"
    base + 8      state        8   0=IDLE  1=MUTATING  2=COPYING
    base + 16     main_size    8
    base + 4096   main region  main_size   (user code reads/writes here)
    base + 4096 + main_size    back region main_size  (consistent snapshot)

Inside *main*, the first bytes are the allocator metadata and the root
directory; because they live in main they are covered by the same
twin-copy protocol as user data (a crash mid-allocation rolls the
allocator back together with the data)::

    main + 0      alloc bump pointer   8
    main + 8      free-list head       8   (0 = empty)
    main + 16     roots                8 x 8
    main + 80     user data

Recovery (Section II): after a crash while **mutating**, back is the
consistent copy — restore main from back; after a crash while
**copying**, main is consistent — redo the copy to back.  The volatile
log is lost in both cases and never needed.
"""

from __future__ import annotations

import enum
import struct

from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.romulus.runtime import NATIVE, RuntimeProfile

MAGIC = b"ROMULUS1"
HEADER_SIZE = 4096

_META_BUMP = 0
_META_FREE_HEAD = 8
_META_ROOTS = 16
NUM_ROOTS = 8
USER_DATA_START = _META_ROOTS + 8 * NUM_ROOTS


class RegionState(enum.IntEnum):
    """Consistency state recorded in the persistent header."""

    IDLE = 0
    MUTATING = 1
    COPYING = 2


class RomulusRegion:
    """A formatted Romulus region on a PM device.

    Use :meth:`format` on first use and :meth:`open` (which runs
    recovery) on every subsequent attach.  User-facing offsets are
    *main-relative*; allocation offsets returned by the heap point into
    the user-data area.
    """

    def __init__(
        self,
        device: PersistentMemoryDevice,
        main_size: int,
        base: int = 0,
        flush_instruction: FlushInstruction = FlushInstruction.CLFLUSHOPT,
        runtime: RuntimeProfile = NATIVE,
    ) -> None:
        needed = base + HEADER_SIZE + 2 * main_size
        if needed > device.size:
            raise ValueError(
                f"device too small: region needs {needed} bytes, "
                f"device has {device.size}"
            )
        if main_size <= USER_DATA_START:
            raise ValueError(f"main_size must exceed {USER_DATA_START} bytes")
        self.device = device
        self.base = base
        self.main_size = main_size
        self.flush_instruction = flush_instruction
        self.runtime = runtime
        self.main_base = base + HEADER_SIZE
        self.back_base = self.main_base + main_size
        self.active_transaction = False

    # ------------------------------------------------------------------
    # Header access
    # ------------------------------------------------------------------
    def _read_header_u64(self, offset: int) -> int:
        return struct.unpack(
            "<Q", self.device.read(self.base + offset, 8)
        )[0]

    def _write_header_u64(self, offset: int, value: int) -> None:
        self.device.write(self.base + offset, struct.pack("<Q", value))

    @property
    def state(self) -> RegionState:
        """Current persistent consistency state."""
        return RegionState(self._read_header_u64(8))

    def set_state(self, state: RegionState, fence: bool = True) -> None:
        """Persist a state transition (flush + optional fence)."""
        self._write_header_u64(8, int(state))
        self.device.flush(self.base + 8, 8, self.flush_instruction)
        if fence and self.flush_instruction.needs_fence:
            self.fence()

    def fence(self) -> None:
        """Issue a persistence fence, scaled by the hosting runtime."""
        self.device.fence()
        extra = (self.runtime.fence_multiplier - 1.0) * self.device.sfence_cost
        if extra > 0:
            self.device.clock.advance(extra)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def format(self) -> "RomulusRegion":
        """Initialize a fresh region: both twins consistent and empty."""
        self.device.write(self.base, MAGIC)
        self._write_header_u64(8, int(RegionState.IDLE))
        self._write_header_u64(16, self.main_size)
        # Allocator metadata + empty root directory.
        meta = struct.pack("<QQ", USER_DATA_START, 0) + b"\x00" * (8 * NUM_ROOTS)
        self.device.write(self.main_base, meta)
        # Twin snapshot.
        self.device.write(
            self.back_base, self.device.read(self.main_base, len(meta))
        )
        # Persist the twins first and the magic-bearing header last: once
        # the magic is durable, everything it promises (state, main_size,
        # allocator meta, twin snapshot) is durable too.  A crash
        # mid-format therefore leaves either no region (reformat on next
        # boot) or a complete one — never a magic pointing at garbage.
        self.device.flush(self.main_base, len(meta), self.flush_instruction)
        self.device.flush(self.back_base, len(meta), self.flush_instruction)
        if self.flush_instruction.needs_fence:
            self.fence()
        self.device.flush(self.base, HEADER_SIZE, self.flush_instruction)
        if self.flush_instruction.needs_fence:
            self.fence()
        return self

    @classmethod
    def open(
        cls,
        device: PersistentMemoryDevice,
        base: int = 0,
    ) -> "RomulusRegion":
        """Attach to an existing region, running crash recovery."""
        magic = device.read(base, 8)
        if magic != MAGIC:
            raise ValueError(
                f"no Romulus region at base {base}: bad magic {magic!r}"
            )
        main_size = struct.unpack("<Q", device.read(base + 16, 8))[0]
        region = cls(device, main_size, base=base)
        region.recover()
        return region

    def recover(self) -> RegionState:
        """Run Romulus recovery; returns the state found at attach time."""
        found = self.state
        recorder = self.device.clock.recorder
        if recorder.enabled:
            recorder.count("romulus.recoveries")
            recorder.instant(
                "romulus.recover",
                self.device.clock.now(),
                category="romulus",
                args={"found_state": found.name},
            )
        if found is RegionState.MUTATING:
            # Main may be inconsistent: restore from back.
            self.device.copy_within(
                self.back_base, self.main_base, self.main_size
            )
            self.device.flush(
                self.main_base, self.main_size, self.flush_instruction
            )
            if self.flush_instruction.needs_fence:
                self.fence()
            self.set_state(RegionState.IDLE)
        elif found is RegionState.COPYING:
            # Main is consistent: redo the copy to back (log is gone).
            self.device.copy_within(
                self.main_base, self.back_base, self.main_size
            )
            self.device.flush(
                self.back_base, self.main_size, self.flush_instruction
            )
            if self.flush_instruction.needs_fence:
                self.fence()
            self.set_state(RegionState.IDLE)
        self.active_transaction = False
        return found

    # ------------------------------------------------------------------
    # Data access (main-relative offsets)
    # ------------------------------------------------------------------
    def _check_offset(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.main_size:
            raise IndexError(
                f"region access [{offset}, {offset + length}) outside "
                f"main region of {self.main_size} bytes"
            )

    def read(self, offset: int, length: int) -> bytes:
        """Read from main (sees in-flight transactional writes)."""
        self._check_offset(offset, length)
        return self.device.read(self.main_base + offset, length)

    def read_u64(self, offset: int) -> int:
        """Read a little-endian u64 from main."""
        return struct.unpack("<Q", self.read(offset, 8))[0]

    def read_view(self, offset: int, length: int) -> memoryview:
        """Zero-copy readonly view of main — same simulated cost as
        :meth:`read`; the view is stale after any overlapping store."""
        self._check_offset(offset, length)
        return self.device.read_view(self.main_base + offset, length)

    def staging_view(self, offset: int, length: int) -> memoryview:
        """Writable view of main for producers that generate data in
        place (the zero-copy sealing pipeline).

        Carries no simulated cost and no durability: the covering
        transaction must account the range with
        :meth:`~repro.romulus.transaction.Transaction.write_prefilled`
        before commit, or the bytes are lost on crash.
        """
        self._check_offset(offset, length)
        return self.device.volatile_view(self.main_base + offset, length)

    def read_back(self, offset: int, length: int) -> bytes:
        """Read the back twin (diagnostics/tests only)."""
        self._check_offset(offset, length)
        return self.device.read(self.back_base + offset, length)

    def root(self, index: int) -> int:
        """Read root pointer ``index`` (0 = unset)."""
        if not 0 <= index < NUM_ROOTS:
            raise IndexError(f"root index {index} out of range 0..{NUM_ROOTS - 1}")
        return self.read_u64(_META_ROOTS + 8 * index)

    def root_offset(self, index: int) -> int:
        """Main-relative offset where root ``index`` is stored."""
        if not 0 <= index < NUM_ROOTS:
            raise IndexError(f"root index {index} out of range 0..{NUM_ROOTS - 1}")
        return _META_ROOTS + 8 * index

    def begin_transaction(self) -> "Transaction":
        """Start a durable transaction (context-manager friendly)."""
        from repro.romulus.transaction import Transaction

        return Transaction(self)
