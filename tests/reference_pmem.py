"""Frozen persistent-memory device: the two-image model ``repro.hw.pmem``
ran before it kept undo pre-images, kept verbatim as the oracle the
current device is held to (``tests/test_pmem_reference.py``).

It holds ``_data`` (what loads see) and ``_durable`` (the media view a
crash copies back whole).  A flush copies its dirty bytes to
``_durable`` at once and ``fence()`` only charges time, so under it
every flushed line is durable: exactly what the current device's
default persistence policy (every pending line lands at a power
failure) must reproduce, store for store, charge for charge.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faults import plan as faultplan
from repro.hw.intervals import IntervalSet
from repro.hw.pmem import FlushInstruction
from repro.simtime.clock import SimClock
from repro.simtime.costs import CACHE_LINE, DeviceCostModel

#: op name -> fault-point registry site.
_FAULT_SITES = {
    "store": "pm.store",
    "flush": "pm.flush",
    "fence": "pm.fence",
}


class ReferencePmemDevice:
    """A simulated PM module (or the Ramdisk emulating one).

    Parameters
    ----------
    size:
        Capacity in bytes.
    clock:
        Shared simulated clock to charge operation costs to.
    cost:
        Device cost model (bandwidths/latencies).
    clflush_cost, clflushopt_cost, sfence_cost, store_cost, load_cost:
        Micro-operation costs used by flush/fence accounting (taken from
        the active :class:`~repro.simtime.ServerProfile`).
    """

    def __init__(
        self,
        size: int,
        clock: SimClock,
        cost: DeviceCostModel,
        *,
        clflush_cost: float = 100e-9,
        clflushopt_cost: float = 25e-9,
        sfence_cost: float = 30e-9,
        store_cost: float = 6e-9,
        load_cost: float = 4e-9,
    ) -> None:
        if size <= 0:
            raise ValueError(f"device size must be positive, got {size}")
        self.size = size
        self.clock = clock
        self.cost = cost
        self.clflush_cost = clflush_cost
        self.clflushopt_cost = clflushopt_cost
        self.sfence_cost = sfence_cost
        self.store_cost = store_cost
        self.load_cost = load_cost
        self._data = np.zeros(size, np.uint8)
        self._durable = np.zeros(size, np.uint8)
        self._dirty = IntervalSet()
        # Ranges resident in the CPU cache hierarchy: reads of hot data
        # pay cache cost, not PM media latency/bandwidth.  Crashes (and
        # explicit drop_caches) leave the cache cold, which is what makes
        # post-crash restores pay full PM read cost.
        self._hot = IntervalSet()
        self.cache_read_bandwidth = 20 * (1 << 30)
        self.cache_write_bandwidth = 20 * (1 << 30)
        self.crash_count = 0
        self.stats = {
            "stores": 0,
            "loads": 0,
            "bytes_written": 0,
            "bytes_read": 0,
            "flushes": 0,
            "fences": 0,
            # Bytes actually written back to the PM media — the
            # write-amplification numerator (logical bytes / media bytes).
            "media_bytes": 0,
        }

    def _fault(self, op: str):
        active = faultplan.ACTIVE
        if active.enabled:
            # _FAULT_SITES is a static table of registered literals;
            # tests/test_faults.py pins its values against the registry.
            return active.check(_FAULT_SITES[op])
        return None

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError(
                f"PM access [{addr}, {addr + length}) out of bounds "
                f"(device size {self.size})"
            )

    def _account_store(self, addr: int, length: int) -> None:
        """Bookkeeping + simulated cost of a store (data already placed)."""
        self._dirty.add(addr, addr + length)
        self._hot.add(addr, addr + length)
        self.stats["stores"] += 1
        self.stats["bytes_written"] += length
        # Stores land in the cache hierarchy: cache-speed cost.  The PM
        # media write bandwidth is charged when the lines are flushed.
        self.clock.advance(
            self.store_cost + length / self.cache_write_bandwidth
        )

    def _charge_read(self, addr: int, length: int) -> None:
        """Bookkeeping + simulated cost of a load of ``length`` bytes."""
        self.stats["loads"] += 1
        self.stats["bytes_read"] += length
        hot = self._hot.overlap_total(addr, addr + length) if length else 0
        cold = length - hot
        cost = self.load_cost + hot / self.cache_read_bandwidth
        if cold > 0:
            cost += self.cost.read_latency + cold / self.cost.read_bandwidth
            self._hot.add(addr, addr + length)
        self.clock.advance(cost)

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` — volatile until flushed."""
        self._fault("store")
        self._check_range(addr, len(data))
        if not data:
            return
        # A memoryview target: no hidden temporary (see ``flush``).
        memoryview(self._data)[addr : addr + len(data)] = data
        self._account_store(addr, len(data))

    def write_prefilled(self, addr: int, length: int) -> None:
        """Account for a store whose payload is already in the volatile
        image (placed through :meth:`volatile_view`).

        Identical cost, fault-injection and cache bookkeeping to
        :meth:`write` — only the memcpy is skipped, because the producer
        (e.g. the sealing pipeline) generated the bytes in place.
        """
        self._fault("store")
        self._check_range(addr, length)
        if not length:
            return
        self._account_store(addr, length)

    def volatile_view(self, addr: int, length: int) -> memoryview:
        """Writable view over the *volatile* data image — host staging.

        Carries no simulated cost: durability and store cost are charged
        when the range is committed via :meth:`write_prefilled`.  The
        view aliases live device memory and is invalidated by
        :meth:`crash`; it must not outlive the current operation.
        """
        self._check_range(addr, length)
        return memoryview(self._data)[addr : addr + length]

    def read(self, addr: int, length: int) -> bytes:
        """Load ``length`` bytes from ``addr`` (sees cached stores).

        Cache-hot ranges (recently written or read) cost cache accesses;
        cold ranges pay PM media latency and bandwidth.
        """
        self._check_range(addr, length)
        self._charge_read(addr, length)
        return bytes(memoryview(self._data)[addr : addr + length])

    def read_view(self, addr: int, length: int) -> memoryview:
        """Like :meth:`read`, returning a zero-copy readonly view.

        Simulated cost is identical to :meth:`read`.  The view aliases
        live device memory: it is invalidated by :meth:`crash` and stale
        after any overlapping store — callers consume it immediately.
        """
        self._check_range(addr, length)
        self._charge_read(addr, length)
        return memoryview(self._data)[addr : addr + length].toreadonly()

    def copy_within(self, src: int, dst: int, length: int) -> None:
        """``write(dst, read(src, length))`` without the intermediate
        ``bytes`` — the Romulus twin-copy hot path.

        Charges exactly the read cost then the store cost, with the same
        cache/dirty bookkeeping and fault-injection points.
        """
        self._check_range(src, length)
        self._charge_read(src, length)
        self._fault("store")
        self._check_range(dst, length)
        if not length:
            return
        view = memoryview(self._data)
        if abs(dst - src) < length:  # overlapping: copy via a bounce
            view[dst : dst + length] = bytes(view[src : src + length])
        else:
            view[dst : dst + length] = view[src : src + length]
        self._account_store(dst, length)

    def drop_caches(self) -> None:
        """Evict the (simulated) CPU cache: subsequent reads are cold.

        Benchmarks call this between a save and a restore measurement so
        the restore pays true PM read cost, as it would after a reboot.
        """
        self._hot.clear()

    # ------------------------------------------------------------------
    # Persistence path
    # ------------------------------------------------------------------
    def flush(
        self,
        addr: int,
        length: int,
        instruction: FlushInstruction = FlushInstruction.CLFLUSHOPT,
    ) -> None:
        """Flush the cache lines covering ``[addr, addr+length)``.

        Only dirty bytes reach the media (``stats["media_bytes"]``);
        every covered line, clean or dirty, pays the flush-instruction
        cost (as on real hardware for CLFLUSH/CLFLUSHOPT, which evict
        unconditionally) and counts in ``stats["flushes"]``.
        """
        torn = self._fault("flush")
        self._check_range(addr, length)
        if length == 0:
            return
        line_start = (addr // CACHE_LINE) * CACHE_LINE
        line_end = -(-(addr + length) // CACHE_LINE) * CACHE_LINE
        line_end = min(line_end, self.size)
        nlines = (line_end - line_start) // CACHE_LINE

        dirty_bytes = self._dirty.overlap_total(line_start, line_end)
        # Through memoryviews on both sides: a slice copy per interval
        # without building a numpy view for each slice.
        data_view = memoryview(self._data)
        durable_view = memoryview(self._durable)
        if torn is not None:
            self._torn_flush(line_start, line_end, dirty_bytes, torn)
        for a, b in self._dirty.overlap(line_start, line_end):
            durable_view[a:b] = data_view[a:b]
        self._dirty.remove(line_start, line_end)

        per_line = (
            self.clflush_cost
            if instruction is FlushInstruction.CLFLUSH
            else self.clflushopt_cost
        )
        self.stats["flushes"] += nlines
        self.stats["media_bytes"] += dirty_bytes
        # Per-line instruction cost plus the media write for dirty bytes.
        self.clock.advance(
            nlines * per_line + dirty_bytes / self.cost.write_bandwidth
        )

    def _torn_flush(self, line_start: int, line_end: int,
                    dirty_bytes: int, torn) -> None:
        """Persist only a prefix of the dirty lines, then power-fail.

        Tearing is cache-line granular: a line either reaches the media
        whole or not at all (real ADR platforms guarantee 8-byte store
        atomicity; modelling sub-line tears would be unsound, since the
        protocol's u64 header words never straddle a line).  Always
        raises via ``torn.crash()``.
        """
        budget = int(dirty_bytes * torn.fraction)
        persisted = 0
        data_view = memoryview(self._data)
        durable_view = memoryview(self._durable)
        for a, b in self._dirty.overlap(line_start, line_end):
            pos = a
            while pos < b:
                nxt = min(b, (pos // CACHE_LINE + 1) * CACHE_LINE)
                if persisted + (nxt - pos) > budget:
                    torn.crash()
                durable_view[pos:nxt] = data_view[pos:nxt]
                persisted += nxt - pos
                pos = nxt
        torn.crash()

    def fence(self) -> None:
        """SFENCE: order preceding flushes (cost only; flushes here are
        already modelled as immediately reaching the ADR domain)."""
        self._fault("fence")
        self.stats["fences"] += 1
        self.clock.advance(self.sfence_cost)

    def persist(
        self,
        addr: int,
        length: int,
        instruction: FlushInstruction = FlushInstruction.CLFLUSHOPT,
    ) -> None:
        """Flush + (fence if the instruction requires it) — a full PWB."""
        self.flush(addr, length, instruction)
        if instruction.needs_fence:
            self.fence()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure: discard every store not yet flushed."""
        self._data[:] = self._durable
        self._dirty.clear()
        self._hot.clear()
        self.crash_count += 1

    @property
    def dirty_bytes(self) -> int:
        """Bytes currently at risk (stored but not flushed)."""
        return self._dirty.total

    def durable_read(self, addr: int, length: int) -> bytes:
        """Read the media view (what a crash would preserve).

        Test/diagnostic API — real software cannot observe this
        distinction without actually crashing.
        """
        self._check_range(addr, length)
        return self._durable[addr : addr + length].tobytes()

    def snapshot(self) -> Optional[bytes]:
        """Durable image of the whole device (for spot-simulator hand-off)."""
        return self._durable.tobytes()

    def load_image(self, image: bytes) -> None:
        """Overwrite the device with a previously captured image.

        This models the *replay attack* a privileged adversary can mount
        on any persistent medium: present an old but internally
        consistent PM state.  Rollback is outside the paper's threat
        model and this reproduction's: the older state restores as
        valid, which ``test_replayed_pm_image_restores_older_iteration``
        in ``tests/test_threat_model.py`` pins.
        """
        if len(image) != self.size:
            raise ValueError(
                f"image is {len(image)} bytes, device is {self.size}"
            )
        memoryview(self._durable)[:] = image
        memoryview(self._data)[:] = image
        self._dirty.clear()
        self._hot.clear()
