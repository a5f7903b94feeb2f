"""Simulated byte-addressable persistent memory with cache semantics.

The device models the persistence rules of real PM platforms (Section II
of the paper).  A cache line moves through three states:

* **dirty** — a CPU store landed in the (volatile) cache hierarchy;
* **pending** — CLFLUSHOPT or CLWB wrote the line back to the memory
  controller's write-pending queue.  Pending write-backs are unordered
  among themselves: until the next SFENCE, any subset of them may have
  reached the ADR persistence domain;
* **durable** — :meth:`PersistentMemoryDevice.fence` (SFENCE) drains
  every pending line to media.  CLFLUSH is strongly ordered and makes
  its lines durable at once.

:meth:`PersistentMemoryDevice.crash` is a power failure under the
default persistence policy: every dirty line is lost and every pending
line lands.  The ``UNFENCED`` fault kind at ``pm.fence`` fails power
with lines pending instead and lets its policy pick which write-backs
landed (none, all, only the newest flush, or a seeded subset of lines).

The device holds one flat byte image, ``_data``, except over **held**
ranges (:class:`~repro.hw.undo.Holds`), whose bytes live in a buffer of
their own.  :meth:`~PersistentMemoryDevice.volatile_view` hands out a
fresh buffer that its range then holds, and a ``copy_within`` out of a
held range makes its destination hold the same buffer: the Romulus twin
copy of a sealed record moves no bytes.  Nothing writes a held buffer
once its staging view is filled.  A store, a copy's destination, a
crash's overlay or an image load drops the hold over the bytes it
writes, and a load that spans a hold's edge joins the pieces into its
result, so ``_data`` under a hold is never brought up to date.

The media view is the image overlaid with **undo pre-images**
(:class:`~repro.hw.undo.PreImages`): the first store, staging view or
``copy_within`` that touches a clean or pending range saves the bytes
the media may still hold there, and the next fence releases them.  So a
crash writes back only the ranges stored or staged since they were last
made durable, and the device holds resident only the pages written to
it plus the pre-images of what is in flight.  Coalesced
:class:`IntervalSet`\\ s record the dirty, staged and pending ranges.
The base pre-image of a clean held range is a reference to its buffer,
not a copy: staging the Romulus main twin, or copying over the back
twin, saves no bytes.

The image starts zeroed, and a range stays **pristine** — zero in the
image and on the media — until one of the same writes reaches it; an
image load leaves nothing pristine.  A base pre-image of a pristine
range is a **zero record**: it takes no arena byte, except that
resolving a power failure or a landed write-back into it copies it into
the arena first.  So a device's first commit stages the never-written
main twin without saving a byte.  The device knows the range was never
written from its own history; it never scans for zero bytes.
"""

from __future__ import annotations

import enum
import mmap
from typing import List, Optional, Tuple

import numpy as np

from repro.faults import plan as faultplan
from repro.hw.intervals import Interval, IntervalSet
from repro.hw.undo import Holds, PreImages
from repro.simtime.clock import SimClock
from repro.simtime.costs import CACHE_LINE, DeviceCostModel

#: op name -> fault-point registry site.
_FAULT_SITES = {
    "store": "pm.store",
    "flush": "pm.flush",
    "fence": "pm.fence",
}

#: stats key -> the trace counter read from it.
_COUNTERS = {
    "bytes_written": "pm.bytes_written",
    "bytes_read": "pm.bytes_read",
    "flushes": "pm.flushes",
    "media_bytes": "pm.bytes_flushed",
    "fences": "pm.fences",
}


class FlushInstruction(enum.Enum):
    """The persistent write-back instructions Romulus can be built on.

    The paper evaluates ``clflush`` (strongly ordered, paired with a NOP
    instead of a fence) and ``clflushopt`` (weakly ordered, requires
    SFENCE); the servers used lack ``clwb`` support, which we include for
    completeness.
    """

    CLFLUSH = "clflush"
    CLFLUSHOPT = "clflushopt"
    CLWB = "clwb"

    @property
    def needs_fence(self) -> bool:
        """Whether the instruction must be ordered by an explicit SFENCE."""
        return self is not FlushInstruction.CLFLUSH


class PersistentMemoryDevice:
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
        # Private anonymous pages, zeroed on first write (a read maps
        # the shared zero page).  Not np.zeros: numpy asks for
        # transparent huge pages, and then every small record stored
        # into the flat image would make 2 MiB of it resident.
        self._data = np.frombuffer(
            mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
            np.uint8,
        )
        self._view = memoryview(self._data)
        self._undo = PreImages(size)
        # Ranges whose image bytes live in a buffer of their own.
        self._holds = Holds()
        # Never written: zero in _data and on the media.
        self._pristine = IntervalSet.of([(0, size)])
        # Stored, not yet written back.
        self._dirty = IntervalSet()
        # Placed through volatile_view and not yet accounted as a store:
        # never written back, restored by a crash.
        self._staged = IntervalSet()
        # Written back by CLFLUSHOPT/CLWB since the last fence.
        self._pending = IntervalSet()
        # This fence epoch's write-backs, oldest first: (tag, spans).
        self._flushes: List[Tuple[int, List[Interval]]] = []
        self._flush_tag = 0
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
        clock.recorder.register(self.stats, _COUNTERS)

    def _fault(self, op: str):
        active = faultplan.ACTIVE
        if active.enabled:
            # _FAULT_SITES is a static table of registered literals;
            # tests/test_faults.py pins its values against the registry.
            return active.check(_FAULT_SITES[op])
        return None

    # ------------------------------------------------------------------
    # Undo pre-images
    # ------------------------------------------------------------------
    def _save(self, start: int, end: int) -> None:
        """Save what the media may hold over ``[start, end)`` before the
        range is overwritten.  Bytes already stored or staged since they
        were last written back hold nothing the media has."""
        if self._dirty or self._staged:
            for a, b in self._dirty.gaps(start, end):
                for x, y in self._staged.gaps(a, b):
                    self._save_clean(x, y)
        elif self._pending:
            self._save_clean(start, end)
        else:
            self._save_base(start, end)

    def _save_clean(self, start: int, end: int) -> None:
        """:meth:`_save` over bytes that are clean or pending."""
        pos = start
        for a, b in self._pending.overlap(start, end):
            if pos < a:
                self._save_base(pos, a)
            self._save_flushed(a, b)
            pos = b
        if pos < end:
            self._save_base(pos, end)

    def _save_base(self, start: int, end: int) -> None:
        """Save the base pre-image of clean ``[start, end)``: a zero
        record wherever nothing has written it."""
        pos = start
        for a, b in self._pristine.overlap(start, end):
            if pos < a:
                self._save_written(pos, a)
            self._undo.save_zero(a, b)
            pos = b
        if pos < end:
            self._save_written(pos, end)

    def _save_written(self, start: int, end: int) -> None:
        """Save the base pre-image of clean, written ``[start, end)``: a
        reference wherever a buffer holds it."""
        undo = self._undo
        pos = start
        for a, b, buf, at in self._holds.overlap(start, end):
            if pos < a:
                undo.save_base(self._view, pos, a)
            undo.save_ref(a, b, buf, at)
            pos = b
        if pos < end:
            undo.save_base(self._view, pos, end)

    def _overwrite(self, start: int, end: int) -> None:
        """``[start, end)`` of the image is about to be written whole:
        drop its holds and its pristine bytes."""
        self._holds.remove(start, end)
        if self._pristine:
            self._pristine.remove(start, end)

    def _save_flushed(self, start: int, end: int) -> None:
        """A pending range is stored again: keep the value each of its
        bytes was written back with, tagged with that write-back."""
        todo = IntervalSet.of([(start, end)])
        for tag, spans in reversed(self._flushes):
            for a, b in spans:
                for x, y in todo.overlap(a, b):
                    value = self._holds.image(self._view, x, y)
                    self._undo.save_landed(tag, x, value)
                    todo.remove(x, y)
            if not todo:
                return

    def _overlay(self, out: memoryview, start: int, end: int) -> None:
        """Write the default-policy media value of every stored or staged
        byte in ``[start, end)`` into ``out`` (indexed from ``start``)."""
        undo = self._undo
        for a, b, slot, offset in undo.base_in(start, end):
            for x, y in self._unflushed(a, b):
                out[x - start : y - start] = undo.view(
                    slot, offset + (x - a), y - x
                )
        # Pending bytes stored again: their newest write-back lands.
        for _, la, lb, slot, offset in undo.landed:
            for x, y in self._unflushed(max(la, start), min(lb, end)):
                out[x - start : y - start] = undo.view(
                    slot, offset + (x - la), y - x
                )

    def _unflushed(self, start: int, end: int) -> List[Interval]:
        """The stored and the staged ranges within ``[start, end)``."""
        return self._dirty.overlap(start, end) + self._staged.overlap(
            start, end
        )

    def _forget(self) -> None:
        """Drop every in-flight range: the media view is the image."""
        self._undo.clear()
        self._dirty.clear()
        self._staged.clear()
        self._pending.clear()
        self._flushes.clear()
        self._hot.clear()

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
        if self._staged:
            self._staged.remove(addr, addr + length)
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
        self._save(addr, addr + len(data))
        self._overwrite(addr, addr + len(data))
        # A memoryview target: no hidden temporary (see ``flush``).
        self._view[addr : addr + len(data)] = data
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
        self._save(addr, addr + length)
        self._account_store(addr, length)

    def volatile_view(self, addr: int, length: int) -> memoryview:
        """Writable staging buffer for the volatile image's ``[addr,
        addr + length)`` — host staging.

        The buffer is fresh and uninitialised, and the range holds it
        from here on: the caller must fill every byte before its next
        call into the device, and write it no more after that.  Carries
        no simulated cost: durability and store cost are charged when the
        range is committed via :meth:`write_prefilled`.  The range's
        pre-image is saved here, so take the view just before filling it.
        """
        self._check_range(addr, length)
        if not length:
            return self._view[addr:addr]
        end = addr + length
        self._save(addr, end)
        self._overwrite(addr, end)
        for a, b in self._dirty.gaps(addr, end):
            self._staged.add(a, b)
        # np.empty, not bytearray: the caller writes every byte anyway.
        buf = memoryview(np.empty(length, np.uint8))
        self._holds.add(addr, end, buf.toreadonly(), 0)
        return buf

    def read(self, addr: int, length: int) -> bytes:
        """Load ``length`` bytes from ``addr`` (sees cached stores).

        Cache-hot ranges (recently written or read) cost cache accesses;
        cold ranges pay PM media latency and bandwidth.
        """
        self._check_range(addr, length)
        self._charge_read(addr, length)
        return bytes(self._holds.image(self._view, addr, addr + length))

    def read_view(self, addr: int, length: int) -> memoryview:
        """Like :meth:`read`, returning a readonly view.

        Simulated cost is identical to :meth:`read`.  Zero-copy when one
        buffer holds the whole range (a sealed record in its slot); a
        range across a hold's edge is a joined copy.  Either may be stale
        after any overlapping store — callers consume it immediately.
        """
        self._check_range(addr, length)
        self._charge_read(addr, length)
        return self._holds.image(self._view, addr, addr + length).toreadonly()

    def copy_within(self, src: int, dst: int, length: int) -> None:
        """``write(dst, read(src, length))`` without the intermediate
        ``bytes`` — the Romulus twin-copy hot path.

        Charges exactly the read cost then the store cost, with the same
        cache/dirty bookkeeping and fault-injection points.  The held
        pieces of a source disjoint from ``dst`` are not copied: the
        destination holds the same buffers.
        """
        self._check_range(src, length)
        self._charge_read(src, length)
        self._fault("store")
        self._check_range(dst, length)
        if not length:
            return
        end = dst + length
        self._save(dst, end)
        view = self._view
        if abs(dst - src) < length:  # overlapping: copy via a bounce
            data = bytes(self._holds.image(view, src, src + length))
            self._overwrite(dst, end)
            view[dst:end] = data
        else:
            held = self._holds.overlap(src, src + length)
            self._overwrite(dst, end)
            pos, shift = src, dst - src
            for a, b, buf, at in held:
                if pos < a:
                    view[pos + shift : a + shift] = view[pos:a]
                self._holds.add(a + shift, b + shift, buf, at)
                pos = b
            if pos < src + length:
                view[pos + shift : end] = view[pos : src + length]
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

        Only dirty bytes are written back (``stats["media_bytes"]``);
        every covered line, clean or dirty, pays the flush-instruction
        cost (as on real hardware for CLFLUSH/CLFLUSHOPT, which evict
        unconditionally) and counts in ``stats["flushes"]``.  CLFLUSH
        makes the written-back lines durable; CLFLUSHOPT and CLWB leave
        them pending until the next :meth:`fence`.
        """
        torn = self._fault("flush")
        self._check_range(addr, length)
        if length == 0:
            return
        line_start = (addr // CACHE_LINE) * CACHE_LINE
        line_end = -(-(addr + length) // CACHE_LINE) * CACHE_LINE
        line_end = min(line_end, self.size)
        nlines = (line_end - line_start) // CACHE_LINE

        spans = self._dirty.overlap(line_start, line_end)
        dirty_bytes = 0
        for a, b in spans:
            dirty_bytes += b - a
        if torn is not None:
            self._torn_flush(spans, dirty_bytes, torn, instruction)
        self._write_back(spans, instruction)

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

    def _write_back(
        self, spans: List[Interval], instruction: FlushInstruction
    ) -> None:
        """Write the lines holding dirty ``spans`` back: pending, or
        durable at once for CLFLUSH.  A write-back carries its whole
        line, so bytes of those lines still pending from an earlier
        write-back ride along; staged bytes never do."""
        if not spans:
            return
        pending = self._pending
        for a, b in spans:
            self._dirty.remove(a, b)
        if not pending:
            # Nothing rides along, and no byte has a landed pre-image.
            if instruction is FlushInstruction.CLFLUSH:
                self._undo.release_base(IntervalSet.of(spans))
                return
            for a, b in spans:
                pending.add(a, b)
            self._flush_tag += 1
            self._flushes.append((self._flush_tag, spans))
            return
        for a, b in spans:
            pending.add(a, b)
        flushed: List[Interval] = []
        done = 0
        for a, b in spans:
            lo = max(a // CACHE_LINE * CACHE_LINE, done)
            done = min(-(-b // CACHE_LINE) * CACHE_LINE, self.size)
            flushed += pending.overlap(lo, done)
        if self._staged:
            flushed = [
                gap for a, b in flushed for gap in self._staged.gaps(a, b)
            ]
        if instruction is not FlushInstruction.CLFLUSH:
            self._flush_tag += 1
            self._flushes.append((self._flush_tag, flushed))
            return
        durable = IntervalSet.of(flushed)
        self._undo.release_base(durable)
        self._undo.release_landed(durable)
        for a, b in flushed:
            pending.remove(a, b)
        self._flushes = [
            (tag, [gap for a, b in earlier for gap in pending.overlap(a, b)])
            for tag, earlier in self._flushes
        ]

    def _torn_flush(self, spans: List[Interval], dirty_bytes: int, torn,
                    instruction: FlushInstruction) -> None:
        """Write back only a prefix of the dirty lines, then power-fail.

        Tearing is cache-line granular: a line either reaches the media
        whole or not at all (real ADR platforms guarantee 8-byte store
        atomicity; modelling sub-line tears would be unsound, since the
        protocol's u64 header words never straddle a line).  Always
        raises via ``torn.crash()``.
        """
        budget = int(dirty_bytes * torn.fraction)
        persisted = 0
        prefix: List[Interval] = []
        for a, b in spans:
            pos = a
            while pos < b:
                nxt = min(b, (pos // CACHE_LINE + 1) * CACHE_LINE)
                if persisted + (nxt - pos) > budget:
                    self._write_back(prefix, instruction)
                    torn.crash()
                if prefix and prefix[-1][1] == pos:
                    prefix[-1] = (prefix[-1][0], nxt)
                else:
                    prefix.append((pos, nxt))
                persisted += nxt - pos
                pos = nxt
        self._write_back(prefix, instruction)
        torn.crash()

    def fence(self) -> None:
        """SFENCE: every pending line becomes durable."""
        unfenced = self._fault("fence")
        if unfenced is not None:
            self._unfenced_power_fail(unfenced)
        if self._pending:
            self._drain()
        self.stats["fences"] += 1
        self.clock.advance(self.sfence_cost)

    def _drain(self) -> None:
        """Make every pending byte durable and release its pre-images."""
        undo = self._undo
        if not (self._dirty or self._staged):
            # Nothing stored or staged since: every pre-image is pending.
            undo.clear()
            self._pending.clear()
            self._flushes.clear()
            return
        # Stored again after its write-back: the newest written-back
        # value becomes the media value under the new store.
        for _, la, lb, slot, offset in undo.landed:
            for x, y in self._unflushed(la, lb):
                self._set_base(x, y, undo.view(slot, offset + (x - la), y - x))
        undo.clear_landed()
        durable = IntervalSet()
        for a, b in self._pending:
            for x, y in self._dirty.gaps(a, b):
                for u, v in self._staged.gaps(x, y):
                    durable.add(u, v)
        undo.release_base(durable)
        self._pending.clear()
        self._flushes.clear()

    def _set_base(self, start: int, end: int, value: memoryview) -> None:
        """Overwrite the base pre-image of ``[start, end)`` with
        ``value``, first copying a reference record into the arena."""
        undo = self._undo
        records = list(undo.base_in(start, end))
        if not all(isinstance(slot, int) for _, _, slot, _ in records):
            undo.own(start, end)
            records = list(undo.base_in(start, end))
        for x, y, slot, offset in records:
            undo.view(slot, offset, y - x)[:] = value[x - start : y - start]

    def _unfenced_power_fail(self, unfenced) -> None:
        """Fail power at this fence with lines still pending.

        ``unfenced.landed`` picks which write-backs reached the media;
        every other pending byte keeps the value of the newest landed
        write-back of it, or else its base pre-image.  The media view is
        resolved into the base records and every pending byte is marked
        for restore, so :meth:`crash` writes it back.  Always raises via
        ``unfenced.crash()``.
        """
        undo = self._undo
        for tag, spans in self._landed_spans(unfenced.landed):
            for x, y in spans:
                # A byte holds what this write-back carried until its next
                # store, which saved it tagged with the newest write-back
                # then: the earliest tag >= this one.  Bytes not stored
                # since still hold it in the image.
                self._set_base(x, y, self._holds.image(self._view, x, y))
                for ltag, la, lb, slot, offset in reversed(undo.landed):
                    u, v = max(x, la), min(y, lb)
                    if ltag >= tag and u < v:
                        self._set_base(
                            u, v, undo.view(slot, offset + (u - la), v - u)
                        )
        undo.clear_landed()
        for a, b in self._pending:
            for x, y in self._dirty.gaps(a, b):
                self._staged.add(x, y)
        self._pending.clear()
        self._flushes.clear()
        unfenced.crash()

    def _landed_spans(self, policy: str) -> List[Tuple[int, List[Interval]]]:
        """This epoch's write-backs that reached media under ``policy``,
        oldest first, each as the byte spans of its landed lines."""
        kind, seed = faultplan.parse_landed(policy)
        flushes = self._flushes
        if kind == "all":
            return flushes
        if kind == "newest":
            return flushes[-1:]
        if kind == "none":
            return []
        # A seeded coin per cache line of each write-back.
        rng = np.random.default_rng(seed)
        out = []
        for tag, spans in flushes:
            if not spans:
                continue
            first = spans[0][0] // CACHE_LINE
            last = (spans[-1][1] - 1) // CACHE_LINE
            lands = rng.random(last - first + 1) < 0.5
            kept = IntervalSet()
            for a, b in spans:
                for line in range(a // CACHE_LINE, (b - 1) // CACHE_LINE + 1):
                    if lands[line - first]:
                        kept.add(
                            max(a, line * CACHE_LINE),
                            min(b, (line + 1) * CACHE_LINE),
                        )
            out.append((tag, list(kept)))
        return out

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power failure: discard every store not yet written back.

        Every pending line lands (the ADR queue drains), so only the
        stored and staged ranges are rolled back to their pre-images.
        """
        for a, b in self._unflushed(0, self.size):
            self._overwrite(a, b)
        self._overlay(self._view, 0, self.size)
        self._forget()
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
        out = bytearray(self._holds.image(self._view, addr, addr + length))
        self._overlay(memoryview(out), addr, addr + length)
        return bytes(out)

    def snapshot(self) -> Optional[bytes]:
        """Durable image of the whole device (for spot-simulator hand-off)."""
        return self.durable_read(0, self.size)

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
        self._view[:] = image
        self._forget()
        self._holds.clear()
        self._pristine.clear()
