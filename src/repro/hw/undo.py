"""Undo pre-images and twinned ranges of the simulated PM device.

:class:`~repro.hw.pmem.PersistentMemoryDevice` keeps one byte image, the
one loads see.  What the media holds differs from it only over ranges
that were stored (or staged) and not yet made durable; for those the
device saves the bytes the media may still hold here, before the range
is first overwritten:

* a **base** record per byte: the media value since the last time the
  byte was clean — what survives if no pending write-back of it landed;
* a **landed** record, tagged with the flush that wrote it, when a
  flushed-but-unfenced byte is stored again: the value that survives if
  that write-back landed.

Records live in one lazily zeroed arena per device (``np.zeros``: the
kernel zeroes a page on first touch), cut into 1 MiB slots.  A slot is
filled front to back and goes back on a LIFO free list when its last
live byte is released, so a device that saves and releases the same
amount every fence keeps the same pages resident.  Both record lists are
in save order: a store appends, and only the rarer paths (a crash, a
media read, a CLFLUSH, a fence under a store) scan them.

A copy leaves its source and destination byte-equal in the image until
either is written again; :class:`Twins` keeps those **twinned** pairs.
A base record of a clean range that has a twin is **borrowed**: it
points at the twin's bytes in the image (slot :data:`LENT`) instead of
copying them into the arena.  The device repays a borrowed record — copies
it into the arena — before anything writes its source or writes into it,
so a borrowed record always reads what a copied one would hold.  This is
the Romulus main twin staged for a commit: the back twin holds its
pre-image already.

The image starts zeroed, so a range nothing has written yet holds zero
in the image and on the media alike.  A base record of such a
**pristine** range is a **zero record** (slot :data:`ZERO`): it reads
one shared readonly zero buffer, takes no arena byte, and has no source
in the image to repay.  Only writing into it — resolving a power failure
or a landed write-back into the base records — copies it into the arena
first.  This is the main twin staged by a device's first commit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.hw.intervals import IntervalSet

#: Bytes per arena slot.
SLOT = 1 << 20

#: The slot of a borrowed record: its offset is a device address.
LENT = -1

#: The slot of a zero record: its offset is into :data:`_ZEROS`.
ZERO = -2

#: What every zero record reads; one is at most a slot long.
_ZEROS = memoryview(np.zeros(SLOT, np.uint8)).toreadonly()

#: ``(start, end, slot, offset)``: device bytes ``[start, end)`` are
#: saved at ``offset`` of arena slot ``slot``, or, in slot :data:`LENT`,
#: are the image bytes at ``offset``, or, in slot :data:`ZERO`, zeros.
Record = Tuple[int, int, int, int]


class Twins:
    """Byte-equal pairs of one device image, left by copies.

    For each distance ``d`` between a copy's source and destination,
    the addresses ``x`` with ``image[x] == image[x + d]`` since that
    copy moved its bytes, until either byte is written again.
    """

    def __init__(self) -> None:
        self._by_gap: Dict[int, IntervalSet] = {}

    def __bool__(self) -> bool:
        return bool(self._by_gap)

    def add(self, src: int, dst: int, n: int) -> None:
        """``n`` bytes moved from ``src`` to a disjoint ``dst``."""
        low, gap = (src, dst - src) if src < dst else (dst, src - dst)
        spans = self._by_gap.get(gap)
        if spans is None:
            spans = self._by_gap[gap] = IntervalSet()
        spans.add(low, low + n)

    def drop(self, start: int, end: int) -> None:
        """Forget every pair with a byte in ``[start, end)``."""
        for gap, spans in list(self._by_gap.items()):
            spans.remove(start, end)
            spans.remove(start - gap, end - gap)
            if not spans:
                del self._by_gap[gap]

    def clear(self) -> None:
        """Forget every pair."""
        self._by_gap.clear()

    def partners(self, start: int, end: int) -> List[Tuple[int, int, int]]:
        """Disjoint ``(a, b, twin)`` pieces of ``[start, end)``, in address
        order: image bytes ``[a, b)`` equal those at ``twin``."""
        out = []
        for gap, spans in self._by_gap.items():
            for a, b in spans.overlap(start, end):
                out.append((a, b, a + gap))
            for a, b in spans.overlap(start - gap, end - gap):
                out.append((a + gap, b + gap, a))
        if len(out) < 2:
            return out
        out.sort()
        pieces, pos = [], start
        for a, b, twin in out:
            if b <= pos:
                continue
            if a < pos:
                twin, a = twin + (pos - a), pos
            pieces.append((a, b, twin))
            pos = b
        return pieces


class PreImages:
    """Base and landed records of one device, over one slot arena.

    ``data`` is the device image that borrowed records read.
    """

    def __init__(self, data: memoryview) -> None:
        self._data = data
        size = len(data)
        self._per_chunk = max(1, -(-size // SLOT))
        self._chunks: List[memoryview] = []
        self._free: List[int] = []
        #: Live bytes of every slot in use.
        self._live: Dict[int, int] = {}
        self._cur = -1
        self._pos = SLOT
        self._grow()
        #: Base records, disjoint.
        self.base: List[Record] = []
        #: Landed records: ``(tag, start, end, slot, offset)``.
        self.landed: List[Tuple[int, int, int, int, int]] = []
        #: Covers the source of every borrowed base record; a released
        #: record leaves its source here until a repay or a clear.
        self.lent = IntervalSet()

    # -- arena ---------------------------------------------------------
    def _grow(self) -> None:
        first = len(self._chunks) * self._per_chunk
        self._chunks.append(
            memoryview(np.zeros(self._per_chunk * SLOT, np.uint8))
        )
        self._free.extend(range(first + self._per_chunk - 1, first - 1, -1))

    def _alloc(self, n: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(slot, offset, length)`` pieces covering ``n`` bytes."""
        while n:
            if self._pos == SLOT:
                if not self._free:
                    self._grow()
                self._cur = self._free.pop()
                self._live[self._cur] = 0
                self._pos = 0
            take = min(n, SLOT - self._pos)
            self._live[self._cur] += take
            yield self._cur, self._pos, take
            self._pos += take
            n -= take

    def _release(self, slot: int, n: int) -> None:
        live = self._live[slot] - n
        if live:
            self._live[slot] = live
        elif slot == self._cur:
            self._live[slot] = 0
            self._pos = 0
        else:
            del self._live[slot]
            self._free.append(slot)

    def view(self, slot: int, offset: int, n: int) -> memoryview:
        """Writable bytes ``[offset, offset + n)`` of arena slot ``slot``;
        of a borrowed record, its readonly source in the image; of a zero
        record, readonly zeros."""
        if slot == LENT:
            return self._data[offset : offset + n].toreadonly()
        if slot == ZERO:
            return _ZEROS[offset : offset + n]
        chunk, index = divmod(slot, self._per_chunk)
        base = index * SLOT + offset
        return self._chunks[chunk][base : base + n]

    def clear(self) -> None:
        """Release every record."""
        self.base.clear()
        self.landed.clear()
        self.lent.clear()
        self._free.extend(self._live)
        self._live.clear()
        self._cur = -1
        self._pos = SLOT

    # -- records -------------------------------------------------------
    def save_base(self, data: memoryview, start: int, end: int) -> None:
        """Save ``data[start:end]``, a range no base record covers."""
        n = end - start
        if self._pos + n <= SLOT:  # fits the current slot
            slot, offset = self._cur, self._pos
            self._pos += n
            self._live[slot] += n
            self.view(slot, offset, n)[:] = data[start:end]
            self.base.append((start, end, slot, offset))
            return
        for slot, offset, n in self._alloc(n):
            self.view(slot, offset, n)[:] = data[start : start + n]
            self.base.append((start, start + n, slot, offset))
            start += n

    def lend(self, start: int, end: int, twin: int) -> None:
        """Borrow the base record of ``[start, end)``, a range no base
        record covers, from the equal image bytes at ``twin``."""
        self.base.append((start, end, LENT, twin))
        self.lent.add(twin, twin + (end - start))

    def save_zero(self, start: int, end: int) -> None:
        """Save zeros as the base record of ``[start, end)``, a range no
        base record covers and nothing has written."""
        for a in range(start, end, SLOT):
            self.base.append((a, min(a + SLOT, end), ZERO, 0))

    def repay(self, start: int, end: int, sources: bool = True) -> None:
        """Copy into the arena every borrowed record whose source
        overlaps ``[start, end)``, before the image there is written;
        with ``sources`` false, every borrowed or zero record that
        overlaps it, before the record is written."""
        base = []
        for record in self.base:
            a, b, slot, at = record
            lo = at if sources else a
            if (
                slot >= 0
                or (sources and slot == ZERO)
                or lo >= end
                or lo + (b - a) <= start
            ):
                base.append(record)
                continue
            for piece, offset, n in self._alloc(b - a):
                self.view(piece, offset, n)[:] = self.view(slot, at, n)
                base.append((a, a + n, piece, offset))
                a += n
                at += n
        self.base = base
        if sources:
            self.lent.remove(start, end)

    def save_landed(
        self, tag: int, data: memoryview, start: int, end: int
    ) -> None:
        """Save ``data[start:end]`` as the value flush ``tag`` wrote."""
        for slot, offset, n in self._alloc(end - start):
            self.view(slot, offset, n)[:] = data[start : start + n]
            self.landed.append((tag, start, start + n, slot, offset))
            start += n

    def base_in(self, start: int, end: int) -> Iterator[Record]:
        """Base records clipped to ``[start, end)``."""
        for a, b, slot, offset in self.base:
            if a < end and b > start:
                x = a if a > start else start
                yield x, (b if b < end else end), slot, offset + (x - a)

    def release_base(self, drop: IntervalSet) -> None:
        """Drop the base records over the ranges of ``drop``."""
        self.base = self._trimmed(self.base, drop, 0)

    def release_landed(self, drop: IntervalSet) -> None:
        """Drop the landed records over the ranges of ``drop``."""
        if self.landed:
            self.landed = self._trimmed(self.landed, drop, 1)

    def clear_landed(self) -> None:
        """Release every landed record."""
        for _, a, b, slot, _ in self.landed:
            self._release(slot, b - a)
        self.landed = []

    def _trimmed(self, records: list, drop: IntervalSet, at: int) -> list:
        """``records`` less the ranges of ``drop``; ``at`` indexes each
        record's ``start`` field (end, slot and offset follow it)."""
        kept = []
        for record in records:
            a, b, slot, offset = record[at : at + 4]
            cuts = drop.overlap(a, b)
            if not cuts:
                kept.append(record)
                continue
            head = record[:at]
            pos = a
            for x, y in cuts:
                if pos < x:
                    kept.append(head + (pos, x, slot, offset + (pos - a)))
                if slot >= 0:
                    self._release(slot, y - x)
                pos = y
            if pos < b:
                kept.append(head + (pos, b, slot, offset + (pos - a)))
        return kept
