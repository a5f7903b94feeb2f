"""Undo pre-images and held ranges of the simulated PM device.

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

A base record need not be copied.  A **reference** record reads a
readonly buffer that nothing writes any more, in place of an arena slot:

* a range whose image bytes live in a buffer of their own (a **held**
  range, :class:`Holds`) saves a reference to that buffer.  This is the
  Romulus main twin staged for a commit, and the back twin its copy
  overwrites: each holds the last commit's sealed records;
* a range nothing has written yet holds zero in the image and on the
  media alike, and saves a **zero record**, a reference to the shared
  readonly :data:`ZERO` buffer.  This is the main twin staged by a
  device's first commit.

Only writing into a record — resolving a power failure or a landed
write-back into the base records — copies a reference into the arena
first (:meth:`PreImages.own`).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.hw.intervals import IntervalSet

#: Bytes per arena slot.
SLOT = 1 << 20

#: What every zero record reads; one is at most a slot long.
ZERO = memoryview(np.zeros(SLOT, np.uint8)).toreadonly()

#: A record's bytes: an arena slot number, or a readonly buffer that a
#: reference record reads.
Slot = Union[int, memoryview]

#: ``(start, end, slot, offset)``: device bytes ``[start, end)`` are
#: saved at ``offset`` of arena slot ``slot``, or of the buffer ``slot``.
Record = Tuple[int, int, Slot, int]


class Holds:
    """Disjoint ranges of a device image whose bytes live in a buffer of
    their own: ``[start, end)`` reads ``buf[offset : offset + end -
    start]``.  Adjacent ranges stay apart: each has its own buffer."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._refs: List[Tuple[memoryview, int]] = []

    def clear(self) -> None:
        """Forget every held range."""
        self._starts.clear()
        self._ends.clear()
        self._refs.clear()

    def overlap(self, start: int, end: int) -> List[Record]:
        """``(a, b, buf, offset)`` pieces of ``[start, end)`` that a
        buffer holds, in address order."""
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_left(self._starts, end)
        out = []
        for i in range(lo, hi):
            a, b = self._starts[i], self._ends[i]
            buf, offset = self._refs[i]
            x = a if a > start else start
            out.append((x, b if b < end else end, buf, offset + (x - a)))
        return out

    def image(self, flat: memoryview, start: int, end: int) -> memoryview:
        """What loads see over ``[start, end)`` of an image whose unheld
        bytes are ``flat``: a view of the one buffer that holds every
        byte, or else a copy joined from the pieces."""
        starts, ends = self._starts, self._ends
        # Hold i - 1 is the last one to start at or before ``start``.
        i = bisect.bisect_right(starts, start)
        if i and ends[i - 1] >= end:
            buf, offset = self._refs[i - 1]
            at = offset + (start - starts[i - 1])
            return buf[at : at + (end - start)]
        if (not i or ends[i - 1] <= start) and (
            i == len(starts) or starts[i] >= end
        ):
            return flat[start:end]
        out = memoryview(bytearray(flat[start:end]))
        for a, b, buf, at in self.overlap(start, end):
            out[a - start : b - start] = buf[at : at + (b - a)]
        return out

    def remove(self, start: int, end: int) -> None:
        """Stop holding ``[start, end)``; a range cut in two keeps its
        buffer on both sides."""
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_left(self._starts, end)
        if lo >= hi:
            return
        starts, ends, refs = [], [], []
        if self._starts[lo] < start:
            starts.append(self._starts[lo])
            ends.append(start)
            refs.append(self._refs[lo])
        if self._ends[hi - 1] > end:
            buf, offset = self._refs[hi - 1]
            starts.append(end)
            ends.append(self._ends[hi - 1])
            refs.append((buf, offset + (end - self._starts[hi - 1])))
        self._starts[lo:hi] = starts
        self._ends[lo:hi] = ends
        self._refs[lo:hi] = refs

    def add(self, start: int, end: int, buf: memoryview, offset: int) -> None:
        """Hold ``[start, end)``, a range no hold covers, by ``buf`` from
        ``offset`` on."""
        i = bisect.bisect_left(self._starts, start)
        self._starts.insert(i, start)
        self._ends.insert(i, end)
        self._refs.insert(i, (buf, offset))


class PreImages:
    """Base and landed records of one device, over one slot arena."""

    def __init__(self, size: int) -> None:
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
        #: Landed records: ``(tag, start, end, slot, offset)``, in the arena.
        self.landed: List[Tuple[int, int, int, int, int]] = []

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

    def view(self, slot: Slot, offset: int, n: int) -> memoryview:
        """Bytes ``[offset, offset + n)`` of arena slot ``slot`` (writable)
        or of a reference record's buffer (readonly)."""
        if not isinstance(slot, int):
            return slot[offset : offset + n]
        chunk, index = divmod(slot, self._per_chunk)
        base = index * SLOT + offset
        return self._chunks[chunk][base : base + n]

    def clear(self) -> None:
        """Release every record."""
        self.base.clear()
        self.landed.clear()
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

    def save_ref(self, start: int, end: int, buf: memoryview, at: int) -> None:
        """Save readonly ``buf[at:]`` as the base record of ``[start,
        end)``, a range no base record covers, without copying it."""
        self.base.append((start, end, buf, at))

    def save_zero(self, start: int, end: int) -> None:
        """Save zeros as the base record of ``[start, end)``, a range no
        base record covers and nothing has written."""
        for a in range(start, end, SLOT):
            self.base.append((a, min(a + SLOT, end), ZERO, 0))

    def own(self, start: int, end: int) -> None:
        """Copy into the arena every reference record that overlaps
        ``[start, end)``, before the record is written."""
        base = []
        for record in self.base:
            a, b, slot, at = record
            if isinstance(slot, int) or a >= end or b <= start:
                base.append(record)
                continue
            for piece, offset, n in self._alloc(b - a):
                self.view(piece, offset, n)[:] = slot[at : at + n]
                base.append((a, a + n, piece, offset))
                a += n
                at += n
        self.base = base

    def save_landed(self, tag: int, start: int, value: memoryview) -> None:
        """Save ``value``, the bytes from ``start`` on, as the value
        flush ``tag`` wrote."""
        pos = 0
        for slot, offset, n in self._alloc(len(value)):
            self.view(slot, offset, n)[:] = value[pos : pos + n]
            self.landed.append((tag, start + pos, start + pos + n, slot, offset))
            pos += n

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
                if isinstance(slot, int):
                    self._release(slot, y - x)
                pos = y
            if pos < b:
                kept.append(head + (pos, b, slot, offset + (pos - a)))
        return kept
