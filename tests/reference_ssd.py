"""Frozen SSD device: the two-image model ``repro.hw.ssd`` ran before
it kept one image per file, kept verbatim as the oracle the current
device is held to (``tests/test_ssd_reference.py``).

Each file holds ``data`` (the page cache) and ``durable`` (the bytes
an ``fsync`` copied to the device, which a crash copies back whole).
"""

from __future__ import annotations

from typing import Dict

from repro.faults import plan as faultplan
from repro.hw.intervals import IntervalSet
from repro.hw.ssd import PAGE_CACHE_BANDWIDTH
from repro.simtime.clock import SimClock
from repro.simtime.costs import DeviceCostModel


class _File:
    """One file: durable bytes plus not-yet-synced dirty ranges."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.durable = bytearray()
        self.dirty = IntervalSet()


class ReferenceBlockDevice:
    """A file-oriented SSD simulation.

    Files are named blobs.  Writes land in the (volatile) page cache and
    are cheap; :meth:`fsync` pays the device cost for all pending bytes of
    a file.  Reads always pay device cost (the checkpoint-restore path in
    the paper reads cold data after a crash).
    """

    def __init__(self, clock: SimClock, cost: DeviceCostModel) -> None:
        self.clock = clock
        self.cost = cost
        self._files: Dict[str, _File] = {}
        self.crash_count = 0
        self.stats = {"writes": 0, "reads": 0, "fsyncs": 0}

    def _file(self, name: str) -> _File:
        if name not in self._files:
            self._files[name] = _File()
        return self._files[name]

    # ------------------------------------------------------------------
    def exists(self, name: str) -> bool:
        """Whether ``name`` exists (in cache or durably)."""
        return name in self._files

    def file_size(self, name: str) -> int:
        """Current (cached) size of ``name`` in bytes."""
        return len(self._file(name).data) if name in self._files else 0

    def delete(self, name: str) -> None:
        """Remove a file (metadata operation, assumed durable)."""
        self._files.pop(name, None)

    def write(self, name: str, offset: int, data: bytes) -> None:
        """Buffered write: lands in the page cache, volatile until fsync."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("ssd.write")
        if offset < 0:
            raise ValueError(f"negative file offset: {offset}")
        f = self._file(name)
        end = offset + len(data)
        if end > len(f.data):
            f.data.extend(b"\x00" * (end - len(f.data)))
        f.data[offset:end] = data
        f.dirty.add(offset, end)
        self.stats["writes"] += 1
        self.clock.advance(len(data) / PAGE_CACHE_BANDWIDTH)

    def append(self, name: str, data: bytes) -> None:
        """Write at the current end of the file."""
        self.write(name, self.file_size(name), data)

    def fsync(self, name: str) -> int:
        """Force pending bytes of ``name`` to the device; return the count."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("ssd.fsync")
        f = self._file(name)
        pending = f.dirty.total
        if len(f.durable) < len(f.data):
            f.durable.extend(b"\x00" * (len(f.data) - len(f.durable)))
        for a, b in f.dirty:
            f.durable[a:b] = f.data[a:b]
        f.dirty.clear()
        self.stats["fsyncs"] += 1
        self.clock.advance(self.cost.fsync_time(pending))
        return pending

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (sees buffered writes)."""
        f = self._file(name)
        if offset < 0 or offset + length > len(f.data):
            raise IndexError(
                f"read [{offset}, {offset + length}) beyond EOF "
                f"({len(f.data)}) of {name!r}"
            )
        self.stats["reads"] += 1
        self.clock.advance(self.cost.read_time(length))
        return bytes(f.data[offset : offset + length])

    def read_all(self, name: str) -> bytes:
        """Read the whole file."""
        return self.read(name, 0, self.file_size(name))

    def crash(self) -> None:
        """Power failure: unsynced writes are lost, files truncate to the
        durable image."""
        for f in self._files.values():
            f.data = bytearray(f.durable)
            f.dirty.clear()
        self.crash_count += 1
