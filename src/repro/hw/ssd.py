"""Simulated SSD block device with a volatile write buffer and fsync.

This is the substrate of the paper's baseline: SGX-Darknet checkpointing
via ``ocall``-ed ``fwrite``/``fread`` plus an ``fsync`` after every write
(Section VI, "PM mirroring vs. SSD-based checkpointing").  Data written
but not fsynced sits in the page cache and is lost on :meth:`crash`.

Each file keeps one image, the page-cache bytes, and the length an
``fsync`` made durable.  A write that overwrites durable bytes first
saves the ones no earlier write since the last ``fsync`` saved (an
*undo copy*); ``fsync`` drops the copies, and a crash writes them back
and truncates the image to the durable length.  What a reader or a
crash sees is byte for byte what a second, durable image would hold
(``tests/reference_ssd.py`` is that model), without paying for the
second image: a file written once and synced, such as a checkpoint,
is resident once.  Simulated costs do not depend on the representation.

:meth:`BlockDevice.read_view` is :meth:`BlockDevice.read` without the
copy.  The SSD checkpoint (:mod:`repro.core.checkpoint`) books its
simulated time in two phases, all freads and then all decryption, as
Table I reports them; its freads return these views, so the wall-clock
work runs one record at a time without a second copy of the file.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults import plan as faultplan
from repro.hw.intervals import IntervalSet
from repro.simtime.clock import SimClock
from repro.simtime.costs import DeviceCostModel

#: Page-cache bandwidth in bytes/s (10 GiB/s): what a write costs
#: before :meth:`BlockDevice.fsync` pays the device.
PAGE_CACHE_BANDWIDTH = 10 * (1 << 30)


class _File:
    """One file: its image, durable length, dirty ranges and undo copies."""

    def __init__(self) -> None:
        #: The page cache: what reads see.
        self.data = bytearray()
        #: Bytes ``[0, durable_len)`` of the image survive a crash...
        self.durable_len = 0
        #: ...once the undo copies are written back over them.
        self.undo: List[Tuple[int, bytearray]] = []
        #: Ranges written since the last fsync (their durable bytes, if
        #: any, are already in ``undo``).
        self.dirty = IntervalSet()


class BlockDevice:
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
        image = f.data
        end = offset + len(data)
        for a, b in f.dirty.gaps(offset, min(end, f.durable_len)):
            f.undo.append((a, image[a:b]))
        if offset > len(image):
            image.extend(bytes(offset - len(image)))
        # Through buffers, not ``image[offset:end] = data``, which
        # copies any source but a bytearray into a temporary first.
        inside = min(end, len(image)) - offset
        source = memoryview(data)
        with memoryview(image) as view:
            view[offset : offset + inside] = source[:inside]
        image.extend(source[inside:])
        f.dirty.add(offset, end)
        self.stats["writes"] += 1
        self.clock.advance(len(data) / PAGE_CACHE_BANDWIDTH)

    def fsync(self, name: str) -> int:
        """Force pending bytes of ``name`` to the device; return the count."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("ssd.fsync")
        f = self._file(name)
        pending = f.dirty.total
        f.durable_len = len(f.data)
        f.undo.clear()
        f.dirty.clear()
        self.stats["fsyncs"] += 1
        self.clock.advance(self.cost.fsync_time(pending))
        return pending

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (sees buffered writes)."""
        return bytes(self.read_view(name, offset, length))

    def read_view(self, name: str, offset: int, length: int) -> memoryview:
        """Like :meth:`read`, returning a zero-copy readonly view.

        Simulated cost is identical to :meth:`read`.  The view aliases
        the page cache: it is stale after an overlapping write, and the
        file cannot grow or crash while a view of it is alive, so
        callers consume it and let it go.
        """
        f = self._file(name)
        if offset < 0 or offset + length > len(f.data):
            raise IndexError(
                f"read [{offset}, {offset + length}) beyond EOF "
                f"({len(f.data)}) of {name!r}"
            )
        self.stats["reads"] += 1
        self.clock.advance(self.cost.read_time(length))
        return memoryview(f.data)[offset : offset + length].toreadonly()

    def read_all(self, name: str) -> bytes:
        """Read the whole file."""
        return self.read(name, 0, self.file_size(name))

    def crash(self) -> None:
        """Power failure: unsynced writes are lost, files truncate to the
        durable image."""
        for f in self._files.values():
            for offset, old in f.undo:
                f.data[offset : offset + len(old)] = old
            del f.data[f.durable_len :]
            f.undo.clear()
            f.dirty.clear()
        self.crash_count += 1
