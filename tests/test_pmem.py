"""Persistent-memory device: durability semantics and cost charging."""

from __future__ import annotations

import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    CrashSchedulePlan,
    FaultSpec,
    InjectedCrash,
    installed,
)
from repro.faults.registry import UNFENCED
from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.hw.undo import ZERO
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM


def make_device(size: int = 1 << 16) -> PersistentMemoryDevice:
    return PersistentMemoryDevice(size, SimClock(), EMLSGX_PM.pm)


class TestBasics:
    def test_zero_initialized(self):
        dev = make_device()
        assert dev.read(0, 16) == b"\x00" * 16

    def test_write_then_read(self):
        dev = make_device()
        dev.write(100, b"plinius")
        assert dev.read(100, 7) == b"plinius"

    def test_bounds_checked(self):
        dev = make_device(1024)
        with pytest.raises(IndexError):
            dev.write(1020, b"12345")
        with pytest.raises(IndexError):
            dev.read(-1, 4)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PersistentMemoryDevice(0, SimClock(), EMLSGX_PM.pm)

    def test_empty_write_is_noop(self):
        dev = make_device()
        dev.write(0, b"")
        assert dev.dirty_bytes == 0


class TestDurability:
    def test_unflushed_store_lost_on_crash(self):
        dev = make_device()
        dev.write(0, b"AAAA")
        dev.crash()
        assert dev.read(0, 4) == b"\x00" * 4

    def test_flushed_store_survives_crash(self):
        dev = make_device()
        dev.write(0, b"AAAA")
        dev.flush(0, 4)
        dev.fence()
        dev.crash()
        assert dev.read(0, 4) == b"AAAA"

    def test_flush_covers_whole_cache_lines(self):
        dev = make_device()
        dev.write(10, b"XY")  # within line 0
        dev.write(70, b"Z")  # within line 1
        dev.flush(0, 1)  # flushing byte 0 flushes all of line 0
        dev.crash()
        assert dev.read(10, 2) == b"XY"
        assert dev.read(70, 1) == b"\x00"

    def test_partial_flush_preserves_other_dirty_data(self):
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.write(128, b"B" * 64)
        dev.flush(0, 64)
        dev.fence()
        dev.crash()
        assert dev.read(0, 64) == b"A" * 64
        assert dev.read(128, 64) == b"\x00" * 64

    def test_overwrite_then_partial_flush(self):
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.flush(0, 64)
        dev.fence()
        dev.write(0, b"B" * 64)  # dirty again
        dev.crash()
        assert dev.read(0, 64) == b"A" * 64  # old durable value

    def test_flush_writes_back_only_dirty_bytes(self):
        dev = make_device()
        dev.write(0, b"a")
        dev.write(64, b"b")
        dev.flush(0, 128)
        assert dev.stats["media_bytes"] == 2
        assert dev.stats["flushes"] == 2
        dev.flush(0, 128)  # now clean: two more line flushes, no media write
        assert dev.stats["media_bytes"] == 2
        assert dev.stats["flushes"] == 4

    def test_crash_count(self):
        dev = make_device()
        dev.crash()
        dev.crash()
        assert dev.crash_count == 2

    def test_durable_read_sees_only_flushed(self):
        dev = make_device()
        dev.write(0, b"live")
        assert dev.read(0, 4) == b"live"
        assert dev.durable_read(0, 4) == b"\x00" * 4

    def test_dirty_bytes_accounting(self):
        dev = make_device()
        dev.write(0, b"A" * 100)
        assert dev.dirty_bytes == 100
        dev.flush(0, 100)
        assert dev.dirty_bytes == 0

    def test_store_and_flush_make_no_hidden_copy(self):
        """A bytearray slice assigned from ``bytes`` or a memoryview
        first copies its source into a temporary bytearray; the device
        must move each stored and each flushed byte once."""
        size = 8 << 20
        dev = make_device(size)
        payload = bytes(size)
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            dev.write(0, payload)
            dev.flush(0, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline < 1 << 20
        assert dev.durable_read(0, 16) == payload[:16]

    def test_snapshot_is_durable_image(self):
        dev = make_device(256)
        dev.write(0, b"keep")
        dev.flush(0, 4)
        dev.fence()
        dev.write(10, b"lose")
        snap = dev.snapshot()
        assert snap[:4] == b"keep"
        assert snap[10:14] == b"\x00" * 4


def _vm_rss_kib() -> int:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


class TestLazyImages:
    """The image and the pre-image arena are zeroed on first touch: a
    device costs nothing until it is stored to, a crash touches only
    what was stored, and its far end behaves like its near end."""

    SIZE = 256 << 20

    def test_construction_is_not_resident(self):
        if not pathlib.Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        before = _vm_rss_kib()
        dev = make_device(self.SIZE)
        grown = _vm_rss_kib() - before
        assert dev.size == self.SIZE
        assert grown < 16 << 10  # KiB: < 16 MiB for a 256 MiB device

    @staticmethod
    def _line_story(dev: PersistentMemoryDevice, addr: int) -> list:
        """Every observable of a store / flush / crash / image round trip
        on the cache line at ``addr``."""
        line = 64
        seen = [dev.read(addr, line), dev.durable_read(addr, line)]
        dev.write(addr, b"a" * line)
        seen += [dev.read(addr, line), dev.durable_read(addr, line)]
        media = dev.stats["media_bytes"]
        dev.flush(addr, line)
        seen.append(dev.stats["media_bytes"] - media)
        seen.append(dev.durable_read(addr, line))
        dev.write(addr, b"b" * line)
        dev.crash()
        seen.append(dev.read(addr, line))
        image = dev.snapshot()
        seen.append(image[addr : addr + line])
        dev.write(addr, b"c" * line)
        dev.load_image(image)
        seen += [dev.read(addr, line), dev.dirty_bytes]
        return seen

    def test_crash_writes_back_only_what_was_stored(self):
        if not pathlib.Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        dev = make_device(self.SIZE)
        dev.write(self.SIZE // 2, b"x" * 64)
        before = _vm_rss_kib()
        dev.crash()
        assert _vm_rss_kib() - before < 4 << 10  # KiB: < 4 MiB
        assert dev.read(self.SIZE // 2, 64) == b"\x00" * 64

    def test_fenced_rounds_reuse_the_same_pre_image_pages(self):
        if not pathlib.Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        dev = make_device(self.SIZE)
        span = 64 << 20
        payloads = [bytes([i]) * span for i in (1, 2)]

        def round_(i):
            dev.write(0, payloads[i % 2])
            dev.flush(0, span)
            dev.fence()

        round_(0)  # a pristine range: its pre-image is a zero record
        before = _vm_rss_kib()
        round_(1)
        one = _vm_rss_kib() - before
        for i in range(2, 12):
            round_(i)
        ten = _vm_rss_kib() - before
        assert ten <= one + (2 << 10)  # KiB: within 2 MiB of one round
        assert dev.durable_read(0, 16) == payloads[1][:16]

    def test_last_line_behaves_like_the_first(self):
        dev = make_device(self.SIZE)
        first = self._line_story(dev, 0)
        last = self._line_story(dev, self.SIZE - 64)
        assert first == last
        assert first == [
            b"\x00" * 64, b"\x00" * 64, b"a" * 64, b"\x00" * 64, 64,
            b"a" * 64, b"a" * 64, b"a" * 64, b"a" * 64, 0,
        ]


def _unfenced_fence(dev: PersistentMemoryDevice, landed: str) -> None:
    """Fail power at the next fence under the ``landed`` policy."""
    spec = FaultSpec("pm.fence", 1, UNFENCED, landed=landed)
    with installed(CrashSchedulePlan(spec)):
        with pytest.raises(InjectedCrash):
            dev.fence()
    dev.crash()


class TestUnfenced:
    """A flushed line is durable only at its fence: power failing at the
    fence lets the policy pick which pending write-backs landed."""

    @staticmethod
    def _two_pending_lines() -> PersistentMemoryDevice:
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.flush(0, 64)
        dev.write(64, b"B" * 64)
        dev.flush(64, 64)
        dev.write(128, b"C" * 64)  # dirty: lost under every policy
        return dev

    @pytest.mark.parametrize(
        "landed, first, second",
        [
            ("none", b"\x00", b"\x00"),
            ("all", b"A", b"B"),
            ("newest", b"\x00", b"B"),
        ],
    )
    def test_policy_picks_the_landed_lines(self, landed, first, second):
        dev = self._two_pending_lines()
        _unfenced_fence(dev, landed)
        assert dev.read(0, 64) == first * 64
        assert dev.read(64, 64) == second * 64
        assert dev.read(128, 64) == b"\x00" * 64
        assert dev.stats["fences"] == 0

    def test_subset_lands_whole_lines(self):
        seen = set()
        for seed in range(8):
            dev = make_device()
            dev.write(0, b"A" * 256)
            dev.flush(0, 256)
            _unfenced_fence(dev, f"subset:{seed}")
            lines = [dev.read(a, 64) for a in range(0, 256, 64)]
            assert all(line in (b"A" * 64, b"\x00" * 64) for line in lines)
            seen.add(tuple(line[:1] for line in lines))
        assert len(seen) > 2

    def test_fenced_lines_survive_every_policy(self):
        for landed in ("none", "newest", "subset:3"):
            dev = make_device()
            dev.write(0, b"D" * 64)
            dev.flush(0, 64)
            dev.fence()
            dev.write(0, b"E" * 64)
            dev.flush(0, 64)
            _unfenced_fence(dev, landed)
            assert dev.read(0, 64) in (b"D" * 64, b"E" * 64)
            if landed == "none":
                assert dev.read(0, 64) == b"D" * 64

    def test_clflush_is_durable_without_a_fence(self):
        dev = make_device()
        dev.write(0, b"F" * 64)
        dev.flush(0, 64, FlushInstruction.CLFLUSH)
        _unfenced_fence(dev, "none")
        assert dev.read(0, 64) == b"F" * 64

    def test_a_write_back_carries_its_whole_line(self):
        dev = make_device()
        dev.write(0, b"A" * 8)
        dev.flush(0, 8)
        dev.write(8, b"B" * 8)  # same line, other bytes
        dev.flush(8, 8)
        _unfenced_fence(dev, "newest")
        assert dev.read(0, 16) == b"A" * 8 + b"B" * 8

    def test_a_carried_byte_stored_again_keeps_what_each_flush_wrote(self):
        seen = set()
        for seed in range(16):
            dev = make_device()
            dev.write(0, b"A" * 8)
            dev.flush(0, 8)
            dev.write(8, b"B" * 8)
            dev.flush(8, 8)  # carries bytes 0..8 again
            dev.write(0, b"C" * 8)  # dirty: never on media
            _unfenced_fence(dev, f"subset:{seed}")
            seen.add(dev.read(0, 8))
        assert seen == {b"\x00" * 8, b"A" * 8}

    def test_restored_pending_header_keeps_every_candidate(self):
        """The Romulus header is stored IDLE and flushed without a fence,
        then stored MUTATING and flushed again: a power failure at that
        fence may leave any of the three values on media."""
        seen = set()
        for landed in ["none", "all", "newest"] + [
            f"subset:{seed}" for seed in range(12)
        ]:
            dev = make_device()
            dev.write(8, (2).to_bytes(8, "little"))  # COPYING
            dev.flush(8, 8)
            dev.fence()
            dev.write(8, (0).to_bytes(8, "little"))  # IDLE
            dev.flush(8, 8)
            dev.write(8, (1).to_bytes(8, "little"))  # MUTATING
            dev.flush(8, 8)
            _unfenced_fence(dev, landed)
            seen.add(int.from_bytes(dev.read(8, 8), "little"))
            if landed == "none":
                assert seen == {2}
        assert seen == {0, 1, 2}


def _hold(dev: PersistentMemoryDevice, addr: int, data: bytes) -> None:
    """Stage ``data`` at ``addr`` and make it durable: the range holds
    a buffer of its own, as a sealed record in its slot does."""
    dev.volatile_view(addr, len(data))[:] = data
    dev.write_prefilled(addr, len(data))
    dev.flush(addr, len(data))
    dev.fence()


def _arena_bytes(dev: PersistentMemoryDevice) -> int:
    """Bytes of the pre-image arena that live records hold."""
    return sum(dev._undo._live.values())


def _buffers(dev: PersistentMemoryDevice, start: int, end: int) -> list:
    """``(a, b, buffer)`` of every held piece of ``[start, end)``."""
    return [(a, b, buf.obj) for a, b, buf, _ in dev._holds.overlap(start, end)]


class TestDeferredCopy:
    """The Romulus twin copy: a ``copy_within`` out of a held range into
    a clean one, whose durability is deferred to its flush and fence.
    The destination holds the source's buffer at once; until the fence a
    crash restores the old destination."""

    SRC, DST, N = 0, 1024, 256

    @classmethod
    def _twins(cls) -> PersistentMemoryDevice:
        """A durable held source of ``N`` and a durable held old
        destination of ``O``, the shape of a Romulus commit's back-twin
        copy."""
        dev = make_device()
        _hold(dev, cls.SRC, b"N" * cls.N)
        _hold(dev, cls.DST, b"O" * cls.N)
        return dev

    def test_copy_flush_fence_saves_no_pre_image(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        assert _arena_bytes(dev) == 0  # the old destination is referenced
        assert _buffers(dev, self.DST, self.DST + self.N) == [
            (self.DST, self.DST + self.N, _buffers(dev, 0, self.N)[0][2])
        ]
        dev.flush(self.DST, self.N)
        dev.fence()
        assert dev._undo.base == []
        assert dev.read(self.DST, self.N) == b"N" * self.N
        assert dev.durable_read(self.DST, self.N) == b"N" * self.N
        assert dev.dirty_bytes == 0

    def test_crash_before_the_flush_restores_the_old_destination(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.crash()
        assert dev.read(self.DST, self.N) == b"O" * self.N
        assert dev.read(self.SRC, self.N) == b"N" * self.N

    def test_crash_after_a_partial_flush_keeps_the_written_back_lines(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.flush(self.DST, 128)  # pending: lands under the default policy
        dev.crash()
        assert dev.read(self.DST, self.N) == b"N" * 128 + b"O" * 128

    def test_clflush_copy_reads_new_and_survives_a_crash(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.flush(self.DST, self.N, FlushInstruction.CLFLUSH)
        assert dev.read(self.DST, self.N) == b"N" * self.N
        assert dev._undo.base == []  # durable by CLFLUSH: nothing to keep
        dev.crash()
        assert dev.read(self.DST, self.N) == b"N" * self.N

    def test_clflush_copy_survives_a_crash_without_a_read(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.flush(self.DST, 128, FlushInstruction.CLFLUSH)
        dev.crash()
        assert dev.read(self.DST, self.N) == b"N" * 128 + b"O" * 128

    def test_store_to_the_source_does_not_reach_the_copy(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.write(self.SRC, b"X" * (self.N // 2))
        dev.flush(0, self.DST + self.N)
        dev.fence()
        assert dev.read(self.DST, self.N) == b"N" * self.N
        assert dev.read(self.SRC, self.N) == (
            b"X" * (self.N // 2) + b"N" * (self.N // 2)
        )

    def test_chained_copies_move_in_call_order(self):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.copy_within(self.DST, 4096, self.N)  # reads the first's dst
        dev.copy_within(8192, self.SRC, self.N)  # writes the first's src
        dev.flush(0, 4096 + self.N)
        dev.fence()
        assert dev.read(4096, self.N) == b"N" * self.N
        assert dev.read(self.DST, self.N) == b"N" * self.N
        assert dev.read(self.SRC, self.N) == b"\x00" * self.N

    def test_a_copy_over_a_clflushed_copy_saves_one_pre_image(self):
        dev = self._twins()
        _hold(dev, 4096, b"C" * self.N)
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.flush(self.DST, self.N, FlushInstruction.CLFLUSH)
        dev.copy_within(4096, self.DST, self.N)  # clean: the first copy
        (record,) = dev._undo.base
        assert record[:2] == (self.DST, self.DST + self.N)
        assert record[2].obj is _buffers(dev, self.SRC, self.N)[0][2]
        assert dev.durable_read(self.DST, self.N) == b"N" * self.N
        dev.crash()
        assert dev.read(self.DST, self.N) == b"N" * self.N

    @pytest.mark.parametrize(
        "landed, first, second",
        [
            ("none", b"O", b"O"),
            ("all", b"N", b"N"),
            ("newest", b"O", b"N"),
        ],
    )
    def test_unfenced_policy_at_the_copy_fence(self, landed, first, second):
        dev = self._twins()
        dev.copy_within(self.SRC, self.DST, self.N)
        dev.flush(self.DST, 128)
        dev.flush(self.DST + 128, 128)
        _unfenced_fence(dev, landed)
        assert dev.read(self.DST, 128) == first * 128
        assert dev.read(self.DST + 128, 128) == second * 128
        assert dev.read(self.SRC, self.N) == b"N" * self.N

    def test_seeded_unfenced_policy_lands_whole_copied_lines(self):
        seen = set()
        for seed in range(8):
            dev = self._twins()
            dev.copy_within(self.SRC, self.DST, self.N)
            dev.flush(self.DST, self.N)
            _unfenced_fence(dev, f"subset:{seed}")
            lines = [
                dev.read(a, 64) for a in range(self.DST, self.DST + self.N, 64)
            ]
            assert all(line in (b"N" * 64, b"O" * 64) for line in lines)
            seen.add(tuple(line[:1] for line in lines))
        assert len(seen) > 2


class TestTwinnedPreImage:
    """A copy out of a held range leaves both Romulus twins holding one
    buffer: staging either twin again saves its base pre-image as a
    reference to that buffer, and no store to the other twin copies
    it."""

    MAIN, BACK, N = 0, 4096, 1024

    @classmethod
    def _twinned(cls) -> PersistentMemoryDevice:
        """Main sealed in place at ``M`` and durable, copied to back,
        flushed and fenced: the state a Romulus commit leaves."""
        dev = make_device()
        _hold(dev, cls.MAIN, b"M" * cls.N)
        dev.copy_within(cls.MAIN, cls.BACK, cls.N)
        dev.flush(cls.BACK, cls.N)
        dev.fence()
        return dev

    def _stage_main(self, dev: PersistentMemoryDevice) -> None:
        dev.volatile_view(self.MAIN, self.N)[:] = b"S" * self.N

    def _references(self, dev: PersistentMemoryDevice) -> list:
        """``(a, b)`` of every base record that references a buffer."""
        return [
            (a, b) for a, b, slot, _ in dev._undo.base
            if not isinstance(slot, int)
        ]

    def test_staging_a_twinned_range_takes_no_arena_byte(self):
        dev = self._twinned()
        (_, _, shared), = _buffers(dev, self.BACK, self.BACK + self.N)
        self._stage_main(dev)
        assert _arena_bytes(dev) == 0
        ((a, b, slot, at),) = dev._undo.base
        assert (a, b, slot.obj, at) == (self.MAIN, self.MAIN + self.N, shared, 0)
        assert dev.durable_read(self.MAIN, self.N) == b"M" * self.N

    def test_a_crash_before_the_flush_restores_the_old_bytes(self):
        dev = self._twinned()
        self._stage_main(dev)
        dev.write_prefilled(self.MAIN, self.N)
        dev.crash()
        assert dev.read(self.MAIN, self.N) == b"M" * self.N
        assert dev.read(self.BACK, self.N) == b"M" * self.N

    def test_a_store_to_the_borrowed_source_keeps_the_old_main(self):
        dev = self._twinned()
        self._stage_main(dev)
        dev.write(self.BACK, b"B" * self.N)
        assert _arena_bytes(dev) == 0  # both pre-images reference M
        dev.flush(self.BACK, self.N)
        dev.fence()
        dev.crash()
        assert dev.read(self.MAIN, self.N) == b"M" * self.N
        assert dev.read(self.BACK, self.N) == b"B" * self.N

    def test_a_partly_overwritten_pair_borrows_only_its_untouched_part(self):
        dev = self._twinned()
        dev.write(self.MAIN + 256, b"B" * 256)
        dev.flush(self.MAIN + 256, 256)
        dev.fence()
        self._stage_main(dev)
        assert _arena_bytes(dev) == 256
        assert self._references(dev) == [(0, 256), (512, self.N)]
        assert dev.durable_read(self.MAIN, self.N) == (
            b"M" * 256 + b"B" * 256 + b"M" * 512
        )
        dev.crash()
        assert dev.read(self.MAIN, self.N) == dev.durable_read(0, self.N)
        assert dev.read(self.BACK, self.N) == b"M" * self.N

    def test_a_crash_keeps_the_pairs_its_overlay_did_not_write(self):
        dev = self._twinned()
        dev.write(self.MAIN + 256, b"X" * 256)
        dev.crash()
        assert [(a, b) for a, b, _ in _buffers(dev, 0, self.N)] == [
            (0, 256), (512, self.N),
        ]
        self._stage_main(dev)
        assert _arena_bytes(dev) == 256
        assert dev.durable_read(self.MAIN, self.N) == b"M" * self.N

    def test_a_crash_drops_the_pairs_its_overlay_wrote(self):
        dev = make_device()
        _hold(dev, self.MAIN, b"M" * self.N)
        dev.write(self.BACK, b"O" * self.N)  # dirty: a crash restores it
        dev.copy_within(self.MAIN, self.BACK, self.N)
        dev.crash()  # back's overlay writes zeros over its hold
        assert dev.read(self.BACK, self.N) == b"\x00" * self.N
        assert _buffers(dev, self.BACK, self.BACK + self.N) == []
        self._stage_main(dev)
        assert _arena_bytes(dev) == 0
        assert dev.durable_read(self.MAIN, self.N) == b"M" * self.N

    def test_an_image_load_drops_every_pair(self):
        dev = self._twinned()
        image = bytearray(dev.snapshot())
        image[self.BACK : self.BACK + self.N] = b"L" * self.N
        dev.load_image(bytes(image))
        assert _buffers(dev, 0, dev.size) == []
        self._stage_main(dev)
        assert _arena_bytes(dev) == self.N
        assert dev.durable_read(self.MAIN, self.N) == b"M" * self.N

    @pytest.mark.parametrize("landed", ["none", "all"])
    def test_a_borrowed_record_under_a_pending_store(self, landed):
        """A fence that loses power resolves the media value into the
        base records: a reference is copied into the arena first, and
        the buffer it read is left as it was."""
        dev = self._twinned()
        dev.write(self.MAIN, b"A" * self.N)
        dev.flush(self.MAIN, self.N)
        _unfenced_fence(dev, landed)
        want = b"M" if landed == "none" else b"A"
        assert dev.read(self.MAIN, self.N) == want * self.N
        assert dev.read(self.BACK, self.N) == b"M" * self.N

    @pytest.mark.parametrize(
        "landed, want", [("none", b"M"), ("newest", b"O"), ("all", b"O")]
    )
    def test_a_twinned_pending_range_keeps_what_its_flush_wrote(
        self, landed, want
    ):
        """Only a clean range saves a reference: a pending one stored
        again keeps the value its write-back carried, over its own
        base."""
        dev = make_device()
        _hold(dev, self.MAIN, b"M" * self.N)
        _hold(dev, self.BACK, b"O" * self.N)
        dev.write(self.MAIN, b"A" * self.N)
        dev.flush(self.MAIN, self.N)
        dev.copy_within(self.BACK, self.MAIN, self.N)  # pending: held now
        dev.flush(self.MAIN, self.N)
        dev.write(self.MAIN, b"C" * self.N)
        _unfenced_fence(dev, landed)
        assert dev.read(self.MAIN, self.N) == want * self.N


class TestZeroPreImage:
    """A range nothing has written is zero in the image and on the
    media: its base pre-image is a zero record, which takes no arena
    byte until a power failure's resolution writes into it."""

    N = 128

    @staticmethod
    def _write_by(dev: PersistentMemoryDevice, how: str, n: int) -> None:
        """Write ``[0, n)`` of ``dev`` by ``how``; the copy comes from one
        byte over, so it moves at once."""
        if how == "stage":
            dev.volatile_view(0, n)[:] = b"S" * n
        elif how == "write":
            dev.write(0, b"W" * n)
        else:
            dev.copy_within(1, 0, n)

    @pytest.mark.parametrize("how", ["stage", "write", "copy"])
    def test_a_fresh_range_saves_one_zero_record(self, how):
        dev = make_device()
        self._write_by(dev, how, self.N)
        assert dev._undo.base == [(0, self.N, ZERO, 0)]
        assert not dev._undo._live
        assert dev.durable_read(0, self.N) == bytes(self.N)

    @pytest.mark.parametrize("how", ["stage", "write"])
    def test_a_crash_before_the_flush_restores_zeros(self, how):
        dev = make_device()
        self._write_by(dev, how, self.N)
        if how == "stage":
            dev.write_prefilled(0, self.N)
        dev.crash()
        assert dev.read(0, self.N) == bytes(self.N)

    @pytest.mark.parametrize(
        "landed, want",
        [
            ("none", bytes(128)),
            ("newest", bytes(64) + b"B" * 64),
            ("all", b"A" * 64 + b"B" * 64),
        ],
    )
    def test_an_unfenced_fence_over_a_stored_fresh_range(self, landed, want):
        """Each landed write-back is resolved into its zero record, which
        is copied into the arena first; an unlanded one keeps zeros."""
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.flush(0, 64)
        dev.write(64, b"B" * 64)
        dev.flush(64, 64)
        spec = FaultSpec("pm.fence", 1, UNFENCED, landed=landed)
        with installed(CrashSchedulePlan(spec)):
            with pytest.raises(InjectedCrash):
                dev.fence()
        slots = [(a, b, slot is ZERO) for a, b, slot, _ in dev._undo.base]
        lands = {"none": [], "newest": [64], "all": [0, 64]}[landed]
        assert slots == [(a, a + 64, a not in lands) for a in (0, 64)]
        assert sum(dev._undo._live.values()) == 64 * len(lands)
        dev.crash()
        assert dev.read(0, 128) == want

    def test_a_landed_write_back_under_a_store_resolves_its_zero_record(
        self,
    ):
        """A fence under a pending range stored again makes its write-back
        the media value: the zero record takes it, copied first."""
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.flush(0, 64)
        dev.write(0, b"B" * 64)
        dev.fence()
        assert [slot for _, _, slot, _ in dev._undo.base] == [0]
        assert dev.durable_read(0, 64) == b"A" * 64
        dev.crash()
        assert dev.read(0, 64) == b"A" * 64

    def test_a_range_written_then_crashed_is_no_longer_fresh(self):
        dev = make_device()
        dev.write(0, b"A" * self.N)
        dev.crash()
        dev.write(0, b"B" * self.N)
        assert [slot for _, _, slot, _ in dev._undo.base] == [0]
        assert sum(dev._undo._live.values()) == self.N
        dev.crash()
        assert dev.read(0, self.N) == bytes(self.N)

    def test_nothing_is_fresh_after_an_image_load(self):
        dev = make_device()
        dev.load_image(b"L" * dev.size)
        self._write_by(dev, "stage", self.N)
        assert [slot for _, _, slot, _ in dev._undo.base] == [0]
        dev.crash()
        assert dev.read(0, self.N) == b"L" * self.N

    def test_a_mixed_range_saves_zero_borrowed_and_copied_records(self):
        """``[0, 64)`` never written, ``[64, 128)`` holding the buffer of
        ``[192, 256)``, ``[128, 192)`` written: one record each, in
        address order."""
        dev = make_device()
        _hold(dev, 192, b"M" * 64)
        dev.copy_within(192, 64, 64)
        dev.flush(64, 64)
        dev.fence()
        dev.write(128, b"P" * 64)
        dev.flush(128, 64)
        dev.fence()
        dev.volatile_view(0, 192)[:] = b"S" * 192
        base = dev._undo.base
        assert [(a, b) for a, b, _, _ in base] == [(0, 64), (64, 128), (128, 192)]
        assert base[0][2] is ZERO and base[2][2] == 0
        assert base[1][2].obj is _buffers(dev, 192, 256)[0][2]
        assert sum(dev._undo._live.values()) == 64
        want = bytes(64) + b"M" * 64 + b"P" * 64
        assert dev.durable_read(0, 192) == want
        dev.crash()
        assert dev.read(0, 192) == want


class TestCosts:
    def test_store_advances_clock(self):
        dev = make_device()
        before = dev.clock.now()
        dev.write(0, b"x" * 1024)
        assert dev.clock.now() > before

    def test_cold_read_costlier_than_hot(self):
        dev = make_device()
        dev.write(0, b"x" * 4096)
        t0 = dev.clock.now()
        dev.read(0, 4096)  # hot (just written)
        hot_cost = dev.clock.now() - t0
        dev.drop_caches()
        t0 = dev.clock.now()
        dev.read(0, 4096)  # cold
        cold_cost = dev.clock.now() - t0
        assert cold_cost > hot_cost

    def test_clflush_costlier_than_clflushopt(self):
        dev1, dev2 = make_device(), make_device()
        dev1.write(0, b"x" * 4096)
        dev2.write(0, b"x" * 4096)
        t0 = dev1.clock.now()
        dev1.flush(0, 4096, FlushInstruction.CLFLUSH)
        t_clflush = dev1.clock.now() - t0
        t0 = dev2.clock.now()
        dev2.flush(0, 4096, FlushInstruction.CLFLUSHOPT)
        t_clflushopt = dev2.clock.now() - t0
        assert t_clflush > t_clflushopt

    def test_fence_advances_clock(self):
        dev = make_device()
        t0 = dev.clock.now()
        dev.fence()
        assert dev.clock.now() - t0 == pytest.approx(dev.sfence_cost)

    def test_clflush_needs_no_fence(self):
        assert not FlushInstruction.CLFLUSH.needs_fence
        assert FlushInstruction.CLFLUSHOPT.needs_fence
        assert FlushInstruction.CLWB.needs_fence

    def test_stats_counters(self):
        dev = make_device()
        dev.write(0, b"x")
        dev.read(0, 1)
        dev.flush(0, 1)
        dev.fence()
        assert dev.stats["stores"] == 1
        assert dev.stats["loads"] == 1
        assert dev.stats["flushes"] >= 1
        assert dev.stats["fences"] == 1


class TestFaultHook:
    def test_hook_fires_on_mutations(self):
        dev = make_device()
        ops = []
        dev.fault_hook = ops.append
        dev.write(0, b"x")
        dev.flush(0, 1)
        dev.fence()
        assert ops == ["store", "flush", "fence"]

    def test_hook_can_abort_operation(self):
        dev = make_device()

        class Boom(Exception):
            pass

        def hook(op):
            raise Boom

        dev.fault_hook = hook
        with pytest.raises(Boom):
            dev.write(0, b"x")
        dev.fault_hook = None
        assert dev.read(0, 1) == b"\x00"  # store never happened


# ----------------------------------------------------------------------
# Property: for ANY interleaving of writes/flushes and a crash, post-crash
# contents equal exactly the writes whose lines were flushed after them.
# ----------------------------------------------------------------------
_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, 960),
            st.binary(min_size=1, max_size=64),
        ),
        st.tuples(st.just("flush"), st.integers(0, 960), st.integers(1, 128)),
    ),
    max_size=30,
)


@given(_actions)
@settings(max_examples=150, deadline=None)
def test_crash_semantics_match_reference_model(actions):
    dev = PersistentMemoryDevice(1024, SimClock(), EMLSGX_PM.pm)
    durable = bytearray(1024)  # reference model of the durable image
    live = bytearray(1024)
    dirty = set()  # dirty byte addresses
    for action in actions:
        if action[0] == "write":
            _, addr, data = action
            data = data[: 1024 - addr]
            dev.write(addr, data)
            live[addr : addr + len(data)] = data
            dirty |= set(range(addr, addr + len(data)))
        else:
            _, addr, length = action
            length = min(length, 1024 - addr)
            dev.flush(addr, length)
            line_start = (addr // 64) * 64
            line_end = min(-(-(addr + length) // 64) * 64, 1024)
            for b in range(line_start, line_end):
                if b in dirty:
                    durable[b] = live[b]
                    dirty.discard(b)
    dev.crash()
    assert dev.read(0, 1024) == bytes(durable)


# ----------------------------------------------------------------------
# Property: an UNFENCED power failure leaves exactly what a per-byte
# write-pending-queue model says its policy lets land.
# ----------------------------------------------------------------------
_WPQ_SIZE = 256
_wpq_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"), st.integers(0, _WPQ_SIZE - 1),
            st.integers(1, 80),
        ),
        st.tuples(
            st.just("stage"), st.integers(0, _WPQ_SIZE - 1),
            st.integers(1, 80),
        ),
        st.tuples(
            st.just("prefill"), st.integers(0, _WPQ_SIZE - 1),
            st.integers(1, 80),
        ),
        st.tuples(
            st.just("copy"), st.integers(0, _WPQ_SIZE - 1),
            st.integers(0, _WPQ_SIZE - 1), st.integers(1, 80),
        ),
        st.tuples(
            st.just("flush"), st.integers(0, _WPQ_SIZE - 1),
            st.integers(1, 128), st.sampled_from(list(FlushInstruction)),
        ),
        st.tuples(st.just("fence")),
    ),
    max_size=25,
)


@given(_wpq_actions, st.sampled_from(["none", "all", "newest", "subset:5"]))
@settings(max_examples=150, deadline=None)
def test_unfenced_policy_matches_write_pending_queue_model(actions, landed):
    dev = make_device(_WPQ_SIZE)
    live = bytearray(_WPQ_SIZE)
    media = bytearray(_WPQ_SIZE)
    dirty, staged = set(), set()
    flushes = []  # this epoch's write-backs: {byte: value carried}
    for step, action in enumerate(actions):
        kind, addr = action[0], action[1] if len(action) > 1 else 0
        # Every store writes values no earlier one did.
        fresh = bytes((step * 7 + i) % 255 + 1 for i in range(_WPQ_SIZE))
        if kind == "write":
            data = fresh[: min(action[2], _WPQ_SIZE - addr)]
            dev.write(addr, data)
            live[addr : addr + len(data)] = data
            dirty |= set(range(addr, addr + len(data)))
            staged -= dirty
        elif kind == "stage":
            n = min(action[2], _WPQ_SIZE - addr)
            dev.volatile_view(addr, n)[:] = fresh[:n]
            live[addr : addr + n] = fresh[:n]
            staged |= set(range(addr, addr + n)) - dirty
        elif kind == "prefill":
            n = min(action[2], _WPQ_SIZE - addr)
            dev.write_prefilled(addr, n)
            dirty |= set(range(addr, addr + n))
            staged -= dirty
        elif kind == "copy":
            dst = action[2]
            n = min(action[3], _WPQ_SIZE - max(addr, dst))
            dev.copy_within(addr, dst, n)
            live[dst : dst + n] = live[addr : addr + n]
            dirty |= set(range(dst, dst + n))
            staged -= dirty
        elif kind == "flush":
            n = min(action[2], _WPQ_SIZE - addr)
            dev.flush(addr, n, action[3])
            lo, hi = addr // 64, (addr + n - 1) // 64
            written = {b for b in dirty if lo <= b // 64 <= hi}
            lines = {b // 64 for b in written}
            pending = set().union(*flushes)
            carried = written | {
                b for b in pending - staged if b // 64 in lines
            }
            dirty -= written
            if action[3] is FlushInstruction.CLFLUSH:
                for b in carried:
                    media[b] = live[b]
                for flushed in flushes:
                    for b in carried:
                        flushed.pop(b, None)
            elif carried:
                flushes.append({b: live[b] for b in carried})
        else:
            dev.fence()
            for flushed in flushes:
                for b, v in flushed.items():
                    media[b] = v
            flushes = []
    candidates = [{media[b]} for b in range(_WPQ_SIZE)]
    for flushed in flushes:
        for b, v in flushed.items():
            candidates[b].add(v)
    chosen = {"none": [], "all": flushes, "newest": flushes[-1:]}
    for flushed in chosen.get(landed, []):
        for b, v in flushed.items():
            media[b] = v
    _unfenced_fence(dev, landed)
    after = dev.read(0, _WPQ_SIZE)
    if landed in chosen:
        assert after == bytes(media)
    else:
        assert all(after[b] in candidates[b] for b in range(_WPQ_SIZE))
