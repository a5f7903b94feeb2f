"""Persistent-memory device: durability semantics and cost charging."""

from __future__ import annotations

import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
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
        dev.persist(0, 4)
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
        dev.persist(0, 64)
        dev.crash()
        assert dev.read(0, 64) == b"A" * 64
        assert dev.read(128, 64) == b"\x00" * 64

    def test_overwrite_then_partial_flush(self):
        dev = make_device()
        dev.write(0, b"A" * 64)
        dev.persist(0, 64)
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
        dev.persist(0, 4)
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
    """Both images are zeroed on first touch: a device costs nothing
    until it is stored to, and its far end behaves like its near end."""

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

    def test_last_line_behaves_like_the_first(self):
        dev = make_device(self.SIZE)
        first = self._line_story(dev, 0)
        last = self._line_story(dev, self.SIZE - 64)
        assert first == last
        assert first == [
            b"\x00" * 64, b"\x00" * 64, b"a" * 64, b"\x00" * 64, 64,
            b"a" * 64, b"a" * 64, b"a" * 64, b"a" * 64, 0,
        ]


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

    def test_persist_with_clflush_skips_fence(self):
        dev = make_device()
        dev.write(0, b"x")
        dev.persist(0, 1, FlushInstruction.CLFLUSH)
        assert dev.stats["fences"] == 0

    def test_stats_counters(self):
        dev = make_device()
        dev.write(0, b"x")
        dev.read(0, 1)
        dev.persist(0, 1)
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
