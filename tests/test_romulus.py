"""SGX-Romulus: regions, transactions, allocator, recovery, fences.

The central property (tested exhaustively and with hypothesis): a crash
at ANY point during a transaction recovers to exactly the old state or
exactly the new state — never a mix.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import plan as faultplan
from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.romulus import (
    AllocationError,
    PersistentHeap,
    RegionState,
    RomulusRegion,
    Transaction,
    TransactionError,
)
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM

from tests.conftest import PmOpPlan


def make_region(main_size: int = 64 * 1024, **kwargs):
    device = PersistentMemoryDevice(
        4096 + 2 * main_size + 4096, SimClock(), EMLSGX_PM.pm
    )
    region = RomulusRegion(device, main_size, **kwargs).format()
    return device, region


class TestRegion:
    def test_format_leaves_idle(self):
        _, region = make_region()
        assert region.state is RegionState.IDLE

    def test_open_requires_magic(self):
        device = PersistentMemoryDevice(1 << 20, SimClock(), EMLSGX_PM.pm)
        with pytest.raises(ValueError, match="bad magic"):
            RomulusRegion.open(device)

    def test_open_finds_formatted_region(self):
        device, region = make_region()
        region.device.flush(0, device.size)  # make everything durable
        reopened = RomulusRegion.open(device)
        assert reopened.main_size == region.main_size

    def test_device_too_small_rejected(self):
        device = PersistentMemoryDevice(8192, SimClock(), EMLSGX_PM.pm)
        with pytest.raises(ValueError, match="too small"):
            RomulusRegion(device, 64 * 1024)

    def test_tiny_main_rejected(self):
        device = PersistentMemoryDevice(1 << 20, SimClock(), EMLSGX_PM.pm)
        with pytest.raises(ValueError, match="main_size"):
            RomulusRegion(device, 16)

    def test_roots_start_unset(self):
        _, region = make_region()
        for i in range(8):
            assert region.root(i) == 0

    def test_root_bounds(self):
        _, region = make_region()
        with pytest.raises(IndexError):
            region.root(8)
        with pytest.raises(IndexError):
            region.root_offset(-1)

    def test_read_bounds(self):
        _, region = make_region()
        with pytest.raises(IndexError):
            region.read(region.main_size - 2, 4)


class TestTransaction:
    def test_commit_makes_data_durable(self):
        device, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(100, b"committed")
        device.crash()
        region.recover()
        assert region.read(100, 9) == b"committed"

    def test_uncommitted_rolls_back_on_crash(self):
        device, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(100, b"before")
        tx = region.begin_transaction()
        tx.write(100, b"after!")
        device.crash()
        region.recover()
        assert region.read(100, 6) == b"before"

    def test_abort_restores_old_values(self):
        _, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(100, b"original")
        tx = region.begin_transaction()
        tx.write(100, b"modified")
        tx.abort()
        assert region.read(100, 8) == b"original"
        assert region.state is RegionState.IDLE

    def test_context_manager_aborts_on_exception(self):
        _, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(100, b"keep")
        with pytest.raises(RuntimeError, match="boom"):
            with region.begin_transaction() as tx:
                tx.write(100, b"drop")
                raise RuntimeError("boom")
        assert region.read(100, 4) == b"keep"

    def test_nested_transactions_rejected(self):
        _, region = make_region()
        with region.begin_transaction():
            with pytest.raises(TransactionError, match="nest"):
                region.begin_transaction()

    def test_use_after_commit_rejected(self):
        _, region = make_region()
        tx = region.begin_transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.write(0, b"x")
        with pytest.raises(TransactionError):
            tx.commit()

    def test_reads_see_own_writes(self):
        _, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(50, b"visible")
            assert tx.read(50, 7) == b"visible"

    def test_write_u64_roundtrip(self):
        _, region = make_region()
        with region.begin_transaction() as tx:
            tx.write_u64(200, 0xDEADBEEF)
        assert region.read_u64(200) == 0xDEADBEEF

    def test_back_region_synchronized_after_commit(self):
        _, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(100, b"twin")
        assert region.read_back(100, 4) == b"twin"

    def test_empty_transaction_commits(self):
        _, region = make_region()
        with region.begin_transaction():
            pass
        assert region.state is RegionState.IDLE

    def test_four_fences_per_transaction_clflushopt(self):
        """Romulus' headline: at most 4 persistence fences per tx."""
        device, region = make_region()
        before = device.stats["fences"]
        with region.begin_transaction() as tx:
            for i in range(20):
                tx.write(i * 100, b"data" * 10)
        assert device.stats["fences"] - before == 4

    def test_zero_fences_with_clflush_nop(self):
        """CLFLUSH is self-ordering: the NOP combination uses no SFENCE."""
        device, region = make_region(
            flush_instruction=FlushInstruction.CLFLUSH
        )
        before = device.stats["fences"]
        with region.begin_transaction() as tx:
            tx.write(0, b"x" * 500)
        assert device.stats["fences"] == before

    def test_clflush_mode_still_durable(self):
        device, region = make_region(
            flush_instruction=FlushInstruction.CLFLUSH
        )
        with region.begin_transaction() as tx:
            tx.write(100, b"durable")
        device.crash()
        RomulusRegion.open(device)
        assert region.read(100, 7) == b"durable"


class TestRecoveryStates:
    def test_recover_from_mutating(self):
        device, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(0, b"old")
        # Manually enter MUTATING and scribble on main (simulating a
        # crash mid-mutation *after* some flushes hit the media).
        region.set_state(RegionState.MUTATING)
        device.write(region.main_base, b"NEW")
        device.flush(region.main_base, 3)
        device.crash()
        found = RomulusRegion.open(device).state
        assert region.read(0, 3) == b"old"
        assert found is RegionState.IDLE

    def test_recover_from_copying(self):
        device, region = make_region()
        with region.begin_transaction() as tx:
            tx.write(0, b"new")
        # Fake a crash during the copy phase: main durable, back stale.
        region.set_state(RegionState.COPYING)
        device.write(region.back_base, b"OLD")
        device.flush(region.back_base, 3)
        device.crash()
        RomulusRegion.open(device)
        assert region.read(0, 3) == b"new"
        assert region.read_back(0, 3) == b"new"

    def test_recover_reports_found_state(self):
        device, region = make_region()
        region.set_state(RegionState.MUTATING)
        device.crash()
        fresh = RomulusRegion(
            device, region.main_size
        )
        assert fresh.recover() is RegionState.MUTATING


class TestAllocator:
    def test_pmalloc_returns_usable_offsets(self):
        _, region = make_region()
        heap = PersistentHeap(region)
        with region.begin_transaction() as tx:
            a = heap.pmalloc(tx, 100)
            b = heap.pmalloc(tx, 100)
            tx.write(a, b"A" * 100)
            tx.write(b, b"B" * 100)
        assert region.read(a, 100) == b"A" * 100
        assert region.read(b, 100) == b"B" * 100

    def test_allocations_do_not_overlap(self):
        _, region = make_region()
        heap = PersistentHeap(region)
        spans = []
        with region.begin_transaction() as tx:
            for size in (10, 100, 64, 200, 1):
                off = heap.pmalloc(tx, size)
                spans.append((off, off + size))
        spans.sort()
        for (_, end1), (start2, _) in zip(spans, spans[1:]):
            assert end1 <= start2

    def test_invalid_size_rejected(self):
        _, region = make_region()
        heap = PersistentHeap(region)
        with region.begin_transaction() as tx:
            with pytest.raises(ValueError):
                heap.pmalloc(tx, 0)

    def test_exhaustion_raises(self):
        _, region = make_region(main_size=4096)
        heap = PersistentHeap(region)
        with pytest.raises(AllocationError):
            with region.begin_transaction() as tx:
                heap.pmalloc(tx, 100_000)

    def test_allocation_size_reports_usable_bytes(self):
        _, region = make_region()
        heap = PersistentHeap(region)
        with region.begin_transaction() as tx:
            a = heap.pmalloc(tx, 100)
        assert heap.allocation_size(a) >= 100

    def test_crash_mid_allocation_rolls_back_heap(self):
        device, region = make_region()
        heap = PersistentHeap(region)
        with region.begin_transaction() as tx:
            heap.pmalloc(tx, 128)
        bump_before = heap.bump
        tx = region.begin_transaction()
        heap.pmalloc(tx, 4096)
        device.crash()
        RomulusRegion.open(device)
        assert heap.bump == bump_before  # no persistent leak

    def test_used_bytes(self):
        _, region = make_region()
        heap = PersistentHeap(region)
        assert heap.used_bytes == 0
        with region.begin_transaction() as tx:
            heap.pmalloc(tx, 100)
        assert heap.used_bytes > 0


# ----------------------------------------------------------------------
# Crash-atomicity property
# ----------------------------------------------------------------------
class _CrashAt(Exception):
    pass


def _run_with_crash(crash_after: int, payload: bytes, offsets):
    """Format a region, commit a known state, then crash the device after
    ``crash_after`` mutating operations of a second transaction."""
    main = 16 * 1024
    device = PersistentMemoryDevice(4096 + 2 * main, SimClock(), EMLSGX_PM.pm)
    region = RomulusRegion(device, main).format()
    with region.begin_transaction() as tx:
        for off in offsets:
            tx.write(off, b"O" * len(payload))

    counter = {"ops": 0}

    def hook(op):
        counter["ops"] += 1
        if counter["ops"] > crash_after:
            raise _CrashAt

    interrupted = False
    try:
        with faultplan.installed(PmOpPlan(hook)):
            tx = region.begin_transaction()
            for off in offsets:
                tx.write(off, payload)
            tx.commit()
    except _CrashAt:
        interrupted = True
    device.crash()
    recovered = RomulusRegion.open(device)
    values = [recovered.read(off, len(payload)) for off in offsets]
    return interrupted, values


_offsets = st.lists(
    st.integers(0, 120).map(lambda k: 100 + 130 * k),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(
    crash_after=st.integers(0, 60),
    payload=st.binary(min_size=4, max_size=40),
    offsets=_offsets,
)
@settings(max_examples=120, deadline=None)
def test_crash_anywhere_is_atomic(crash_after, payload, offsets):
    """Crash after N device ops -> recovery yields all-old or all-new."""
    interrupted, values = _run_with_crash(crash_after, payload, offsets)
    old = b"O" * len(payload)
    assert values in ([old] * len(offsets), [payload] * len(offsets))
    if not interrupted:
        # The transaction committed fully before the crash point.
        assert values == [payload] * len(offsets)


def test_crash_at_every_single_point_exhaustively():
    """Deterministic sweep of every crash point in one transaction."""
    offsets = (100, 600, 1200)
    payload = b"NEWVALUE"
    saw_old = saw_new = False
    for crash_after in range(0, 80):
        interrupted, values = _run_with_crash(crash_after, payload, offsets)
        old = b"O" * len(payload)
        assert values in ([old] * 3, [payload] * 3), f"crash@{crash_after}"
        if values == [old] * 3:
            saw_old = True
        else:
            saw_new = True
        if not interrupted:
            break
    assert saw_old and saw_new  # the sweep crossed the commit point
