"""The PM device against its frozen two-image oracle.

``tests/reference_pmem.py`` is the device as it stood when a flush made
its lines durable at once and a crash copied a second full image back.
Under the default persistence policy (every pending line lands at a
power failure) the undo-pre-image device must be indistinguishable from
it: a Hypothesis state machine drives both through the same stores,
staging views, copies, flushes of every instruction, fences, torn
flushes, crashes and image loads, and compares every observable after
each step — loads, the media view, the snapshot, the stats, the dirty
byte count, the crash count and the simulated clock.

Staging views and copies out of a staged range leave **held** ranges,
whose bytes live in buffers of their own.  The first machine's
``held_range`` rule stages and fills a range, accounts it, copies it
out (the destination holds the same buffer) and stores into part of one
side, and its ``read_part`` and ``unfenced_fence`` rules read across a
hold's edge and fail power at a fence; every step before and after is
any of the others, so a crash, a torn flush, an image load or a media
read meets a held range in every state.

A load marks its range cache-hot, so a machine that reads the whole
image every step only ever charges hot loads.  The second machine reads
it only as a rule of its own and at teardown, and adds the Romulus twin
copy and a rule that writes both twins of a held pair in turn.

Both machines start from a fresh, zeroed device, so their first writes
save zero records, and a power-failing fence (or a plain fence under a
pending range stored again) resolves a write-back into one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.faults.plan import (
    CrashSchedulePlan,
    FaultSpec,
    InjectedCrash,
    installed,
)
from repro.faults.registry import TORN, UNFENCED
from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.hw.undo import ZERO
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM
from tests.reference_pmem import ReferencePmemDevice

#: Four cache lines: every operation overlaps most of the others.
SIZE = 256
addrs = st.integers(0, SIZE - 1)
lengths = st.integers(0, 96)
instructions = st.sampled_from(list(FlushInstruction))
#: The ways a range of the image is written.
writes = st.sampled_from(["stage", "write", "copy"])


def _clip(addr: int, length: int) -> int:
    return min(length, SIZE - addr)


class DeviceAgainstOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.devices = (
            PersistentMemoryDevice(SIZE, SimClock(), EMLSGX_PM.pm),
            ReferencePmemDevice(SIZE, SimClock(), EMLSGX_PM.pm),
        )
        self.stores = 0

    def _fresh(self, length: int) -> bytes:
        """Bytes no earlier store wrote: a lost or resurrected store
        cannot hide behind an equal value."""
        self.stores += 1
        return bytes((self.stores * 7 + i) % 255 + 1 for i in range(length))

    @rule(addr=addrs, length=st.integers(1, 96))
    def write(self, addr, length, data=None):
        data = (data or self._fresh(length))[: SIZE - addr]
        for dev in self.devices:
            dev.write(addr, data)

    @rule(addr=addrs, length=lengths)
    def stage(self, addr, length):
        """Fill a range through the staging view, not yet accounted."""
        length = _clip(addr, length)
        data = self._fresh(length)
        for dev in self.devices:
            dev.volatile_view(addr, length)[:] = data

    @rule(addr=addrs, length=lengths)
    def write_prefilled(self, addr, length):
        length = _clip(addr, length)
        for dev in self.devices:
            dev.write_prefilled(addr, length)

    @rule(src=addrs, dst=addrs, length=lengths)
    def copy_within(self, src, dst, length):
        length = min(length, SIZE - src, SIZE - dst)
        for dev in self.devices:
            dev.copy_within(src, dst, length)

    @rule(src=addrs, shift=st.integers(-40, 40), length=st.integers(1, 96))
    def copy_overlapping(self, src, shift, length):
        dst = min(max(src + shift, 0), SIZE - 1)
        self.copy_within(src, dst, length)

    @rule(addr=addrs, length=lengths, instruction=instructions)
    def flush(self, addr, length, instruction):
        length = _clip(addr, length)
        for dev in self.devices:
            dev.flush(addr, length, instruction)

    @rule()
    def fence(self):
        for dev in self.devices:
            dev.fence()

    @rule(
        addr=addrs,
        length=st.integers(1, 96),
        instruction=instructions,
        fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def torn_flush(self, addr, length, instruction, fraction):
        length = _clip(addr, length)
        for dev in self.devices:
            spec = FaultSpec("pm.flush", 1, TORN, fraction=fraction)
            with installed(CrashSchedulePlan(spec)):
                with pytest.raises(InjectedCrash):
                    dev.flush(addr, length, instruction)
            dev.crash()

    @rule()
    def crash(self):
        for dev in self.devices:
            dev.crash()

    @rule(seed=st.integers(0, 3))
    def load_image(self, seed):
        image = np.random.default_rng(seed).integers(
            0, 256, SIZE, dtype=np.uint8
        ).tobytes()
        for dev in self.devices:
            dev.load_image(image)

    @rule(
        addr=addrs,
        length=st.integers(1, 96),
        dst=addrs,
        cut=st.integers(0, 95),
        into_copy=st.booleans(),
    )
    def held_range(self, addr, length, dst, cut, into_copy):
        """Stage and fill a range, account it, copy it out (the
        destination holds the same buffer), then store into part of the
        source or of the copy."""
        length = min(length, SIZE - addr, SIZE - dst)
        self.stage(addr, length)
        self.write_prefilled(addr, length)
        self.copy_within(addr, dst, length)
        into = dst if into_copy else addr
        self.write(into + min(cut, length - 1), length // 2 + 1)

    @rule(addr=addrs, length=lengths)
    def read_part(self, addr, length):
        """Loads and a media read of part of the image, which may span
        a hold's edge."""
        length = _clip(addr, length)
        new, old = self.devices
        assert bytes(new.read_view(addr, length)) == bytes(
            old.read_view(addr, length)
        )
        assert new.durable_read(addr, length) == old.durable_read(
            addr, length
        )

    @rule()
    def unfenced_fence(self):
        """Power fails at a fence and every write-back lands: the
        oracle's flushes are durable at once, so it only crashes."""
        new, old = self.devices
        spec = FaultSpec("pm.fence", 1, UNFENCED, landed="all")
        with installed(CrashSchedulePlan(spec)):
            with pytest.raises(InjectedCrash):
                new.fence()
        new.crash()
        old.crash()

    def images_agree(self):
        new, old = self.devices
        assert new.durable_read(0, SIZE) == old.durable_read(0, SIZE)
        assert new.snapshot() == old.snapshot()
        assert new.read(0, SIZE) == old.read(0, SIZE)

    def counters_agree(self):
        new, old = self.devices
        assert new.stats == old.stats
        assert new.dirty_bytes == old.dirty_bytes
        assert new.crash_count == old.crash_count
        assert new.clock.now() == old.clock.now()

    @invariant()
    def observables_agree(self):
        self.images_agree()
        self.counters_agree()


DeviceAgainstOracle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestDeviceAgainstOracle = DeviceAgainstOracle.TestCase


class DeferredCopiesAgainstOracle(DeviceAgainstOracle):
    """The same rules plus the Romulus twin copy, whose durability is
    deferred to its flush and fence, with the whole image read only by
    a rule."""

    @invariant()
    def observables_agree(self):
        """Per step, only what marks no range cache-hot."""
        self.counters_agree()

    @rule(src=addrs, dst=addrs, length=lengths, instruction=instructions)
    def twin_copy(self, src, dst, length, instruction):
        """The Romulus shape: copy, then write the destination back."""
        length = min(length, SIZE - src, SIZE - dst)
        self.copy_within(src, dst, length)
        self.flush(dst, length, instruction)

    def _write_by(self, how, addr, length):
        """Write ``[addr, addr + length)`` by ``how``.  A copy comes from
        one byte over, so (longer than a byte) it overlaps its source
        and is copied through a bounce rather than held."""
        if how == "stage":
            self.stage(addr, length)
        elif how == "write":
            self.write(addr, length)
        else:
            src = addr + 1 if addr + 1 + length <= SIZE else addr - 1
            self.copy_within(src, addr, length)

    @rule(
        main=addrs,
        back=addrs,
        length=st.integers(1, 96),
        first=writes,
        then=writes,
        flip=st.booleans(),
    )
    def write_both_twins(self, main, back, length, first, then, flip):
        """Stage a range, copy it to its twin (both hold one buffer),
        write one side (its pre-image is a reference to that buffer),
        then write the other side."""
        length = min(length, SIZE - main, SIZE - back)
        self.stage(main, length)
        self.write_prefilled(main, length)
        self.flush(main, length, FlushInstruction.CLFLUSHOPT)
        self.twin_copy(main, back, length, FlushInstruction.CLFLUSHOPT)
        self.fence()
        one, other = (back, main) if flip else (main, back)
        self._write_by(first, one, length)
        self._write_by(then, other, length)

    @rule()
    def read_whole_image(self):
        self.images_agree()

    def teardown(self):
        self.images_agree()
        self.counters_agree()


DeferredCopiesAgainstOracle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestDeferredCopiesAgainstOracle = DeferredCopiesAgainstOracle.TestCase


def _staged_twins(machine) -> None:
    """Stage ``[0, 64)``, commit it, copy it to ``[128, 192)`` and
    commit that: both twins hold one buffer, the state a Romulus commit
    leaves."""
    machine.stage(0, 64)
    machine.write_prefilled(0, 64)
    machine.flush(0, 64, FlushInstruction.CLFLUSHOPT)
    machine.fence()
    machine.twin_copy(0, 128, 64, FlushInstruction.CLFLUSHOPT)


def _one_buffer(dev, a: int, b: int) -> bool:
    """Whether ``dev`` holds ``[a, a + 64)`` and ``[b, b + 64)`` by the
    same bytes of one buffer."""
    (x,), (y,) = dev._holds.overlap(a, a + 64), dev._holds.overlap(b, b + 64)
    return x[2].obj is y[2].obj and x[3] == y[3]


def test_a_held_twin_copy_shares_its_buffer_until_the_crash():
    """The second machine's twin copy makes the back twin hold main's
    buffer, across its flush, into a crash that must land the pending
    back twin, a fence or a torn flush."""
    for last_step in ("crash", "fence", "torn_flush"):
        machine = DeferredCopiesAgainstOracle()
        _staged_twins(machine)
        assert _one_buffer(machine.devices[0], 0, 128)
        if last_step == "torn_flush":
            machine.torn_flush(0, 64, FlushInstruction.CLFLUSH, 0.5)
        else:
            getattr(machine, last_step)()
        assert _one_buffer(machine.devices[0], 0, 128)
        machine.teardown()


def test_a_referenced_pre_image_outlives_a_store_to_its_twin():
    """Staging main again saves its pre-image as a reference to the
    buffer both twins hold; a store to the back twin then drops back's
    hold, not the reference, ahead of every step that reads it."""
    steps = ("crash", "torn_flush", "unfenced_fence", "read_whole_image",
             "load_image")
    for last_step in steps:
        machine = DeferredCopiesAgainstOracle()
        _staged_twins(machine)
        machine.fence()
        dev = machine.devices[0]
        (_, _, held, _), = dev._holds.overlap(0, 64)
        machine.stage(0, 64)
        machine.write(128, 64)
        assert [(a, b, slot.obj) for a, b, slot, _ in dev._undo.base] == [
            (0, 64, held.obj), (128, 192, held.obj),
        ]
        assert sum(dev._undo._live.values()) == 0
        if last_step == "torn_flush":
            machine.torn_flush(0, 64, FlushInstruction.CLFLUSH, 0.5)
        elif last_step == "load_image":
            machine.load_image(1)
        else:
            getattr(machine, last_step)()
        machine.teardown()


def test_a_zero_record_is_copied_before_a_write_back_resolves_into_it(
    monkeypatch,
):
    """The second machine's first store saves a zero record; a fence
    that loses power, or a fence under a pending range stored again,
    copies it into the arena before writing the landed value into it."""
    for last_step in ("unfenced_fence", "fence"):
        machine = DeferredCopiesAgainstOracle()
        undo = machine.devices[0]._undo
        zeroed, owned = [], []
        save_zero, own = undo.save_zero, undo.own

        def spy_zero(*args):
            zeroed.append(args)
            save_zero(*args)

        def spy_own(start, end):
            slots = [slot for _, _, slot, _ in undo.base_in(start, end)]
            owned.append((start, end, slots))
            own(start, end)

        monkeypatch.setattr(undo, "save_zero", spy_zero)
        monkeypatch.setattr(undo, "own", spy_own)
        machine.write(0, 64)
        machine.flush(0, 64, FlushInstruction.CLFLUSHOPT)
        assert zeroed == [(0, 64)]
        if last_step == "fence":
            machine.write(0, 64)  # stored again over the pending bytes
        getattr(machine, last_step)()
        assert len(owned) == 1
        assert owned[0][:2] == (0, 64) and owned[0][2][0] is ZERO
        machine.teardown()


def test_restored_pending_header_example():
    """Every Romulus transaction does this: ``set_state(MUTATING)``
    stores to the header line while the unfenced IDLE flush of the
    previous commit is still pending, then flushes it again."""
    machine = DeviceAgainstOracle()
    copying, idle, mutating = (
        state.to_bytes(8, "little") for state in (2, 0, 1)
    )
    for last_step in ("crash", "fence", "clflush"):
        machine.write(8, 8, copying)
        machine.flush(8, 8, FlushInstruction.CLFLUSHOPT)
        machine.fence()
        machine.write(8, 8, idle)  # set_state(IDLE, fence=False)
        machine.flush(8, 8, FlushInstruction.CLFLUSHOPT)
        machine.observables_agree()
        machine.write(8, 8, mutating)  # stored over the pending IDLE
        machine.observables_agree()
        if last_step == "fence":
            machine.fence()  # IDLE becomes the media value under it
        elif last_step == "clflush":
            machine.flush(8, 8, FlushInstruction.CLFLUSH)
            machine.write(8, 8, copying)
        machine.observables_agree()
        machine.crash()
        machine.observables_agree()
        want = mutating if last_step == "clflush" else idle
        assert machine.devices[0].durable_read(8, 8) == want
