"""The SSD device against its frozen two-image oracle.

``tests/reference_ssd.py`` is ``repro.hw.ssd`` as it stood when every
file kept a second, durable image that ``fsync`` copied the dirty
ranges into and a crash copied back whole.  The current device keeps
one image, its durable length and undo copies of the durable bytes a
write overwrote before its ``fsync``.  A Hypothesis state machine
drives both through the same writes (inside the durable range, across
its end, past the end of the file, appends), fsyncs, crashes, deletes
and reads, and compares every observable after each step: existence,
sizes, contents, what a read returns (and a zero-copy view), the stats,
the crash count and the simulated clock.

Every write stores bytes no earlier write stored, so an undo copy that
is lost, written back twice or taken after the bytes changed cannot
hide behind an equal value.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hw.ssd import BlockDevice
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM
from tests.reference_ssd import ReferenceBlockDevice

NAMES = ("a", "b")
names = st.sampled_from(NAMES)
fractions = st.floats(0.0, 1.0)
lengths = st.integers(1, 48)


class DeviceAgainstOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.devices = (
            BlockDevice(SimClock(), EMLSGX_PM.ssd),
            ReferenceBlockDevice(SimClock(), EMLSGX_PM.ssd),
        )
        self.stores = 0

    def _fresh(self, length: int) -> bytes:
        self.stores += 1
        return bytes((self.stores * 7 + i) % 255 + 1 for i in range(length))

    def _durable_len(self, name: str) -> int:
        oracle = self.devices[1]
        return len(oracle._files[name].durable) if oracle.exists(name) else 0

    def _write(self, name: str, offset: int, length: int) -> None:
        data = self._fresh(length)
        for dev in self.devices:
            dev.write(name, offset, data)

    @rule(name=names, at=fractions, length=lengths)
    def write_over_durable(self, name, at, length):
        """Starts inside the durable range; may run past its end."""
        durable = self._durable_len(name)
        if durable:
            self._write(name, min(int(at * durable), durable - 1), length)

    @rule(name=names, gap=st.integers(0, 24), length=lengths)
    def write_past_the_end(self, name, gap, length):
        """Extends the file, leaving a zero-filled gap when ``gap > 0``."""
        self._write(name, self.devices[1].file_size(name) + gap, length)

    @rule(name=names, at=fractions, length=lengths)
    def write_anywhere(self, name, at, length):
        self._write(name, int(at * self.devices[1].file_size(name)), length)

    @rule(name=names, length=lengths)
    def append(self, name, length):
        data = self._fresh(length)
        for dev in self.devices:
            dev.append(name, data)

    @rule(name=names)
    def fsync(self, name):
        got = [dev.fsync(name) for dev in self.devices]
        assert got[0] == got[1]

    @rule()
    def crash(self):
        for dev in self.devices:
            dev.crash()

    @rule(name=names)
    def delete(self, name):
        for dev in self.devices:
            dev.delete(name)

    @rule(name=names, at=fractions, span=fractions)
    def read(self, name, at, span):
        size = self.devices[1].file_size(name)
        offset = int(at * size)
        length = int(span * (size - offset))
        new, old = self.devices
        got = new.read(name, offset, length)
        assert got == old.read(name, offset, length)
        view = new.read_view(name, offset, length)
        assert view.readonly and bytes(view) == got
        del view
        old.read(name, offset, length)  # charge both sides alike

    @invariant()
    def observables_agree(self):
        new, old = self.devices
        for name in NAMES:
            assert new.exists(name) == old.exists(name)
            assert new.file_size(name) == old.file_size(name)
            if new.exists(name):
                assert new._files[name].data == old._files[name].data
        assert new.stats == old.stats
        assert new.crash_count == old.crash_count
        assert new.clock.now() == old.clock.now()


DeviceAgainstOracle.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestDeviceAgainstOracle = DeviceAgainstOracle.TestCase


def test_a_crash_restores_overwritten_durable_bytes_and_truncates():
    machine = DeviceAgainstOracle()
    machine.append("a", 32)
    machine.fsync("a")
    machine.write_over_durable("a", 0.5, 24)  # [16, 40): crosses the end
    machine.write_over_durable("a", 0.25, 4)  # [8, 12): a second copy
    machine.write_over_durable("a", 0.5, 8)  # [16, 24): already saved
    machine.write_past_the_end("a", 8, 4)  # a zero gap, then [48, 52)
    machine.observables_agree()
    new = machine.devices[0]
    assert [(offset, len(old)) for offset, old in new._files["a"].undo] == [
        (16, 16),
        (8, 4),
    ]
    machine.crash()
    machine.observables_agree()
    assert new.file_size("a") == 32 and not new._files["a"].undo
    machine.teardown()
