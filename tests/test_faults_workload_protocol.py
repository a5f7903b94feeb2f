"""The workload protocol, driven by a complete toy scenario.

``CounterWorkload`` is everything a new crash workload has to write:
format a region, bump a durable u64 in ``BUMPS`` Romulus transactions,
compare the final count.  Golden run, single-fault replay, the reboot
loop, I0/I2/I5/I7 and the flight capture all come from
:class:`repro.faults.protocol.Workload` — which is also what the
rigged variants below exercise on the branches no shipped scenario
reaches on a clean tree.
"""

from __future__ import annotations

import inspect

from repro.crypto.backend import IntegrityError
from repro.faults.explorer import enumerate_points
from repro.faults.plan import FaultSpec, InjectedCrash
from repro.faults.protocol import MAX_REBOOTS, Machine, Workload
from repro.simtime.profiles import get_profile


class _CounterMachine(Machine):
    def __init__(self) -> None:
        super().__init__()
        self.host = self.cluster.add_host(
            "box", get_profile("emlSGX-PM"), pm_size=1 << 16
        )
        self.count = 0
        self.harvests = 0


class CounterWorkload(Workload):
    name = "counter"
    BUMPS = 4

    def build(self) -> _CounterMachine:
        return _CounterMachine()

    def boot(self, m, violations) -> None:
        m.cluster.boot()
        m.host.barrier()
        region = m.attach_region(violations)
        slot = region.root_offset(0)
        for n in range(region.root(0), self.BUMPS):
            with region.begin_transaction() as tx:
                tx.write_u64(slot, n + 1)
        m.count = region.root(0)

    def on_fault(self, m, violations) -> None:
        m.harvests += 1

    def observe(self, m, outcome) -> None:
        outcome.final_iteration = m.count
        outcome.stored_iteration = m.harvests

    def compare(self, golden, outcome, v) -> None:
        if outcome.final_iteration != golden.final_iteration:
            v.append(
                f"I3: counted to {outcome.final_iteration}, golden "
                f"counted to {golden.final_iteration}"
            )


def test_a_new_workload_fits_in_eighty_lines():
    source = inspect.getsource(_CounterMachine) + inspect.getsource(
        CounterWorkload
    )
    assert len(source.splitlines()) <= 80


def test_toy_scenario_survives_every_single_fault():
    workload = CounterWorkload()
    golden = workload.golden()
    assert not golden.violations
    assert golden.outcome.final_iteration == CounterWorkload.BUMPS
    assert golden.flight["total"] > 0
    specs = enumerate_points(golden)
    assert {s.site for s in specs} == set(golden.hits)
    for spec in specs:
        outcome = workload.replay(spec)
        assert outcome.fired and outcome.ok, (spec, outcome.violations)
        assert outcome.completed and outcome.reboots == 1
        assert outcome.stored_iteration == 1  # one dying boot harvested


def test_compare_runs_for_completed_replays():
    class Short(CounterWorkload):
        def boot(self, m, violations) -> None:
            super().boot(m, violations)
            if m.host.boots > 1:  # a resumed run loses a bump
                m.count -= 1

    outcome = Short().replay(FaultSpec("romulus.tx.commit", 2))
    assert outcome.completed
    assert outcome.violations == ["I3: counted to 3, golden counted to 4"]


def test_never_fired_spec_is_a_violation():
    outcome = CounterWorkload().replay(FaultSpec("pm.store", 10**6))
    assert not outcome.fired and outcome.completed
    assert "never fired" in outcome.violations[0]


class _Rigged(CounterWorkload):
    """Raises ``exc`` from every boot before boot ``healthy_after``."""

    def __init__(self, exc: BaseException, healthy_after: int = 10**6):
        self.exc = exc
        self.healthy_after = healthy_after

    def boot(self, m, violations) -> None:
        if m.host.boots >= self.healthy_after:
            return super().boot(m, violations)
        m.cluster.boot()
        raise self.exc


def test_a_boot_that_always_crashes_hits_the_reboot_bound():
    golden = _Rigged(InjectedCrash("rigged")).golden()
    assert golden.outcome.reboots == MAX_REBOOTS + 1
    assert not golden.outcome.completed
    assert golden.outcome.stored_iteration == MAX_REBOOTS + 1
    assert golden.violations == [
        f"machine failed to recover within {MAX_REBOOTS} reboots",
        "golden run failed to complete",
        f"golden run rebooted {MAX_REBOOTS + 1} times",
    ]
    faults = [e for e in golden.flight["events"] if e["kind"] == "fault"]
    assert len(faults) == MAX_REBOOTS + 1 and faults[0]["name"] == "crash"


def test_a_golden_run_that_reboots_is_a_violation():
    golden = _Rigged(InjectedCrash("rigged"), healthy_after=1).golden()
    assert golden.outcome.completed
    assert golden.violations == ["golden run rebooted 1 times"]


def test_an_unexpected_exception_is_i0_and_stops_the_run():
    golden = _Rigged(RuntimeError("boom")).golden()
    assert golden.outcome.reboots == 0
    assert golden.violations[0] == (
        "I0: unexpected RuntimeError escaped the workload: boom"
    )


def test_only_the_first_integrity_error_of_a_flip_is_expected():
    rigged = _Rigged(IntegrityError("bad tag"))
    assert rigged.golden().violations[0].startswith(
        "I2: sealed data failed its MAC check after a golden fault"
    )
    outcome = rigged.replay(FaultSpec("crypto.unseal", 1, "flip"))
    assert outcome.reboots == 1 and outcome.integrity_rejections == 2
    assert outcome.violations[0].startswith(
        "I2: sealed data failed its MAC check after a flip fault"
    )
    assert not outcome.completed
