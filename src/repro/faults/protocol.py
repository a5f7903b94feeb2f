"""The crash-workload protocol: golden run, single-fault replay, reboot loop.

A *workload* is a deterministic end-to-end scenario that can be run
fault-free (the **golden** run, executed under a
:class:`~repro.faults.plan.CountingPlan` to enumerate every fault-point
hit) and then replayed under a :class:`~repro.faults.plan.CrashSchedulePlan`
that injects exactly one fault at a chosen ``(site, hit)`` coordinate.
After the fault the workload performs whatever recovery the real system
would (reboot, Romulus recovery, mirror-in, retry) and the replay's
final state is checked against the golden run's.

:class:`Workload` owns everything that is not scenario — written once:

* ``golden()`` — the cached fault-free run plus its sanity checks;
* ``replay(spec)`` — never-fired / I7 / "did not complete", then the
  scenario's equivalence check for completed runs only;
* the reboot loop — boot under the installed plan, classify whatever
  escapes (injected crash / ecall abort / link drop, the expected first
  ``IntegrityError`` of a FLIP, the I0 catch-all), stamp it into the
  flight ring, harvest, disarm, power-fail, reboot (at most
  :data:`MAX_REBOOTS` times), then I5 and the flight snapshot.

A scenario supplies the five things only it knows: :meth:`Workload.build`
(fault-free durable hardware + bookkeeping on a :class:`Machine`),
:meth:`Workload.boot` (one boot to completion; injected faults
propagate), :meth:`Workload.on_fault` (harvest a dying boot's volatile
observations), :meth:`Workload.observe` (what is compared) and
:meth:`Workload.compare` (its equivalence messages).
``tests/test_faults_workload_protocol.py`` is a complete toy scenario.

Determinism contract: every run builds a fresh machine from fixed seeds,
so the n-th arrival at a fault point is the same program state in the
golden run and in every replay.  Anything nondeterministic (wall-clock,
``os.urandom``, thread scheduling) is excluded by construction — seeded
:class:`~repro.sgx.rand.SgxRandom` IVs, per-iteration batch RNGs, and
serial sealing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.runtime import Cluster
from repro.crypto.backend import IntegrityError
from repro.faults import invariants
from repro.faults.plan import (
    BaseFaultPlan,
    CountingPlan,
    CrashSchedulePlan,
    FaultSpec,
    InjectedCrash,
    InjectedEcallAbort,
    InjectedLinkDrop,
    installed,
)
from repro.faults.registry import FLIP
from repro.obs.recorder import TraceRecorder
from repro.romulus.region import HEADER_SIZE, MAGIC, RomulusRegion

#: A replay injects exactly one fault, so legitimate runs need at most
#: one extra boot (plus one more for a fail-stop integrity rejection).
MAX_REBOOTS = 4


@dataclass
class ReplayOutcome:
    """Result of one fault-injected replay (or of the golden run)."""

    spec: Optional[FaultSpec] = None
    fired: bool = False
    completed: bool = False
    reboots: int = 0
    integrity_rejections: int = 0
    violations: List[str] = field(default_factory=list)
    losses: Dict[int, float] = field(default_factory=dict)
    final_iteration: int = 0
    stored_iteration: int = 0
    params_digest: str = ""
    #: Flight-recorder snapshot of the replay machine: the bounded tail
    #: of spans/counters/fault events leading up to the final state.
    #: Always captured (the ring is cheap); the explorer attaches it to
    #: a :class:`~repro.faults.explorer.Violation` when invariants broke
    #: so every failure report carries its own black box.
    flight: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class GoldenRun:
    """Everything a replay is compared against."""

    hits: Dict[str, int]
    outcome: ReplayOutcome

    @property
    def violations(self) -> List[str]:
        return self.outcome.violations

    @property
    def flight(self) -> Optional[dict]:
        """Dumped by the explorer when the golden run itself broke."""
        return self.outcome.flight


def _note_fault(machine, spec, event: str) -> None:
    """Stamp an injected-fault delivery into the machine's flight ring.

    The ring entry names the exact ``(site, hit, kind)`` coordinate (or
    the exception class for golden runs, where no spec exists), so a
    violation dump pins which injection preceded the bad state.
    """
    label = spec.describe() if spec is not None else event
    machine.recorder.flight.add("fault", label, machine.clock.now())


def params_digest(network) -> str:
    """Bit-exact digest of every parameter buffer of a network."""
    h = hashlib.sha256()
    for _, (_, array) in network.parameter_buffers():
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class Machine:
    """What survives a replay's reboots: a deployment on the shared
    simulated-cluster substrate (:mod:`repro.cluster`), its clock and
    flight-recording trace recorder, and the scenario's run-level
    bookkeeping (set by the subclass).  A crash is a power failure of
    every host; ``host`` is the member owning the PM region.
    """

    host = None
    format_completed = False

    def __init__(self, cluster: Optional[Cluster] = None) -> None:
        self.cluster = cluster if cluster is not None else Cluster()
        self.clock = self.cluster.clock
        self.recorder = TraceRecorder()
        self.clock.recorder = self.recorder

    def power_fail(self) -> None:
        self.cluster.power_fail()

    def attach_region(self, violations: List[str]) -> RomulusRegion:
        """Region attach through the host's recovery entry points (the
        seam the ``host-reboot-skip-recovery`` mutant breaks):
        open-and-recover when the magic is durable, otherwise
        (re)format.  Formatting is only legal if no prior format
        completed (I1: a completed format never loses its magic).
        """
        host = self.host
        before = self.recorder.counters.get("romulus.recoveries")
        if host.pm.read(0, 8) == MAGIC:
            region = host.open_region()
            err = invariants.recovery_count_delta(
                before, self.recorder.counters.get("romulus.recoveries")
            )
            if err:
                violations.append("I4: " + err)
            err = invariants.region_idle_and_twinned(region)
            if err:
                violations.append("I1: " + err)
        else:
            if self.format_completed:
                violations.append(
                    "I1: a formatted region lost its magic after a crash"
                )
            region = host.format_region((host.pm.size - HEADER_SIZE) // 2)
            self.format_completed = True
        return region


class Workload:
    """One crash-replayable scenario on the shared protocol."""

    name = ""
    _golden: Optional[GoldenRun] = None

    # -- the five things only a scenario knows -------------------------
    def build(self) -> Machine:
        """Fault-free: the durable hardware and bookkeeping of one run."""
        raise NotImplementedError

    def boot(self, machine, violations: List[str]) -> None:
        """One boot to completion; injected faults propagate."""
        raise NotImplementedError

    def on_fault(self, machine, violations: List[str]) -> None:
        """Harvest what a dying boot observed before power is cut."""

    def observe(self, machine, outcome: ReplayOutcome) -> None:
        """Copy what is compared from the machine into ``outcome``."""
        raise NotImplementedError

    def compare(
        self, golden: ReplayOutcome, outcome: ReplayOutcome, v: List[str]
    ) -> None:
        """Append a message per divergence of a completed replay."""
        raise NotImplementedError

    # -- the protocol --------------------------------------------------
    def golden(self) -> GoldenRun:
        """Fault-free run under a counting plan; cached."""
        if self._golden is None:
            plan = CountingPlan()
            outcome = self._run(plan)
            if not outcome.completed:
                outcome.violations.append("golden run failed to complete")
            if outcome.reboots:
                outcome.violations.append(
                    f"golden run rebooted {outcome.reboots} times"
                )
            self._golden = GoldenRun(hits=dict(plan.hits), outcome=outcome)
        return self._golden

    def replay(self, spec: FaultSpec) -> ReplayOutcome:
        """Replay with one injected fault; check invariants vs golden."""
        golden = self.golden()
        outcome = self._run(CrashSchedulePlan(spec))
        v = outcome.violations
        if not outcome.fired:
            v.append(
                f"fault {spec.describe()} never fired (golden saw "
                f"{golden.hits.get(spec.site, 0)} hits at this site)"
            )
        elif spec.kind == FLIP and outcome.integrity_rejections == 0:
            v.append(
                "I7: a delivered bit-flip in a sealed record was "
                "accepted without an IntegrityError"
            )
        if outcome.completed:
            self.compare(golden.outcome, outcome, v)
        elif not v:
            v.append("run did not complete yet no violation was recorded")
        return outcome

    def _run(self, plan: BaseFaultPlan) -> ReplayOutcome:
        machine = self.build()
        spec: Optional[FaultSpec] = getattr(plan, "spec", None)
        outcome = ReplayOutcome(spec=spec)
        v = outcome.violations
        with installed(plan):
            while True:
                plan.mark_boot()
                try:
                    self.boot(machine, v)
                    outcome.completed = not v
                    break
                except InjectedCrash:
                    _note_fault(machine, spec, "crash")
                except InjectedEcallAbort:
                    # An abort the scenario could not absorb: the host
                    # treats it as fatal and power-cycles.
                    _note_fault(machine, spec, "ecall-abort")
                except InjectedLinkDrop:
                    v.append(
                        f"link drop escaped the {self.name} workload's "
                        "transport retry loops"
                    )
                except IntegrityError as exc:
                    _note_fault(machine, spec, "integrity-rejection")
                    outcome.integrity_rejections += 1
                    expected = (
                        spec is not None
                        and spec.kind == FLIP
                        and outcome.integrity_rejections == 1
                    )
                    if not expected:
                        v.append(
                            "I2: sealed data failed its MAC check after "
                            f"a {spec.kind if spec else 'golden'} fault: "
                            f"{exc}"
                        )
                    # A transient flip is fail-stop: crash and reboot.
                except Exception as exc:  # noqa: BLE001 — I0 catch-all
                    v.append(
                        f"I0: unexpected {type(exc).__name__} escaped the "
                        f"workload: {exc}"
                    )
                self.on_fault(machine, v)
                if v:
                    break
                plan.disarm()
                machine.power_fail()
                outcome.reboots += 1
                if outcome.reboots > MAX_REBOOTS:
                    v.append(
                        f"machine failed to recover within {MAX_REBOOTS} "
                        "reboots"
                    )
                    break
        dups = plan.duplicate_ivs()
        if dups:
            v.append(f"I5: {len(dups)} AES-GCM IVs reused within one boot")
        outcome.fired = plan.fired
        self.observe(machine, outcome)
        outcome.flight = machine.recorder.flight.snapshot()
        return outcome
