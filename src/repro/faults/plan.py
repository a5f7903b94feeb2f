"""Injectable fault plans — the null-object hot-path half of ``repro.faults``.

Instrumented modules consult the process-default plan at every fault
point::

    from repro.faults import plan as faultplan
    ...
    active = faultplan.ACTIVE
    if active.enabled:
        active.check("pm.store")

With no plan installed ``ACTIVE`` is the shared :data:`NULL_PLAN`
(``enabled = False``): the cost is one module-attribute load and one
boolean test, mirroring the ``repro.obs`` null-recorder discipline so
the fault machinery is free on every hot path by default.

Plans are deterministic: every plan counts site hits in arrival order,
so the hit index of an operation is identical between a golden (fault
free) run and a replay of the same workload.  A
:class:`CrashSchedulePlan` fires its :class:`FaultSpec` at exactly one
``(site, hit)`` coordinate; crash-kind faults then **latch** — every
subsequent fault-point hit re-raises :class:`InjectedCrash`, so
exception-path cleanup code (transaction aborts, restore loops) cannot
keep mutating the simulated machine after the instant of power failure.
The workload driver calls :meth:`BaseFaultPlan.disarm` before crashing
the devices and rebooting, which silences the plan for the rest of the
replay (recovery runs fault-free).

Injected exceptions derive from :class:`BaseException` (not
``Exception``) so library-level ``except Exception`` handlers cannot
absorb a simulated power failure.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.faults.registry import (
    ABORT,
    CRASH,
    DROP,
    FLIP,
    TORN,
    UNFENCED,
    require_site,
)

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedEcallAbort",
    "InjectedLinkDrop",
    "TornFlush",
    "UnfencedFence",
    "parse_landed",
    "NullFaultPlan",
    "NULL_PLAN",
    "ACTIVE",
    "BaseFaultPlan",
    "CountingPlan",
    "CrashSchedulePlan",
    "install_plan",
    "get_active_plan",
    "installed",
    "flip_bit",
]


class InjectedFault(BaseException):
    """Base of every injected fault (deliberately not ``Exception``)."""


class InjectedCrash(InjectedFault):
    """The simulated process stops here — power failure / SIGKILL."""


class InjectedEcallAbort(InjectedFault):
    """The enclave transition failed (SGX_ERROR_* returned to the host)."""


class InjectedLinkDrop(InjectedFault):
    """The in-flight link message was lost; the sender may retry."""


def parse_landed(policy: str) -> Tuple[str, int]:
    """An UNFENCED persistence policy: which pending write-backs reached
    the media — ``none``, ``all``, ``newest`` (only the newest flush's
    lines) or ``subset:<seed>`` (lines drawn from the seed).  Returns
    ``(kind, seed)``: ``"subset:7"`` -> ``("subset", 7)``."""
    kind, _, seed = policy.partition(":")
    if kind == "subset" and seed.isdigit():
        return kind, int(seed)
    if policy in ("none", "all", "newest"):
        return policy, 0
    raise ValueError(
        "landed policy must be none, all, newest or subset:<seed>, "
        f"got {policy!r}"
    )


@dataclass(frozen=True)
class FaultSpec:
    """One fault coordinate: fire ``kind`` at hit ``hit`` of ``site``.

    ``hit`` is 1-based: ``hit=1`` fires at the first time the site is
    reached.  ``bit`` selects the flipped bit for FLIP faults;
    ``fraction`` bounds how much of a torn flush persists; ``landed``
    names the UNFENCED persistence policy (:func:`parse_landed`).
    """

    site: str
    hit: int
    kind: str = CRASH
    bit: int = 0
    fraction: float = 0.5
    landed: str = "all"

    def __post_init__(self) -> None:
        site = require_site(self.site)
        if not site.supports(self.kind):
            raise ValueError(
                f"site {self.site!r} does not support kind {self.kind!r} "
                f"(supported: {', '.join(site.kinds)})"
            )
        if self.hit < 1:
            raise ValueError(f"hit index is 1-based, got {self.hit}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.bit < 0:
            raise ValueError(f"bit index must be >= 0, got {self.bit}")
        parse_landed(self.landed)

    def describe(self) -> str:
        extra = ""
        if self.kind == FLIP:
            extra = f" bit={self.bit}"
        elif self.kind == TORN:
            extra = f" fraction={self.fraction}"
        elif self.kind == UNFENCED:
            extra = f" landed={self.landed}"
        return f"{self.kind}@{self.site}#{self.hit}{extra}"


class _PowerFail:
    """A fault the PM device carries out itself before power fails.

    The device shapes what reached the media, then calls :meth:`crash`
    — which latches the owning plan and raises :class:`InjectedCrash`.
    """

    __slots__ = ("_plan", "spec")

    def __init__(self, plan: "CrashSchedulePlan", spec: FaultSpec) -> None:
        self._plan = plan
        self.spec = spec

    def crash(self) -> None:
        self._plan._latched = True
        raise InjectedCrash(self.spec.describe())


class TornFlush(_PowerFail):
    """Returned by ``check("pm.flush")`` when a TORN fault fires: the
    device persists dirty cache lines only until the byte budget implied
    by ``fraction`` is exhausted."""

    __slots__ = ()

    @property
    def fraction(self) -> float:
        return self.spec.fraction


class UnfencedFence(_PowerFail):
    """Returned by ``check("pm.fence")`` when an UNFENCED fault fires:
    power fails before the fence, and the ``landed`` policy picks which
    pending write-backs reached the media."""

    __slots__ = ()

    @property
    def landed(self) -> str:
        return self.spec.landed


def flip_bit(payload: bytes, bit: int) -> bytes:
    """Return ``payload`` with bit ``bit % (8 * len(payload))`` flipped."""
    if not payload:
        return payload
    bit %= 8 * len(payload)
    tampered = bytearray(payload)
    tampered[bit // 8] ^= 1 << (bit % 8)
    return bytes(tampered)


class NullFaultPlan:
    """The disabled plan: both entry points are allocation-free no-ops."""

    enabled = False

    def check(self, site: str) -> None:
        return None

    def mutate(self, site: str, payload: bytes) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullFaultPlan()"


NULL_PLAN = NullFaultPlan()

#: The process-default plan consulted by every instrumented site.
ACTIVE = NULL_PLAN


def install_plan(plan) -> object:
    """Install ``plan`` as the process default; returns the previous one.

    Callers restore the previous plan when done (or use
    :func:`installed`); the autouse test fixture fails any test that
    leaks an override.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = plan if plan is not None else NULL_PLAN
    return previous


def get_active_plan():
    """The currently installed plan (:data:`NULL_PLAN` by default)."""
    return ACTIVE


@contextlib.contextmanager
def installed(plan) -> Iterator[object]:
    """Context manager: install ``plan``, restore the previous on exit."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


class BaseFaultPlan:
    """Deterministic hit counting shared by every enabled plan.

    Subclasses implement :meth:`_on_hit`; the base class guarantees that
    hit indices are assigned identically across runs of the same
    workload (golden enumeration and crash replay see the same
    numbering), records every IV that passes through ``crypto.seal``
    (for the IV-uniqueness invariant), and implements the post-crash
    latch described in the module docstring.
    """

    enabled = True

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.boot_epoch = 0
        #: (boot_epoch, iv) for every seal observed — IV-uniqueness check.
        self.seal_ivs: List[Tuple[int, bytes]] = []
        self.fired = False
        self._latched = False
        self._disarmed = False

    # -- driver API ----------------------------------------------------
    def mark_boot(self) -> None:
        """Called by the workload driver at each (re)boot."""
        self.boot_epoch += 1

    def disarm(self) -> None:
        """Silence the plan: recovery and invariant checks run fault-free."""
        self._disarmed = True
        self._latched = False

    def total_hits(self) -> int:
        return sum(self.hits.values())

    # -- instrumented-site API -----------------------------------------
    def check(self, site: str):
        n = self._step(site)
        if n is None:
            return None
        return self._on_hit(site, n, None)

    def mutate(self, site: str, payload: bytes) -> Optional[bytes]:
        n = self._step(site)
        if n is None:
            return None
        if site == "crypto.seal":
            self.seal_ivs.append((self.boot_epoch, bytes(payload)))
        return self._on_hit(site, n, payload)

    # -- internals -----------------------------------------------------
    def _step(self, site: str) -> Optional[int]:
        if self._disarmed:
            return None
        if self._latched:
            raise InjectedCrash("post-crash latch: machine is down")
        n = self.hits.get(site, 0) + 1
        self.hits[site] = n
        return n

    def _on_hit(self, site: str, n: int, payload: Optional[bytes]):
        raise NotImplementedError

    def duplicate_ivs(self) -> List[bytes]:
        """IVs sealed more than once within a single boot epoch."""
        seen: Dict[Tuple[int, bytes], int] = {}
        duplicates = []
        for epoch, iv in self.seal_ivs:
            seen[(epoch, iv)] = seen.get((epoch, iv), 0) + 1
            if seen[(epoch, iv)] == 2:
                duplicates.append(iv)
        return duplicates


class CountingPlan(BaseFaultPlan):
    """Golden-run plan: counts every hit, never fires anything."""

    def _on_hit(self, site: str, n: int, payload: Optional[bytes]) -> None:
        return None


@dataclass
class _FiredRecord:
    """What actually happened when a plan fired (explorer bookkeeping)."""

    site: str
    hit: int
    kind: str


class CrashSchedulePlan(BaseFaultPlan):
    """Fires one :class:`FaultSpec` at its ``(site, hit)`` coordinate."""

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__()
        self.spec = spec
        self.fired_record: Optional[_FiredRecord] = None
        #: Number of FLIP payloads handed back tampered.
        self.flips_delivered = 0

    def _on_hit(self, site: str, n: int, payload: Optional[bytes]):
        spec = self.spec
        if self.fired or site != spec.site or n != spec.hit:
            return None
        self.fired = True
        self.fired_record = _FiredRecord(site=site, hit=n, kind=spec.kind)
        if spec.kind == CRASH:
            self._latched = True
            raise InjectedCrash(spec.describe())
        if spec.kind == TORN:
            return TornFlush(self, spec)
        if spec.kind == UNFENCED:
            return UnfencedFence(self, spec)
        if spec.kind == ABORT:
            raise InjectedEcallAbort(spec.describe())
        if spec.kind == DROP:
            raise InjectedLinkDrop(spec.describe())
        if spec.kind == FLIP:
            if payload is None:
                raise InjectedCrash(
                    f"FLIP fired at payload-less site {site!r}: "
                    f"{spec.describe()}"
                )
            self.flips_delivered += 1
            return flip_bit(bytes(payload), spec.bit)
        raise AssertionError(f"unreachable kind {spec.kind!r}")
