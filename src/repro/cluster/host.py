"""One simulated machine: PM + SSD + enclaves + a crash/repair cycle.

A :class:`Host` owns the durable and volatile stacks one physical box
contributes to a deployment: an optional persistent-memory device (the
Romulus region + encrypted mirror live here), an optional SSD (sealed
key files), and the enclaves spawned on it.  Durable state survives
:meth:`power_fail`; enclaves do not — a reboot is a fresh enclave plus
Romulus recovery from this host's PM, which is exactly the paper's
single-machine crash model lifted to a named cluster member.

``open_region`` / ``format_region`` are the substrate's region attach
points.  Every substrate boot goes through them, which gives the
source-mutant corpus one seam to break recovery at (the
``host-reboot-skip-recovery`` row of ``tests/mutants.py``, scored into
``tests/fixtures/golden/kill_matrix.json`` by
``python -m tests.mutants``) and the ``cluster.host_kill`` barrier a
per-host owner.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults import plan as faultplan
from repro.hw.pmem import PersistentMemoryDevice
from repro.hw.ssd import BlockDevice
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile


class Host:
    """A named cluster member owning its own hardware stacks."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        profile: ServerProfile,
        pm_size: Optional[int] = None,
        with_ssd: bool = False,
    ) -> None:
        self.name = name
        self.clock = clock
        self.profile = profile
        self.pm: Optional[PersistentMemoryDevice] = None
        if pm_size is not None:
            self.ensure_pm(pm_size)
        self.ssd: Optional[BlockDevice] = (
            BlockDevice(clock, profile.ssd) if with_ssd else None
        )
        self.alive = True
        self.boots = 0
        self._enclaves: List[Enclave] = []

    # ------------------------------------------------------------------
    # Hardware
    # ------------------------------------------------------------------
    def ensure_pm(self, pm_size: int) -> PersistentMemoryDevice:
        """The host's PM device, built on first use (size is sticky)."""
        if self.pm is None:
            self.pm = PersistentMemoryDevice(
                pm_size,
                self.clock,
                self.profile.pm,
                clflush_cost=self.profile.clflush_cost,
                clflushopt_cost=self.profile.clflushopt_cost,
                sfence_cost=self.profile.sfence_cost,
                store_cost=self.profile.store_cost,
                load_cost=self.profile.load_cost,
            )
        return self.pm

    def spawn_enclave(self) -> Enclave:
        """A fresh enclave on this host; dies with the host."""
        enclave = Enclave(self.clock, self.profile.sgx)
        self._enclaves.append(enclave)
        return enclave

    # ------------------------------------------------------------------
    # Region attach (the substrate's recovery entry points)
    # ------------------------------------------------------------------
    def open_region(self) -> RomulusRegion:
        """Attach to this host's region, running Romulus recovery."""
        if self.pm is None:
            raise RuntimeError(f"host {self.name!r} has no PM device")
        return RomulusRegion.open(self.pm)

    def format_region(self, main_size: int) -> RomulusRegion:
        """Format a fresh region on this host's PM."""
        if self.pm is None:
            raise RuntimeError(f"host {self.name!r} has no PM device")
        return RomulusRegion(self.pm, main_size).format()

    # ------------------------------------------------------------------
    # Crash / repair
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """``cluster.host_kill`` fault barrier (boot tops, step tops)."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("cluster.host_kill")

    def power_fail(self) -> None:
        """Fail-stop: enclaves die, volatile device tiers are lost."""
        self.alive = False
        for enclave in self._enclaves:
            if not enclave.destroyed:
                enclave.destroy()
        self._enclaves.clear()
        if self.pm is not None:
            self.pm.crash()
        if self.ssd is not None:
            self.ssd.crash()

    def boot(self) -> None:
        """Mark the host back up (callers then re-attach via the region
        entry points above and rebuild their volatile tier)."""
        self.alive = True
        self.boots += 1
