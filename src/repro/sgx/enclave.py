"""The simulated enclave: identity, trusted heap, and EPC cost accounting.

What matters for reproducing the paper:

* **Identity** — the enclave has a measurement (hash of its "code"),
  which sealing keys and attestation quotes are bound to.
* **EPC accounting** — a byte-accurate ledger of trusted allocations.
  Whenever the working set exceeds the usable EPC (93.5 MB), touching
  enclave memory pays the kernel driver's page-swap cost.  This single
  mechanism produces the paper's EPC knee: the jump of the encryption
  share from 66.4% to 92.3% of save latency (Table Ia) and the Fig. 7
  slope change.
* **Boundary copies** — moving bytes into/out of the enclave pays the
  MEE-taxed copy bandwidth.
* **Destruction** — a crash (or spot-instance kill) destroys the enclave;
  all trusted state is lost, which is exactly why the PM mirror exists.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.faults import plan as faultplan
from repro.simtime.clock import SimClock
from repro.simtime.costs import SgxCostModel


class EnclaveMemoryError(MemoryError):
    """Raised when a trusted allocation exceeds the configured heap."""


class Enclave:
    """A simulated SGX enclave.

    Parameters
    ----------
    clock:
        Shared simulated clock.
    sgx:
        SGX cost model of the active server profile.
    code_identity:
        Bytes identifying the enclave binary; hashed into the
        measurement (MRENCLAVE analogue).
    heap_size:
        Maximum trusted heap (the paper configures 8 GB max heap — the
        EPC limit is what hurts, not the heap limit).
    """

    #: Enclave code + static data + runtime buffers resident in the EPC
    #: besides tracked allocations.  The paper observes the EPC limit is
    #: reached at model size ~78 MB because of these other structures
    #: (93.5 MB usable minus ~16 MB of code and buffers).
    base_footprint = 16_500_000

    def __init__(
        self,
        clock: SimClock,
        sgx: SgxCostModel,
        code_identity: bytes = b"plinius-enclave-v1",
        heap_size: int = 8 << 30,
    ) -> None:
        self.clock = clock
        self.sgx = sgx
        self.measurement = hashlib.sha256(code_identity).digest()
        self.heap_size = heap_size
        self._allocations: Dict[str, int] = {}
        self.destroyed = False
        self.stats = {"paging_events": 0, "paged_bytes": 0}

    # ------------------------------------------------------------------
    # Trusted heap ledger
    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.destroyed:
            raise RuntimeError("enclave has been destroyed")

    @property
    def allocated(self) -> int:
        """Tracked trusted-heap bytes."""
        return sum(self._allocations.values())

    @property
    def working_set(self) -> int:
        """Total EPC-resident bytes (allocations + base footprint)."""
        return self.allocated + self.base_footprint

    @property
    def over_epc(self) -> bool:
        """Whether the working set exceeds the usable EPC."""
        return self.sgx.enabled and self.working_set > self.sgx.epc_usable

    def malloc(self, tag: str, nbytes: int) -> None:
        """Allocate ``nbytes`` of trusted memory under ``tag``.

        Re-using a tag resizes the allocation (the mirroring module
        reuses staging buffers across iterations).
        """
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("sgx.enclave.malloc")
        self._check_alive()
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        new_total = self.allocated - self._allocations.get(tag, 0) + nbytes
        if new_total > self.heap_size:
            raise EnclaveMemoryError(
                f"trusted heap exhausted: {new_total} > {self.heap_size}"
            )
        self._allocations[tag] = nbytes

    # ------------------------------------------------------------------
    # Cost charging
    # ------------------------------------------------------------------
    def touch(self, nbytes: int) -> None:
        """Charge the cost of accessing ``nbytes`` of enclave memory.

        Below the EPC limit this is free (DRAM-speed, already folded
        into the operation being performed).  Beyond it, the SGX driver
        swaps pages and the cost model charges per swapped page.
        """
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("sgx.enclave.touch")
        self._check_alive()
        paging = self.sgx.paging_time(self.working_set, nbytes)
        if paging > 0:
            paged = self.sgx.paged_bytes(self.working_set, nbytes)
            self.stats["paging_events"] += 1
            self.stats["paged_bytes"] += paged
            recorder = self.clock.recorder
            recorder.count("sgx.epc_page_swaps")
            recorder.count("sgx.epc_paged_bytes", paged)
            self.clock.advance(paging)

    def copy_in(self, nbytes: int) -> None:
        """Charge a copy of ``nbytes`` from untrusted memory into the EPC."""
        self._check_alive()
        self.clock.advance(self.sgx.epc_copy_time(nbytes))
        self.touch(nbytes)

    def copy_out(self, nbytes: int) -> None:
        """Charge a copy of ``nbytes`` from the EPC out to untrusted memory.

        Reading EPC-resident source data pays paging when over the limit;
        the destination is untrusted and cheap.
        """
        self._check_alive()
        self.clock.advance(self.sgx.epc_copy_time(nbytes) * 0.5)
        self.touch(nbytes)

    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Tear the enclave down (graceful exit or crash): trusted state
        is gone either way."""
        self._allocations.clear()
        self.destroyed = True
