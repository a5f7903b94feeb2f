"""SGX-Romulus: durable transactions on persistent memory.

A from-scratch port of the Romulus PM library [Correia, Felber,
Ramalhete — SPAA'18] as described in Sections II and IV of the Plinius
paper:

* twin copies of the data in PM — *main* (where user code performs
  in-place modifications) and *back* (a snapshot of the last consistent
  state);
* a *volatile* log of the address ranges modified by the current
  transaction (kept in enclave DRAM — its loss on crash is harmless by
  design);
* at most **four persistence fences** per transaction, regardless of
  transaction size;
* store interposition (the ``persist<>`` wrapper) ensuring every store
  to persistent data is followed by a persistent write-back;
* crash recovery that restores *main* from *back* after a crash while
  mutating, or re-executes the copy to *back* after a crash while
  copying.

The runtime profiles in :mod:`repro.romulus.runtime` reproduce the three
systems compared in Fig. 6: native (no SGX), Romulus inside a SCONE
container, and SGX-Romulus on the SGX SDK.
"""

from repro.romulus.runtime import (
    NATIVE,
    SCONE,
    SGX_SDK,
    RuntimeProfile,
)
from repro.romulus.region import RegionState, RomulusRegion
from repro.romulus.log import VolatileLog
from repro.romulus.transaction import Transaction, TransactionError
from repro.romulus.alloc import AllocationError, PersistentHeap
from repro.romulus.sps import SpsConfig, SpsResult, run_sps

__all__ = [
    "RuntimeProfile",
    "NATIVE",
    "SCONE",
    "SGX_SDK",
    "RomulusRegion",
    "RegionState",
    "VolatileLog",
    "Transaction",
    "TransactionError",
    "PersistentHeap",
    "AllocationError",
    "SpsConfig",
    "SpsResult",
    "run_sps",
]
