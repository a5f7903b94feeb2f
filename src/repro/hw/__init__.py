"""Simulated hardware substrate: persistent memory and SSD.

These devices give the reproduction *observable* durability semantics:

* :class:`PersistentMemoryDevice` — byte-addressable persistent memory
  with a volatile CPU-cache overlay.  A store is durable only after the
  cache line holding it has been flushed (CLFLUSH / CLFLUSHOPT / CLWB);
  :meth:`~PersistentMemoryDevice.crash` discards every unflushed store,
  exactly the failure Romulus' twin-copy protocol must tolerate.
* :class:`BlockDevice` — an SSD with a volatile write buffer and fsync,
  used by the disk-checkpointing baseline.
* DRAM has no device: what the enclave holds in it is process state,
  gone when the process is killed.

All operations charge simulated time to a shared :class:`~repro.simtime.SimClock`
via the device cost models in the active :class:`~repro.simtime.ServerProfile`.
"""

from repro.hw.intervals import IntervalSet
from repro.hw.pmem import FlushInstruction, PersistentMemoryDevice
from repro.hw.ssd import BlockDevice
from repro.hw.fio import FioJob, FioResult, run_fio_job

__all__ = [
    "IntervalSet",
    "PersistentMemoryDevice",
    "FlushInstruction",
    "BlockDevice",
    "FioJob",
    "FioResult",
    "run_fio_job",
]
