"""Execution-runtime profiles for the Fig. 6 comparison.

The paper benchmarks the same Romulus algorithm hosted three ways:

* **native** — no SGX at all; the performance baseline.
* **SCONE** — unmodified Romulus inside a SCONE container.  Competitive
  for small transactions, but the container's constrained memory leaves
  "limited space available for Romulus' volatile redo log": beyond ~64
  swaps per transaction the log spills and throughput collapses
  (the pronounced drop the paper reports).
* **SGX-SDK** (SGX-Romulus) — the manual port.  Persistence fences and
  flushes run ~1.6-3.7x slower than native inside the enclave, but the
  log lives in regular enclave memory and scales with transaction size.

A profile scales the PM micro-operation costs and adds log-capacity
behaviour; :func:`repro.romulus.sps.run_sps` instantiates devices and
regions from one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RuntimeProfile:
    """How a hosting runtime scales Romulus' cost profile."""

    name: str
    #: Multiplier on store/load costs (MEE tax on enclave-resident data).
    memory_multiplier: float
    #: Multiplier on flush/fence costs (the paper measures 1.6-3.7x for
    #: SGX-Romulus vs. native).
    fence_multiplier: float
    #: Fixed cost added to every transaction (runtime bookkeeping).
    per_tx_overhead: float
    #: Volatile-log entries before the runtime must spill (None: unbounded).
    log_capacity: Optional[int] = None
    #: Cost per log entry beyond capacity (SCONE's collapse in Fig. 6).
    log_spill_cost: float = 0.0


NATIVE = RuntimeProfile(
    name="native",
    memory_multiplier=1.0,
    fence_multiplier=1.0,
    per_tx_overhead=40e-9,
)

SCONE = RuntimeProfile(
    name="scone",
    memory_multiplier=1.15,
    fence_multiplier=1.4,
    per_tx_overhead=80e-9,
    # The log records one entry per interposed store; SPS issues two
    # stores per swap, so capacity 128 collapses beyond 64 swaps/tx —
    # the drop the paper observes.
    log_capacity=128,
    log_spill_cost=0.35e-6,
)

SGX_SDK = RuntimeProfile(
    name="sgx-romulus",
    memory_multiplier=1.35,
    fence_multiplier=2.6,
    per_tx_overhead=120e-9,
)
