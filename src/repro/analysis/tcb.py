"""TCB accounting — the paper's ~44% trusted-code-base reduction claim.

Section IV: "By manually porting the PM and ML libraries via separation
into trusted and untrusted components, Plinius achieved a TCB reduction
of ~44% in terms of LOC" (relative to running everything inside the
enclave, as a libOS/SCONE design would).

This module applies the same partitioning to *this* repository: each
module is classified as trusted (would run inside the enclave) or
untrusted (helper code outside), lines of code are counted, and the
reduction versus an all-in-enclave design is reported.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: Modules whose code runs inside the enclave under Plinius'
#: partitioning (lib-sgx-romulus, lib-sgx-darknet, the mirroring module,
#: the encryption engine and record codec, the PM-data module, sealing).
TRUSTED_MODULES = (
    "repro.romulus.region",
    "repro.romulus.transaction",
    "repro.romulus.log",
    "repro.romulus.alloc",
    "repro.darknet.activations",
    "repro.darknet.im2col",
    "repro.darknet.layers.base",
    "repro.darknet.layers.convolutional",
    "repro.darknet.layers.connected",
    "repro.darknet.layers.pooling",
    "repro.darknet.layers.softmax",
    "repro.darknet.network",
    "repro.darknet.policy",
    "repro.darknet.arena",
    "repro.darknet.train",
    "repro.darknet.inference",
    "repro.darknet.weights",
    "repro.crypto.aes",
    "repro.crypto.gcm",
    "repro.crypto.backend",
    "repro.crypto.engine",
    "repro.crypto.records",
    "repro.sgx.sealing",
    "repro.sgx.rand",
    "repro.core.mirror",
    "repro.core.pm_data",
    "repro.core.trainer",
    "repro.core.serving",
    "repro.distributed.worker",
    # Federated aggregation enclave: Merkle commitment, the
    # deterministic FedAvg merge, and the round ledger all run over
    # unsealed deltas, so they live inside the aggregator enclave.
    "repro.federated.merkle",
    "repro.federated.aggregate",
    "repro.federated.ledger",
)

#: Modules kept outside the enclave (sgx-romulus-helper,
#: sgx-darknet-helper, config parsing, data loading, device management,
#: attestation plumbing, the spot simulator).
UNTRUSTED_MODULES = (
    "repro.darknet.cfg",
    "repro.darknet.data",
    "repro.data.mnist",
    "repro.hw.intervals",
    "repro.hw.pmem",
    "repro.hw.undo",
    "repro.hw.ssd",
    "repro.hw.fio",
    "repro.sgx.enclave",
    "repro.sgx.ecall",
    "repro.sgx.attestation",
    "repro.romulus.runtime",
    "repro.romulus.sps",
    "repro.core.checkpoint",
    "repro.core.models",
    "repro.core.system",
    "repro.core.workflow",
    "repro.spot.traces",
    "repro.spot.simulator",
    "repro.simtime.clock",
    "repro.simtime.costs",
    "repro.simtime.profiles",
    "repro.distributed.link",
    "repro.distributed.data_parallel",
    "repro.distributed.pipeline",
    "repro.obs.recorder",
    "repro.obs.metrics",
    "repro.obs.export",
    "repro.obs.context",
    "repro.obs.hist",
    "repro.obs.flight",
    "repro.obs.report",
    "repro.analysis.tcb",
    "repro.analysis.lint.framework",
    "repro.analysis.lint.config",
    "repro.analysis.lint.rules_sec",
    "repro.analysis.lint.rules_det",
    "repro.analysis.lint.rules_alloc",
    "repro.analysis.lint.rules_lck",
    "repro.analysis.lint.reporters",
    "repro.analysis.lint.runner",
    "repro.analysis.flow.project",
    "repro.analysis.flow.callgraph",
    "repro.analysis.flow.taint",
    "repro.analysis.flow.engine",
    "repro.cli",
    # Fault-injection harness: drives the system from the operator /
    # attacker position, hence outside the enclave TCB.
    "repro.faults.registry",
    "repro.faults.plan",
    "repro.faults.invariants",
    "repro.faults.protocol",
    "repro.faults.workload",
    "repro.faults.explorer",
    # Inference gateway tier: handles only sealed bytes, so batching,
    # admission, and replica scheduling stay outside the enclave TCB.
    "repro.serving.gateway",
    "repro.serving.batcher",
    "repro.serving.replica_pool",
    "repro.serving.admission",
    # Simulated-cluster substrate: hosts, network, event loop — the
    # operator-side machinery around the enclaves, outside the TCB.
    "repro.cluster.loop",
    "repro.cluster.host",
    "repro.cluster.network",
    "repro.cluster.fabric",
    "repro.cluster.runtime",
    # Federated orchestration: round driving, shard assembly, and the
    # session/host wiring run operator-side.  Only merkle/aggregate/
    # ledger (the commitment + merge math the aggregator enclave runs
    # over unsealed deltas) stay trusted.
    "repro.federated.client",
    "repro.federated.coordinator",
    "repro.federated.session",
    "repro.federated.shards",
)

#: Extra runtime LoC an all-in-enclave design drags in.  The paper's
#: ~44% figure compares its partitioned TCB against running *its own*
#: code entirely inside the enclave, so the default here is 0; a real
#: libOS (Graphene, SCONE) would add tens of thousands more lines,
#: making the reduction even larger.
LIBOS_RUNTIME_LOC = 0


@dataclass(frozen=True)
class TcbReport:
    """LoC accounting of the trusted/untrusted partitioning."""

    trusted_loc: int
    untrusted_loc: int
    per_module: Dict[str, Tuple[str, int]]  # module -> (side, loc)
    libos_runtime_loc = LIBOS_RUNTIME_LOC

    @property
    def total_loc(self) -> int:
        return self.trusted_loc + self.untrusted_loc

    @property
    def libos_tcb_loc(self) -> int:
        """TCB of the all-in-enclave (libOS) alternative."""
        return self.total_loc + self.libos_runtime_loc

    @property
    def reduction(self) -> float:
        """Fractional TCB reduction vs. the libOS design (paper: ~0.44)."""
        return 1.0 - self.trusted_loc / self.libos_tcb_loc

    def summary(self) -> str:
        return (
            f"trusted {self.trusted_loc} LoC / untrusted "
            f"{self.untrusted_loc} LoC; all-in-enclave TCB would be "
            f"{self.libos_tcb_loc} LoC -> reduction {self.reduction:.1%}"
        )


def count_loc(path: Path) -> int:
    """Count non-blank, non-comment, non-docstring-only source lines."""
    loc = 0
    in_docstring = False
    delimiter = ""
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if in_docstring:
            if delimiter in line:
                in_docstring = False
            continue
        if not line or line.startswith("#"):
            continue
        if line.startswith(('"""', "'''")):
            delimiter = line[:3]
            # Single-line docstring?
            if not (line.endswith(delimiter) and len(line) >= 6):
                in_docstring = True
            continue
        loc += 1
    return loc


def _module_loc(module_name: str) -> int:
    module = importlib.import_module(module_name)
    if module.__file__ is None:
        raise ValueError(f"module {module_name} has no source file")
    return count_loc(Path(module.__file__))


def tcb_report() -> TcbReport:
    """Compute the TCB partitioning report for this repository."""
    per_module: Dict[str, Tuple[str, int]] = {}
    trusted = 0
    for name in TRUSTED_MODULES:
        loc = _module_loc(name)
        per_module[name] = ("trusted", loc)
        trusted += loc
    untrusted = 0
    for name in UNTRUSTED_MODULES:
        loc = _module_loc(name)
        per_module[name] = ("untrusted", loc)
        untrusted += loc
    return TcbReport(
        trusted_loc=trusted, untrusted_loc=untrusted, per_module=per_module
    )


def render_report(report: TcbReport) -> str:
    """Human-readable table of the partitioning."""
    lines: List[str] = ["module                                   side       LoC"]
    for name, (side, loc) in sorted(report.per_module.items()):
        lines.append(f"{name:40s} {side:9s} {loc:5d}")
    lines.append("-" * 58)
    lines.append(report.summary())
    return "\n".join(lines)


def render_report_json(report: TcbReport) -> str:
    """Machine-readable report (the ``tcb --format json`` shape)."""
    payload = {
        "trusted_loc": report.trusted_loc,
        "untrusted_loc": report.untrusted_loc,
        "total_loc": report.total_loc,
        "libos_runtime_loc": report.libos_runtime_loc,
        "libos_tcb_loc": report.libos_tcb_loc,
        "reduction": round(report.reduction, 4),
        "modules": [
            {"module": name, "side": side, "loc": loc}
            for name, (side, loc) in sorted(report.per_module.items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
