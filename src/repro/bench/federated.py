"""Federated-training smoke benchmark: N attested clients, R rounds.

Drives a full :class:`~repro.federated.session.FederatedSession` on the
simulated cluster and summarizes what the durable ledger ended up
holding: one Merkle root per round, the participant count behind each
root, the mean reported client loss, and a digest of the final merged
parameters.  The CI fed-smoke job runs this through ``repro fed`` and
asserts the committed round count matches what was requested — a
federation that silently lost a round fails the gate, not just the
eyeball test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class FederatedRoundSummary:
    """What one committed round looked like from the ledger's side."""

    round_no: int
    merkle_root: str  #: hex digest persisted in the ledger entry
    participants: int
    mean_loss: float


@dataclass
class FederatedBenchReport:
    """One ``run_federated`` call's results (JSON-serializable)."""

    n_clients: int
    rounds_requested: int
    committed_round: int
    seed: int
    rounds: List[FederatedRoundSummary] = field(default_factory=list)
    params_digest: str = ""
    exclusions: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.committed_round == self.rounds_requested

    def to_dict(self) -> dict:
        return {
            "n_clients": self.n_clients,
            "rounds_requested": self.rounds_requested,
            "committed_round": self.committed_round,
            "seed": self.seed,
            "ok": self.ok,
            "params_digest": self.params_digest,
            "rounds": [
                {
                    "round": r.round_no,
                    "merkle_root": r.merkle_root,
                    "participants": r.participants,
                    "mean_loss": r.mean_loss,
                }
                for r in self.rounds
            ],
            "exclusions": list(self.exclusions),
        }


def run_federated(
    n_clients: int = 4,
    rounds: int = 3,
    local_steps: int = 2,
    seed: int = 4242,
    server: str = "emlSGX-PM",
) -> FederatedBenchReport:
    """Run one honest federation end to end and report the ledger view."""
    from repro.federated.session import FederatedSession, FederationConfig

    config = FederationConfig(
        n_clients=n_clients,
        rounds=rounds,
        local_steps=local_steps,
        seed=seed,
        server=server,
    )
    session = FederatedSession(config)
    results = session.run()

    report = FederatedBenchReport(
        n_clients=n_clients,
        rounds_requested=rounds,
        committed_round=session.ledger.committed_round(),
        seed=seed,
    )
    for result in results:
        losses: Dict[int, List[float]] = result.losses
        flat = [v for per_client in losses.values() for v in per_client]
        report.rounds.append(
            FederatedRoundSummary(
                round_no=result.round_no,
                merkle_root=result.root.hex(),
                participants=len(result.participants),
                mean_loss=(sum(flat) / len(flat)) if flat else 0.0,
            )
        )
        report.exclusions.extend(
            {
                "round": result.round_no,
                "client": e.client_id,
                "reason": e.reason,
            }
            for e in result.excluded
        )
    coordinator = session.coordinator
    report.params_digest = hashlib.sha256(
        coordinator.params.tobytes()
    ).hexdigest()
    return report


def render_text(report: FederatedBenchReport) -> List[str]:
    lines = [
        f"federated rounds: {report.committed_round}/"
        f"{report.rounds_requested} committed, "
        f"{report.n_clients} clients (seed {report.seed})",
    ]
    for r in report.rounds:
        lines.append(
            f"  round {r.round_no}: root {r.merkle_root[:16]}… "
            f"({r.participants} participants, "
            f"mean loss {r.mean_loss:.4f})"
        )
    for e in report.exclusions:
        lines.append(
            f"  EXCLUDED round {e['round']} client {e['client']}: "
            f"{e['reason']}"
        )
    lines.append(f"  merged params digest: {report.params_digest[:16]}…")
    return lines
