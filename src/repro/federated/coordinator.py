"""The federated round driver: collect, exclude, merge, commit, ack.

One round, as run by :meth:`FederatedCoordinator.run_round`:

1. **Broadcast** — the aggregation enclave seals the current merged
   parameters to each client session (``seal_response(round_no)``,
   sealed once per ``(client, round, boot)`` and cached for
   retransmission) and ships them over the cluster wire with bounded
   retries.  A client whose link stays dead is excluded (*dropout*).
2. **Collect** — each surviving client trains locally and submits its
   sealed delta.  The ``fed.submit`` fault coordinate sits in front of
   the wire; drops retransmit the client's *cached* sealed bytes (no
   IV reuse, no ciphertext forks).  Submissions arriving after the
   round deadline are excluded (*straggler*).
3. **Verify** — the aggregator opens each delta under the session's
   AAD (direction ‖ session ‖ round).  A transient injected bit-flip
   is retried once the fault latches; a *persistently* failing MAC —
   tampered ciphertext, or a prior round's record replayed under this
   round's AAD — excludes the client (*bad-mac*).  Exclusion always
   happens **before** aggregation: a rejected delta is never averaged
   in, so the round result equals the honest-subset reference
   byte-for-byte.
4. **Merge** — quorum check, ``fed.aggregate`` coordinate, then the
   deterministic pairwise FedAvg of :mod:`repro.federated.aggregate`.
5. **Commit, then ack** — the round's Merkle tree is built over the
   accepted delta digests (canonical ascending-client order); the
   root, the leaf payloads, and the sealed merged parameters are
   persisted in one Romulus transaction (``fed.commit`` coordinate in
   front).  Only after that transaction is durable does
   :meth:`_ack_round` publish the round (volatile state + ``on_ack``
   callback).  The ``fed-commit-before-durable`` mutant swaps these
   two calls and invariant I8/I9 catches it.
"""
# repro: noqa[SEC002] -- the coordinator is aggregator-host driver
# code: it moves sealed bytes between enclave endpoints and persists
# enclave-produced commitments; plaintext deltas only ever exist
# inside the session/ledger (trusted) calls it makes.

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.backend import IntegrityError
from repro.faults import plan as faultplan
from repro.faults.plan import InjectedLinkDrop
from repro.federated.aggregate import DTYPE, fedavg
from repro.federated.client import FederatedClient, unpack_submission
from repro.federated.ledger import FederatedLedger
from repro.federated.merkle import MerkleTree, ProofStep, verify_proof

#: Bounded retries for one logical message over the lossy wire
#: (reliable transport, same budget the other workloads use).
MAX_SEND_ATTEMPTS = 4

#: Fixed leaf-payload size: client id (8) + round (8) + delta digest (32).
LEAF_SIZE = 48

#: Sim-seconds a round may run before late submissions are stragglers.
DEFAULT_ROUND_DEADLINE = 1.0


class QuorumError(Exception):
    """Fewer accepted deltas than the configured quorum."""


class TransportError(Exception):
    """A message could not be delivered within the retry budget."""


def leaf_payload(client_id: int, round_no: int, delta_bytes: bytes) -> bytes:
    """Merkle leaf payload committing one client's round contribution."""
    return (
        client_id.to_bytes(8, "big")
        + round_no.to_bytes(8, "big")
        + hashlib.sha256(delta_bytes).digest()
    )


@dataclass(frozen=True)
class Exclusion:
    """One recorded exclusion (the I10 evidence record)."""

    round_no: int
    client_id: int
    reason: str  #: dropout | straggler | bad-mac | forged-proof


@dataclass
class RoundResult:
    """Everything one committed round produced."""

    round_no: int
    root: bytes
    participants: List[int]
    excluded: List[Exclusion]
    losses: Dict[int, List[float]] = field(default_factory=dict)
    params: Optional[np.ndarray] = None


class FederatedCoordinator:
    """Aggregator-side driver for a fixed client fleet."""

    def __init__(
        self,
        clock,
        network,
        ledger: FederatedLedger,
        sessions: Dict[int, object],
        clients: Dict[int, FederatedClient],
        initial_params: np.ndarray,
        *,
        quorum: Optional[int] = None,
        round_deadline: float = DEFAULT_ROUND_DEADLINE,
        recorder=None,
        on_note: Optional[Callable[[RoundResult], None]] = None,
        on_ack: Optional[Callable[[RoundResult], None]] = None,
    ) -> None:
        self.clock = clock
        self.network = network
        self.ledger = ledger
        self.sessions = sessions  #: enclave-side session per client id
        self.clients = clients
        self.host = "aggregator"  #: the cluster host the coordinator runs on
        self.quorum = quorum or (len(clients) // 2 + 1)
        self.round_deadline = round_deadline
        self.recorder = recorder
        self.on_note = on_note
        self.on_ack = on_ack
        if ledger.exists() and ledger.committed_round() > 0:
            self.params = ledger.load_params()
        else:
            self.params = np.asarray(initial_params, dtype=DTYPE).copy()
        #: Volatile: highest round this boot has acknowledged.  Durable
        #: truth is ``ledger.committed_round()``; the workload checks
        #: the two never disagree in the wrong direction (I8).
        self.acked_round = self.ledger.committed_round()
        self.evidence: List[Exclusion] = []
        self.integrity_rejections = 0
        self._broadcast_cache: Dict[Tuple[int, int], bytes] = {}

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _transmit(self, src: str, dst: str, sealed: bytes) -> bytes:
        """Bounded-retry delivery of one (cached) sealed message."""
        for _ in range(MAX_SEND_ATTEMPTS):
            try:
                return self.network.transmit(src, dst, sealed)
            except InjectedLinkDrop:
                continue
        raise TransportError(f"{src} -> {dst} dead after retries")

    def _submit(self, client: FederatedClient, sealed: bytes) -> bytes:
        """Client-side submission: ``fed.submit`` guards the wire."""
        for _ in range(MAX_SEND_ATTEMPTS):
            active = faultplan.ACTIVE
            if active.enabled:
                try:
                    active.check("fed.submit")
                except InjectedLinkDrop:
                    continue  # lost before the NIC: retransmit the cache
            try:
                return self.network.transmit(client.host, self.host, sealed)
            except InjectedLinkDrop:
                continue
        raise TransportError(
            f"submission from client {client.client_id} dead after retries"
        )

    def _open_with_retry(self, open_fn: Callable[[bytes], bytes],
                         sealed: bytes) -> bytes:
        """Open a sealed record, absorbing one transient injected flip.

        An injected ``crypto.unseal`` FLIP fires once and latches, so a
        single retry over the same cached ciphertext recovers; the
        rejection is still counted (invariant I7 requires at least one
        IntegrityError per delivered flip).  A byzantine ciphertext
        fails every attempt and the error propagates to the exclusion
        logic.
        """
        try:
            return open_fn(sealed)
        except IntegrityError:
            self.integrity_rejections += 1
            return open_fn(sealed)

    # ------------------------------------------------------------------
    # Round protocol
    # ------------------------------------------------------------------
    def _exclude(self, round_no: int, client_id: int, reason: str,
                 sink: List[Exclusion]) -> None:
        mark = Exclusion(round_no, client_id, reason)
        self.evidence.append(mark)
        sink.append(mark)
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.count("fed.exclusions")
            self.recorder.instant(
                "fed.exclude",
                self.clock.now(),
                category="federated",
                args={"round": round_no, "client": client_id,
                      "reason": reason},
            )

    def run_round(self, round_no: int) -> RoundResult:
        """Drive one full round; returns the committed result."""
        rec = self.recorder if (
            self.recorder is not None and self.recorder.enabled
        ) else None
        span = rec.begin(
            "fed.round", self.clock.now(), category="federated",
            args={"round": round_no, "clients": len(self.clients)},
        ) if rec else None
        try:
            result = self._run_round(round_no, rec)
        finally:
            if rec:
                rec.end(span, self.clock.now())
        return result

    def _run_round(self, round_no: int, rec) -> RoundResult:
        deadline = self.clock.now() + self.round_deadline
        params_bytes = np.ascontiguousarray(self.params, dtype=DTYPE).tobytes()
        accepted: Dict[int, np.ndarray] = {}
        losses: Dict[int, List[float]] = {}
        payloads: Dict[int, bytes] = {}
        excluded: List[Exclusion] = []

        for cid in sorted(self.clients):
            client = self.clients[cid]
            session = self.sessions[cid]
            key = (cid, round_no)
            if key not in self._broadcast_cache:
                self._broadcast_cache[key] = session.seal_response(
                    round_no, params_bytes
                )
            sealed_bcast = self._broadcast_cache[key]
            try:
                delivered = self._transmit(self.host, client.host, sealed_bcast)
                params = np.frombuffer(
                    self._open_with_retry(
                        lambda b, c=client, r=round_no:
                            c.session.open_response(r, b),
                        delivered,
                    ),
                    dtype=DTYPE,
                ).copy()
            except TransportError:
                self._exclude(round_no, cid, "dropout", excluded)
                continue
            except IntegrityError:
                self._exclude(round_no, cid, "bad-mac", excluded)
                continue

            sealed_sub, _, _delta_bytes = client.submission(round_no, params)
            if sealed_sub is None:
                self._exclude(round_no, cid, "dropout", excluded)
                continue
            try:
                arrived = self._submit(client, sealed_sub)
            except TransportError:
                self._exclude(round_no, cid, "dropout", excluded)
                continue
            if self.clock.now() > deadline:
                self._exclude(round_no, cid, "straggler", excluded)
                continue
            try:
                payload = self._open_with_retry(
                    lambda b, s=session, r=round_no: s.open_request(r, b),
                    arrived,
                )
            except IntegrityError:
                self._exclude(round_no, cid, "bad-mac", excluded)
                continue
            sub_losses, delta = unpack_submission(payload)
            accepted[cid] = delta
            losses[cid] = sub_losses
            # Commit what was *verified*: the digest of the plaintext
            # delta the MAC authenticated, which for an honest client
            # equals the digest of the bytes it produced locally.
            payloads[cid] = leaf_payload(
                cid, round_no, np.ascontiguousarray(delta).tobytes()
            )
            if rec:
                rec.count("fed.deltas_accepted")

        if len(accepted) < self.quorum:
            raise QuorumError(
                f"round {round_no}: {len(accepted)} accepted deltas "
                f"< quorum {self.quorum}"
            )
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("fed.aggregate")
        avg_delta, order = fedavg(accepted)
        new_params = (self.params + avg_delta).astype(DTYPE)
        tree, _ = MerkleTree.from_items(payloads)
        result = RoundResult(
            round_no=round_no,
            root=tree.root,
            participants=order,
            excluded=excluded,
            losses=losses,
            params=new_params,
        )
        self._finalize(result, payloads)
        return result

    # ------------------------------------------------------------------
    # Finalization: durable commit strictly before the volatile ack
    # ------------------------------------------------------------------
    def _finalize(self, result: RoundResult,
                  payloads: Dict[int, bytes]) -> None:
        if self.on_note is not None:
            # Pre-commit note: recovery after a crash *between* commit
            # and ack must not lose the round's observations, so the
            # caller records them (tentatively, keyed by round) first.
            self.on_note(result)
        self._commit_round(result, payloads)
        self._ack_round(result)

    def _commit_round(self, result: RoundResult,
                      payloads: Dict[int, bytes]) -> None:
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("fed.commit")
        rec = self.recorder if (
            self.recorder is not None and self.recorder.enabled
        ) else None
        span = rec.begin(
            "fed.commit", self.clock.now(), category="federated",
            args={"round": result.round_no,
                  "participants": len(result.participants)},
        ) if rec else None
        try:
            leaves = b"".join(payloads[cid] for cid in sorted(payloads))
            self.ledger.commit_round(
                result.round_no,
                result.root,
                len(result.participants),
                result.params,
                leaves=leaves,
            )
        finally:
            if rec:
                rec.end(span, self.clock.now())

    def _ack_round(self, result: RoundResult) -> None:
        self.params = result.params
        self.acked_round = result.round_no
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.count("fed.rounds_committed")
        if self.on_ack is not None:
            self.on_ack(result)

    # ------------------------------------------------------------------
    # Audit: inclusion proofs against the durable root
    # ------------------------------------------------------------------
    def _round_tree(self, round_no: int):
        blob = self.ledger.leaf_blob(round_no)
        if not blob:
            return None
        payloads = [
            blob[i : i + LEAF_SIZE] for i in range(0, len(blob), LEAF_SIZE)
        ]
        order = [int.from_bytes(p[:8], "big") for p in payloads]
        return MerkleTree(payloads), order, payloads

    def proof_for(
        self, round_no: int, client_id: int
    ) -> Optional[Tuple[bytes, Tuple[ProofStep, ...]]]:
        """(leaf payload, inclusion proof) for a committed contribution.

        Rebuilt from the durable leaf blob, so proofs survive any
        number of aggregator reboots.  ``None`` when the round is not
        committed or the client was excluded from it.
        """
        found = self._round_tree(round_no)
        if found is None:
            return None
        tree, order, payloads = found
        if client_id not in order:
            return None
        index = order.index(client_id)
        return payloads[index], tree.proof(index)

    def audit(
        self,
        round_no: int,
        client_id: int,
        payload: bytes,
        proof,
    ) -> bool:
        """Client-side check of an inclusion proof against the ledger.

        A failed audit — wrong payload, forged proof path, or a root
        that never committed — is recorded as ``forged-proof`` evidence
        so the operator sees the discrepancy (I10).
        """
        root = self.ledger.root_of(round_no)
        ok = root is not None and verify_proof(payload, proof, root)
        if not ok:
            self._exclude(round_no, client_id, "forged-proof", [])
        return ok
