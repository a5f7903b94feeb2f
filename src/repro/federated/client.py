"""One federated client: local training on a private shard.

The client lives on its own cluster host, holds the *owner* side of a
mutually attested mux session with the aggregation enclave, and each
round:

1. opens the sealed parameter broadcast (``open_response(round_no)``),
2. trains ``local_steps`` SGD steps on its private shard with a batch
   RNG seeded by ``(seed, client_id, round_no, step)`` — on one model
   built per boot and reset to the broadcast parameters each round —
   and
3. seals its weight delta **once** per ``(round, boot)`` via
   ``seal_request(round_no)`` and caches the sealed bytes — every
   retransmission resends the cache, so a lossy wire can never reuse an
   AES-GCM IV within a boot (invariant I5) nor produce two different
   ciphertexts for one logical submission.

The submission payload packs the per-step losses in front of the delta
so the aggregator can log training progress without a second message.

Byzantine behaviour is opt-in via knobs the tests flip: ``tamper``
rewrites the sealed bytes after sealing (MAC breaks), ``replay_round``
resubmits a prior round's cached record (AAD binds the seq, MAC
breaks), ``drop_rounds`` refuses to submit (dropout), and
``compute_handicap`` charges extra sim-time per round (straggler).
"""
# repro: noqa[SEC002] -- client assembly references enclave-side
# randomness the same way the fault workloads do: it *builds* a secure
# endpoint, it is not code inside the trusted boundary.

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.federated.aggregate import DTYPE, assign_params, flatten_params
from repro.federated.shards import Shard
from repro.sgx.attestation import InferenceSession


def pack_submission(losses: List[float], delta: np.ndarray) -> bytes:
    """``[n_losses u32][losses f64...][delta f32...]`` plaintext."""
    head = struct.pack("<I", len(losses))
    body = struct.pack(f"<{len(losses)}d", *losses)
    return head + body + np.ascontiguousarray(delta, dtype=DTYPE).tobytes()


def unpack_submission(payload: bytes) -> Tuple[List[float], np.ndarray]:
    (n,) = struct.unpack_from("<I", payload, 0)
    losses = list(struct.unpack_from(f"<{n}d", payload, 4))
    delta = np.frombuffer(payload[4 + 8 * n :], dtype=DTYPE).copy()
    return losses, delta


class FederatedClient:
    """Volatile per-boot client endpoint (durable state lives in PM)."""

    def __init__(
        self,
        client_id: int,
        host: str,
        session: InferenceSession,
        builder: Callable,
        shard: Shard,
        local_steps: int,
        batch: int,
        seed: int,
        *,
        tamper: Optional[Callable[[bytes], bytes]] = None,
        replay_round: Optional[int] = None,
        drop_rounds: Optional[Set[int]] = None,
        compute_handicap: float = 0.0,
        clock=None,
    ) -> None:
        self.client_id = client_id
        self.host = host
        self.session = session
        self.builder = builder
        self.shard = shard
        self.local_steps = local_steps
        self.batch = batch
        self.seed = seed
        self.tamper = tamper
        self.replay_round = replay_round
        self.drop_rounds = drop_rounds or set()
        self.compute_handicap = compute_handicap
        self.clock = clock
        #: Sealed submissions of this boot, keyed by round (I5 cache).
        self._sealed: Dict[int, bytes] = {}
        #: The boot's resident model, built by the first ``_train``.
        self._net = None

    # ------------------------------------------------------------------
    def _train(self, round_no: int, params: np.ndarray):
        # One model per boot, as in the enclave: every round resets the
        # optimizer state and overwrites every parameter buffer (BN
        # rolling statistics included), which is exactly a fresh build.
        if self._net is None:
            self._net = self.builder()
        net = self._net
        net.reset_optimizer()
        assign_params(net, params)
        losses: List[float] = []
        rows = len(self.shard.x)
        for step in range(self.local_steps):
            rng = np.random.default_rng(
                (self.seed, self.client_id, round_no, step)
            )
            idx = rng.choice(rows, size=min(self.batch, rows), replace=False)
            losses.append(net.train_batch(self.shard.x[idx], self.shard.y[idx]))
        return losses, flatten_params(net) - params

    def submission(
        self, round_no: int, params: np.ndarray
    ) -> Tuple[Optional[bytes], List[float], bytes]:
        """Train and return ``(sealed, losses, delta_bytes)``.

        ``sealed`` is None when the client refuses this round
        (``drop_rounds``).  The plaintext delta bytes are returned so an
        honest client can later rebuild its Merkle leaf for auditing —
        they never cross the wire unsealed.
        """
        if self.compute_handicap and self.clock is not None:
            self.clock.advance(self.compute_handicap)
        losses, delta = self._train(round_no, params)
        delta_bytes = np.ascontiguousarray(delta, dtype=DTYPE).tobytes()
        if round_no in self.drop_rounds:
            return None, losses, delta_bytes
        if round_no not in self._sealed:
            self._sealed[round_no] = self.session.seal_request(
                round_no, pack_submission(losses, delta)
            )
        sealed = self._sealed[round_no]
        if self.replay_round is not None and self.replay_round in self._sealed:
            sealed = self._sealed[self.replay_round]
        if self.tamper is not None:
            sealed = self.tamper(sealed)
        return sealed, losses, delta_bytes
