"""Durable per-round federation commitments in the Romulus region.

The aggregation enclave owns a PM region (the same one the mirror
lives in — the mirror keeps root slot 0, the federation ledger takes
slot 1).  Every committed round appends one fixed-size entry:

::

    root slot 1 ──► ledger header        entry i (80 bytes)
                    ┌──────────────┐     ┌──────────────────────┐
                    │ count    u64 │     │ round           u64  │
                    │ capacity u64 │     │ n_clients       u64  │
                    │ entry 0      │     │ merkle_root  32 B    │
                    │ entry 1      │     │ params_size     u64  │
                    │ ...          │     │ params_offset   u64  │
                    └──────────────┘     │ leaves_size     u64  │
                                         │ leaves_offset   u64  │
                                         └──────────────────────┘

``params_offset`` points at the round's *sealed* merged parameter
vector (AES-GCM, AAD bound to the round number so a blob can never be
replayed as a different round's state).  The entry write, the sealed
blob write, and the count bump all ride **one Romulus transaction**,
so a crash anywhere inside :meth:`FederatedLedger.commit_round` leaves
the previous round as the durable tip — the property invariant I8/I9
and the ``fed-commit-before-durable`` mutant are about.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from repro.crypto.engine import EncryptionEngine
from repro.federated.merkle import DIGEST_SIZE
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion

#: Root slot owned by the federation ledger (the mirror owns slot 0).
FED_ROOT = 1

#: Number of round entries preallocated at format time.
CAPACITY = 64

_HEADER = struct.Struct("<QQ")  # count, capacity
#: round, n_clients, merkle root, sealed-params (size, offset),
#: leaf-payload blob (size, offset)
_ENTRY = struct.Struct(f"<QQ{DIGEST_SIZE}sQQQQ")


class LedgerError(Exception):
    """Structural misuse of the federation ledger."""


def _params_aad(round_no: int) -> bytes:
    return b"fed-params|" + round_no.to_bytes(8, "big")


class FederatedLedger:
    """Append-only round-commitment log on a Romulus region."""

    def __init__(
        self,
        region: RomulusRegion,
        heap: PersistentHeap,
        engine: EncryptionEngine,
    ) -> None:
        self.region = region
        self.heap = heap
        self.engine = engine

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return self.region.root(FED_ROOT) != 0

    def format(self) -> None:
        """Allocate the empty ledger (one transaction)."""
        if self.exists():
            raise LedgerError("federation ledger already formatted")
        size = _HEADER.size + CAPACITY * _ENTRY.size
        with self.region.begin_transaction() as tx:
            base = self.heap.pmalloc(tx, size)
            tx.write(base, _HEADER.pack(0, CAPACITY) + b"\x00" * (
                CAPACITY * _ENTRY.size
            ))
            tx.write_u64(self.region.root_offset(FED_ROOT), base)

    def _require(self) -> int:
        base = self.region.root(FED_ROOT)
        if base == 0:
            raise LedgerError("federation ledger not formatted")
        return base

    def _header(self) -> tuple:
        base = self._require()
        count, capacity = _HEADER.unpack(self.region.read(base, _HEADER.size))
        return base, count, capacity

    def _entry(self, base: int, index: int) -> tuple:
        offset = base + _HEADER.size + index * _ENTRY.size
        return _ENTRY.unpack(self.region.read(offset, _ENTRY.size))

    # ------------------------------------------------------------------
    def committed_round(self) -> int:
        """Round number of the durable tip (0 = nothing committed)."""
        if not self.exists():
            return 0
        base, count, _ = self._header()
        if count == 0:
            return 0
        return self._entry(base, count - 1)[0]

    def _find(self, round_no: int) -> Optional[tuple]:
        base, count, _ = self._header()
        for i in range(count):
            entry = self._entry(base, i)
            if entry[0] == round_no:
                return entry
        return None

    def root_of(self, round_no: int) -> Optional[bytes]:
        """Merkle root committed for ``round_no`` (None if absent)."""
        entry = self._find(round_no)
        return entry[2] if entry is not None else None

    def leaf_blob(self, round_no: int) -> Optional[bytes]:
        """The round's concatenated Merkle leaf payloads (plaintext).

        Leaf payloads are digests of sealed contributions — public
        commitments, not secrets — so they live unencrypted and any
        party can rebuild the round's tree to check the durable root.
        """
        entry = self._find(round_no)
        if entry is None:
            return None
        _, _, _, _, _, leaves_size, leaves_off = entry
        return self.region.read(leaves_off, leaves_size)

    # ------------------------------------------------------------------
    def commit_round(
        self,
        round_no: int,
        merkle_root: bytes,
        n_clients: int,
        params: np.ndarray,
        leaves: bytes = b"",
    ) -> None:
        """Durably append one round: sealed params + leaves + entry.

        The sealing happens before the transaction opens (AES-GCM cost
        is charged either way); everything PM-visible — the sealed
        merged parameters, the leaf-payload blob, the entry, and the
        count bump — commits atomically or not at all.
        """
        if len(merkle_root) != DIGEST_SIZE:
            raise LedgerError(
                f"merkle root must be {DIGEST_SIZE} bytes, "
                f"got {len(merkle_root)}"
            )
        base, count, capacity = self._header()
        if count >= capacity:
            raise LedgerError(f"ledger full ({capacity} rounds)")
        tip = self.committed_round()
        if round_no <= tip:
            raise LedgerError(
                f"round {round_no} would regress the tip (at {tip})"
            )
        plain = np.ascontiguousarray(params, dtype=np.float32).tobytes()
        sealed = self.engine.seal(plain, aad=_params_aad(round_no))
        with self.region.begin_transaction() as tx:
            blob = self.heap.pmalloc(tx, len(sealed))
            tx.write(blob, sealed)
            leaves_off = 0
            if leaves:
                leaves_off = self.heap.pmalloc(tx, len(leaves))
                tx.write(leaves_off, leaves)
            entry_off = base + _HEADER.size + count * _ENTRY.size
            tx.write(
                entry_off,
                _ENTRY.pack(round_no, n_clients, merkle_root,
                            len(sealed), blob, len(leaves), leaves_off),
            )
            tx.write(base, _HEADER.pack(count + 1, capacity))

    def load_params(self) -> np.ndarray:
        """Unseal the merged parameter vector of the durable tip.

        A flipped bit in the sealed blob surfaces as
        :class:`~repro.crypto.backend.IntegrityError` — fail-stop, never
        silently wrong weights.
        """
        base, count, _ = self._header()
        if count == 0:
            raise LedgerError("no committed rounds to load")
        entry_round, _, _, size, blob = self._entry(base, count - 1)[:5]
        sealed = self.region.read(blob, size)
        plain = self.engine.unseal(sealed, aad=_params_aad(entry_round))
        return np.frombuffer(plain, dtype=np.float32).copy()
