"""Domain-separated binary Merkle tree over client-delta digests.

The aggregation enclave commits each federated round by building a
Merkle tree whose leaves are the accepted clients' delta digests and
persisting only the 32-byte root into persistent memory.  Clients later
audit their contribution with an inclusion proof checked against that
durable root, so the tree must be:

* **Second-preimage resistant across levels** — leaf and interior
  hashes use distinct domain prefixes (``\\x00`` / ``\\x01``), so an
  interior node can never be replayed as a leaf (CVE-2012-2459 class).
* **Canonically ordered** — :meth:`MerkleTree.from_items` sorts leaves
  by key (ascending client id), so the root is a pure function of the
  participating *set*, independent of network arrival order.

Odd nodes are promoted unchanged to the next level (Bitcoin-style
duplication would let two different leaf sets share a root).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_hash(payload: bytes) -> bytes:
    """Hash a leaf payload with the leaf domain prefix."""
    return hashlib.sha256(_LEAF_PREFIX + payload).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """Hash an interior node with the node domain prefix."""
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class ProofStep:
    """One sibling on the path from a leaf to the root.

    ``side`` names where the *sibling* sits: ``"L"`` means the sibling
    is the left input of the parent hash, ``"R"`` the right.  Levels at
    which the running node was promoted unchanged contribute no step.
    """

    side: str  # "L" | "R"
    digest: bytes


class MerkleTree:
    """Immutable Merkle tree over an ordered, non-empty leaf sequence."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        self._leaves: Tuple[bytes, ...] = tuple(bytes(p) for p in leaves)
        self._levels: List[List[bytes]] = [[leaf_hash(p) for p in self._leaves]]
        while len(self._levels[-1]) > 1:
            prev = self._levels[-1]
            level: List[bytes] = []
            for i in range(0, len(prev) - 1, 2):
                level.append(node_hash(prev[i], prev[i + 1]))
            if len(prev) % 2:
                level.append(prev[-1])  # promote the odd node unchanged
            self._levels.append(level)

    @classmethod
    def from_items(cls, items: Dict[int, bytes]) -> Tuple["MerkleTree", List[int]]:
        """Build from a ``{client_id: payload}`` mapping in canonical order.

        Leaves are ordered by ascending client id, so any two parties
        holding the same mapping derive the same root regardless of the
        order in which deltas arrived.  Returns the tree plus the leaf
        order (sorted ids) for index lookups.
        """
        order = sorted(items)
        return cls([items[cid] for cid in order]), order

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, index: int) -> Tuple[ProofStep, ...]:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        steps: List[ProofStep] = []
        pos = index
        for level in self._levels[:-1]:
            sibling = pos ^ 1
            if sibling < len(level):
                side = "L" if sibling < pos else "R"
                steps.append(ProofStep(side, level[sibling]))
            # odd promoted node: no sibling at this level, no step
            pos //= 2
        return tuple(steps)


def verify_proof(payload: bytes, proof: Sequence[ProofStep], root: bytes) -> bool:
    """Check that ``payload`` is included under ``root`` via ``proof``.

    The proof's sides encode the leaf position, so no index is needed.
    """
    h = leaf_hash(payload)
    for step in proof:
        if step.side == "L":
            h = node_hash(step.digest, h)
        elif step.side == "R":
            h = node_hash(h, step.digest)
        else:
            return False
    return h == root
