"""Secure inter-enclave links.

Tensors leaving an enclave for another machine's enclave must be sealed:
a link pairs an AES-GCM engine (keyed by a job key both enclaves obtained
via attestation) with a wire.  :class:`SecureLink`'s wire is a
point-to-point NIC cost charged on the link's clock;
:class:`NetworkLink`'s is a :class:`~repro.cluster.network.ClusterNetwork`
edge, which pays the same cost on the shared clock and adds the
``cluster.partition`` / ``cluster.deliver`` fault coordinates on top of
the link's own ``link.send`` / ``link.recv`` sites.  The transferred
bytes are real ciphertext — the tests check tensors are never on the
wire in plaintext and that tampering in flight fails the MAC.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import NIC_BANDWIDTH, NIC_LATENCY, ClusterNetwork
from repro.crypto import records
from repro.crypto.engine import EncryptionEngine
from repro.faults import plan as faultplan
from repro.simtime.clock import SimClock


class SecureLink:
    """A sealed, cost-accounted channel between two enclaves."""

    def __init__(self, engine: EncryptionEngine, clock: SimClock) -> None:
        self.engine = engine
        self.clock = clock
        self.stats = {"messages": 0, "bytes": 0}

    def send_array(self, array: np.ndarray) -> bytes:
        """Seal a tensor for the wire; returns the ciphertext message."""
        sealed = self._seal_array(array)
        self._transit(sealed)
        return sealed

    def _seal_array(self, array: np.ndarray) -> bytes:
        """Frame + seal a tensor (the enclave-side half of a send)."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("link.send")
        header = np.array(array.shape, dtype=np.int64).tobytes()
        payload = (
            len(array.shape).to_bytes(4, "little")
            + header
            + np.ascontiguousarray(array, dtype=np.float32).tobytes()
        )
        sealed = records.seal(self.engine, payload, records.LINK_TENSOR)
        self.stats["messages"] += 1
        self.stats["bytes"] += len(sealed)
        return sealed

    def _transit(self, sealed: bytes) -> None:
        """Carry one sealed message over the wire."""
        self.clock.advance(NIC_LATENCY + len(sealed) / NIC_BANDWIDTH)

    def receive_array(self, message: bytes) -> np.ndarray:
        """Unseal a tensor received from the peer enclave."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("link.recv")
        payload = records.unseal(self.engine, message, records.LINK_TENSOR)
        ndim = int.from_bytes(payload[:4], "little")
        shape = tuple(
            np.frombuffer(payload, dtype=np.int64, count=ndim, offset=4)
        )
        data = np.frombuffer(payload, dtype=np.float32, offset=4 + 8 * ndim)
        return data.reshape(shape).copy()

    def transfer(self, array: np.ndarray) -> np.ndarray:
        """Send + receive in one step (the common in-process case)."""
        return self.receive_array(self.send_array(array))


class NetworkLink(SecureLink):
    """A sealed channel between two named hosts of a cluster."""

    def __init__(
        self,
        engine: EncryptionEngine,
        network: ClusterNetwork,
        src: str,
        dst: str,
    ) -> None:
        network.link(src, dst)  # an unknown edge fails here, not mid-send
        super().__init__(engine, network.clock)
        self.network = network
        self.src = src
        self.dst = dst

    def _transit(self, sealed: bytes) -> None:
        self.network.transmit(self.src, self.dst, sealed)
