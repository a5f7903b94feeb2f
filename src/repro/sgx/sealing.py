"""SGX sealing: persist secrets bound to the enclave identity.

Plinius seals the data-encryption key "for future use" (Section IV).
Real SGX derives the sealing key inside the CPU from a fused device key
and the enclave measurement (MRENCLAVE policy); we reproduce the key
derivation with HKDF-SHA256 over a per-platform secret, so that a blob
sealed by one enclave identity cannot be unsealed by another — the
property the protocol relies on.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Optional

from repro.crypto.backend import IntegrityError
from repro.crypto.engine import EncryptionEngine, RandomSource
from repro.sgx.enclave import Enclave


def hkdf_extract(salt: bytes, secret: bytes) -> bytes:
    """HKDF-Extract (RFC 5869 §2.2): the pseudorandom key for ``secret``.

    It depends on ``(salt, secret)`` only, so a caller deriving many
    outputs from one secret extracts once and expands per output.
    """
    return hmac.digest(salt, secret, "sha256")


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869 §2.3): one HMAC per 32 bytes of output."""
    out = block = b""
    counter = 1
    while len(out) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        out += block
        counter += 1
    return out[:length]


def hkdf_sha256(secret: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """HKDF (RFC 5869) with SHA-256 — extract then expand."""
    return hkdf_expand(hkdf_extract(salt, secret), info, length)


@dataclass(frozen=True)
class SealedBlob:
    """A sealed secret: ciphertext plus the sealing identity it is bound to."""

    measurement: bytes
    sealed: bytes


def _sealing_engine(
    enclave: Enclave, device_key: bytes, rand: Optional[RandomSource]
) -> EncryptionEngine:
    key = hkdf_sha256(
        secret=device_key,
        salt=enclave.measurement,
        info=b"sgx-sealing-key/mrenclave",
        length=16,
    )
    return EncryptionEngine(key, rand=rand)


def seal_data(
    enclave: Enclave,
    plaintext: bytes,
    device_key: bytes,
    rand: Optional[RandomSource] = None,
) -> SealedBlob:
    """Seal ``plaintext`` to this enclave's identity on this platform."""
    engine = _sealing_engine(enclave, device_key, rand)
    return SealedBlob(
        measurement=enclave.measurement, sealed=engine.seal(plaintext)
    )


def unseal_data(enclave: Enclave, blob: SealedBlob, device_key: bytes) -> bytes:
    """Unseal a blob; fails if the enclave identity or platform differ."""
    if blob.measurement != enclave.measurement:
        raise IntegrityError(
            "sealed blob is bound to a different enclave measurement"
        )
    engine = _sealing_engine(enclave, device_key, rand=None)
    return engine.unseal(blob.sealed)
