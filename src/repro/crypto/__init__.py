"""Cryptography for the Plinius encryption engine.

Plinius encrypts every model-parameter buffer and every training-data row
with AES-GCM (128-bit key, 12-byte random IV, 16-byte MAC) using the
Intel SGX SDK implementation.  This package provides:

* :mod:`repro.crypto.aes` — a from-scratch AES block cipher,
* :mod:`repro.crypto.gcm` — a from-scratch GCM mode (GHASH in GF(2^128)),
* :mod:`repro.crypto.backend` — pluggable AEAD backends: the pure-Python
  reference above, and a fast backend using the host ``cryptography``
  wheel when available (cross-validated against the reference in tests),
* :mod:`repro.crypto.engine` — the Plinius sealed-buffer format
  (ciphertext ‖ IV ‖ MAC, 28 bytes of metadata per buffer — Section VI,
  "CPU and memory overhead").
"""

from repro.crypto.aes import AES
from repro.crypto.backend import (
    AeadBackend,
    CryptographyBackend,
    IntegrityError,
    KeyedAead,
    PureBackend,
    default_backend,
)
from repro.crypto.engine import (
    IV_SIZE,
    KEY_SIZE,
    MAC_SIZE,
    SEAL_OVERHEAD,
    EncryptionEngine,
)
from repro.crypto.gcm import gcm_decrypt, gcm_encrypt, ghash

__all__ = [
    "AES",
    "AeadBackend",
    "KeyedAead",
    "PureBackend",
    "CryptographyBackend",
    "IntegrityError",
    "default_backend",
    "gcm_encrypt",
    "gcm_decrypt",
    "ghash",
    "EncryptionEngine",
    "IV_SIZE",
    "MAC_SIZE",
    "KEY_SIZE",
    "SEAL_OVERHEAD",
]
