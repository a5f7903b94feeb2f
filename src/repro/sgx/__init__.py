"""Simulated Intel SGX.

Real enclave isolation cannot be expressed in Python; what this package
preserves are the *observable behaviours* Plinius depends on:

* :class:`Enclave` — EPC budget accounting (93.5 MB usable), trusted heap
  allocation, paging cost beyond the EPC limit (the cause of every shaded
  row in Table I), MEE-taxed copies across the boundary.
* :class:`EnclaveRuntime` — ecall/ocall dispatch with per-crossing cost
  (13,100 cycles [39]), the mechanism that makes the SSD baseline's
  chunked ``fread``/``fwrite`` ocalls expensive.
* :mod:`repro.sgx.sealing` — sealing keys bound to the enclave
  measurement, used to persist the data-encryption key.
* :mod:`repro.sgx.attestation` — quote generation/verification plus a
  DH-secured channel for key provisioning (the Fig. 5 workflow).
* :class:`SgxRandom` — deterministic CSPRNG standing in for the SDK's
  hardware randomness (``sgx_read_rand``).
"""

from repro.sgx.rand import SgxRandom
from repro.sgx.enclave import Enclave, EnclaveMemoryError
from repro.sgx.ecall import EnclaveRuntime, EnclaveCallError
from repro.sgx.sealing import SealedBlob, seal_data, unseal_data
from repro.sgx.attestation import (
    AttestationError,
    Quote,
    QuotingEnclave,
    SecureChannel,
    establish_channel,
)

__all__ = [
    "SgxRandom",
    "Enclave",
    "EnclaveMemoryError",
    "EnclaveRuntime",
    "EnclaveCallError",
    "SealedBlob",
    "seal_data",
    "unseal_data",
    "Quote",
    "QuotingEnclave",
    "SecureChannel",
    "AttestationError",
    "establish_channel",
]
