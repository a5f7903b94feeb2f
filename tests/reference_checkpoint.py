"""Frozen SSD checkpoint: the two-phase ``SsdCheckpoint`` as it stood
when ``save`` sealed the whole model into a list of ``bytes`` before
writing it, and ``restore`` read the whole file into one ``bytes``
before decrypting it.  Kept verbatim as the oracle the current
record-at-a-time checkpoint is held to (``tests/test_core_checkpoint.py``):
the same file bytes and the same simulated phase times.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointError
from repro.core.mirror import MirrorTiming
from repro.crypto.engine import SEAL_OVERHEAD, EncryptionEngine
from repro.darknet.network import Network
from repro.sgx.ecall import EnclaveRuntime
from repro.sgx.enclave import Enclave
from repro.simtime.profiles import ServerProfile
from tests.reference_ssd import ReferenceBlockDevice

_FILE_HEADER = struct.Struct("<QQ")
_BUF_HEADER = struct.Struct("<Q")

#: Bytes per ``ckpt_fwrite`` / ``ckpt_fread`` ocall.
_CHUNK_SIZE = 1 << 20


class ReferenceSsdCheckpoint:
    """Encrypt-and-checkpoint to an SSD file via ocalls."""

    def __init__(
        self,
        ssd: ReferenceBlockDevice,
        engine: EncryptionEngine,
        enclave: Enclave,
        runtime: EnclaveRuntime,
        profile: ServerProfile,
        path: str = "model.ckpt",
    ) -> None:
        self.ssd = ssd
        self.engine = engine
        self.enclave = enclave
        self.runtime = runtime
        self.profile = profile
        self.path = path
        self.clock = enclave.clock
        runtime.register_ocall("ckpt_fwrite", self._ocall_fwrite)
        runtime.register_ocall("ckpt_fread", self._ocall_fread)
        runtime.register_ocall("ckpt_fsync", self._ocall_fsync)

    # ------------------------------------------------------------------
    # Untrusted helpers (the sgx-darknet-helper side)
    # ------------------------------------------------------------------
    def _ocall_fwrite(self, offset: int, data: bytes) -> None:
        self.ssd.write(self.path, offset, data)

    def _ocall_fread(self, offset: int, length: int) -> bytes:
        return self.ssd.read(self.path, offset, length)

    def _ocall_fsync(self) -> None:
        self.ssd.fsync(self.path)

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether a checkpoint file is present on the SSD."""
        return self.ssd.exists(self.path)

    def save(self, network: Network, iteration: int) -> MirrorTiming:
        """Encrypt and fwrite+fsync the model; returns phase timings."""
        crypto = self.profile.crypto
        rec = self.clock.recorder
        outer = (
            rec.begin(
                "ckpt.save",
                self.clock.now(),
                category="ckpt",
                args={"iteration": iteration},
            )
            if rec.enabled
            else None
        )
        try:
            # Phase 1 — encrypt in the enclave (identical to mirror_out).
            with self.clock.stopwatch("ckpt.encrypt") as encrypt_span:
                sealed: List[bytes] = []
                for _, (name, arr) in network.parameter_buffers():
                    plaintext = np.ascontiguousarray(arr, np.float32).tobytes()
                    self.enclave.touch(len(plaintext))
                    self.clock.advance(crypto.encrypt_time(len(plaintext)))
                    sealed.append(
                        self.engine.seal(plaintext, aad=name.encode())
                    )

            # Phase 2 — serialize to SSD: fwrite + fsync per buffer.
            with self.clock.stopwatch("ckpt.write") as write_span:
                self.ssd.delete(self.path)
                header = _FILE_HEADER.pack(iteration, len(sealed))
                self._fwrite_chunks(0, header)
                self.runtime.ocall("ckpt_fsync")
                offset = len(header)
                for blob in sealed:
                    record = _BUF_HEADER.pack(len(blob)) + blob
                    self._fwrite_chunks(offset, record)
                    # "After each call to fwrite ... issue an fsync."
                    self.runtime.ocall("ckpt_fsync")
                    offset += len(record)
        finally:
            if outer is not None:
                rec.end(outer, self.clock.now())
        return MirrorTiming(
            crypto_seconds=encrypt_span.elapsed,
            storage_seconds=write_span.elapsed,
        )

    def restore(self, network: Network) -> Tuple[int, MirrorTiming]:
        """fread + decrypt the model; returns (iteration, timings)."""
        if not self.exists():
            raise CheckpointError(f"no checkpoint at {self.path!r}")
        crypto = self.profile.crypto
        rec = self.clock.recorder
        outer = (
            rec.begin("ckpt.restore", self.clock.now(), category="ckpt")
            if rec.enabled
            else None
        )
        try:
            # Phase 1 — fread everything into the enclave ("Read").
            with self.clock.stopwatch("ckpt.read") as read_span:
                size = self.ssd.file_size(self.path)
                blob = self._fread_chunks(0, size)

            # Phase 2 — decrypt into the model ("Decrypt").
            with self.clock.stopwatch("ckpt.decrypt") as decrypt_span:
                iteration, nbuf = _FILE_HEADER.unpack_from(blob, 0)
                offset = _FILE_HEADER.size
                buffers = network.parameter_buffers()
                if nbuf != len(buffers):
                    raise CheckpointError(
                        f"checkpoint holds {nbuf} buffers, model has "
                        f"{len(buffers)} — architecture mismatch"
                    )
                for layer_idx, (name, arr) in buffers:
                    (blen,) = _BUF_HEADER.unpack_from(blob, offset)
                    offset += _BUF_HEADER.size
                    sealed = blob[offset : offset + blen]
                    offset += blen
                    self.clock.advance(
                        crypto.decrypt_time(blen - SEAL_OVERHEAD)
                    )
                    plaintext = self.engine.unseal(sealed, aad=name.encode())
                    network.layers[layer_idx].set_parameter(
                        name, np.frombuffer(plaintext, dtype=np.float32)
                    )
        finally:
            if outer is not None:
                rec.end(outer, self.clock.now())
        network.iteration = iteration
        return iteration, MirrorTiming(
            crypto_seconds=decrypt_span.elapsed,
            storage_seconds=read_span.elapsed,
        )

    # ------------------------------------------------------------------
    def _fwrite_chunks(self, offset: int, data: bytes) -> None:
        for start in range(0, len(data), _CHUNK_SIZE):
            chunk = data[start : start + _CHUNK_SIZE]
            # Copy out of the EPC, cross the boundary, hit the page cache.
            self.enclave.copy_out(len(chunk))
            self.runtime.ocall("ckpt_fwrite", offset + start, chunk)

    def _fread_chunks(self, offset: int, length: int) -> bytes:
        parts: List[bytes] = []
        for start in range(0, length, _CHUNK_SIZE):
            n = min(_CHUNK_SIZE, length - start)
            parts.append(self.runtime.ocall("ckpt_fread", offset + start, n))
            # Copy from untrusted DRAM into the EPC.
            self.enclave.copy_in(n)
        return b"".join(parts)
