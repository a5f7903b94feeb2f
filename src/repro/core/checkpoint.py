"""The SSD checkpointing baseline (Section VI, Fig. 7 comparison).

"For SSD checkpointing, we use ocalls to fread and fwrite libC routines
to read/write from/to SSD.  After each call to fwrite, we flush the libC
buffers and issue an fsync, to ensure data is actually written."

The baseline encrypts exactly like the mirroring path (same AES-GCM
engine, same per-buffer granularity — the comparison isolates the
storage path), then serializes buffer-by-buffer through ocalls, paying:
boundary crossings per chunk, the enclave-to-DRAM copy, SSD bandwidth,
and an fsync per fwrite.  Restores pay fread ocalls, the DRAM-to-EPC
copy, and in-enclave decryption.

The two phases of each operation (encrypt then write, read then
decrypt) are how simulated time is booked, as Table I reports it.  The
wall-clock work runs one record at a time: ``save`` charges every
buffer's encryption and draws its IV in the encrypt phase, then seals
each buffer into one reusable record buffer just before it is written
and fsynced; ``restore``'s freads return readonly views of the file,
and each record is unsealed straight into its parameter array.  No
copy of the whole model is ever held besides the file itself.

Checkpoint file format: ``iter (u64) | nbuf (u64) | [size u64, sealed
bytes] * nbuf``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.mirror import MirrorTiming
from repro.crypto import records
from repro.crypto.engine import SEAL_OVERHEAD, Buffer, EncryptionEngine
from repro.crypto.records import BUF_HEADER, FILE_HEADER
from repro.darknet.network import Network
from repro.hw.ssd import BlockDevice
from repro.sgx.ecall import EnclaveRuntime
from repro.sgx.enclave import Enclave
from repro.simtime.profiles import ServerProfile

#: Bytes per ``ckpt_fwrite`` / ``ckpt_fread`` ocall.
_CHUNK_SIZE = 1 << 20

#: Bytes per parameter value: buffers are checkpointed as float32.
_VALUE_SIZE = np.dtype(np.float32).itemsize


class CheckpointError(RuntimeError):
    """Raised for missing or malformed checkpoints."""


class SsdCheckpoint:
    """Encrypt-and-checkpoint to an SSD file via ocalls."""

    def __init__(
        self,
        ssd: BlockDevice,
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

    def _ocall_fread(self, offset: int, length: int) -> memoryview:
        return self.ssd.read_view(self.path, offset, length)

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
        buffers = network.parameter_buffers()
        try:
            # Phase 1 — encrypt in the enclave (identical to mirror_out):
            # charged and given its IV per buffer; sealed in phase 2.
            with self.clock.stopwatch("ckpt.encrypt") as encrypt_span:
                ivs: List[bytes] = []
                for _, (_, arr) in buffers:
                    nbytes = arr.size * _VALUE_SIZE
                    self.enclave.touch(nbytes)
                    self.clock.advance(crypto.encrypt_time(nbytes))
                    ivs.append(self.engine.new_iv())

            # Phase 2 — serialize to SSD: fwrite + fsync per buffer.
            with self.clock.stopwatch("ckpt.write") as write_span:
                self.ssd.delete(self.path)
                header = FILE_HEADER.pack(iteration, len(buffers))
                self._fwrite_chunks(0, header)
                self.runtime.ocall("ckpt_fsync")
                offset = len(header)
                largest = max((arr.size for _, (_, arr) in buffers), default=0)
                record = memoryview(
                    bytearray(
                        BUF_HEADER.size + largest * _VALUE_SIZE + SEAL_OVERHEAD
                    )
                )
                for (_, (name, arr)), iv in zip(buffers, ivs):
                    plaintext = memoryview(
                        np.ascontiguousarray(arr, np.float32)
                    ).cast("B")
                    end = records.seal_frame(
                        self.engine, plaintext, record, name, iv
                    )
                    self._fwrite_chunks(offset, record[:end])
                    # "After each call to fwrite ... issue an fsync."
                    self.runtime.ocall("ckpt_fsync")
                    offset += end
        finally:
            if outer is not None:
                rec.end(outer, self.clock.now())
        return MirrorTiming(
            crypto_seconds=encrypt_span.elapsed,
            storage_seconds=write_span.elapsed,
        )

    def restore(self, network: Network) -> Tuple[int, MirrorTiming]:
        """fread + decrypt the model; returns (iteration, timings).

        A record that fails its GCM check raises
        :class:`~repro.crypto.backend.IntegrityError` and leaves the
        parameters garbage, as a failed ``mirror_in`` does: the buffers
        before it already hold the checkpoint's values, and the failing
        one may hold unauthenticated plaintext.
        """
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
                chunks = self._fread_chunks(0, size)

            # Phase 2 — decrypt into the model ("Decrypt").
            with self.clock.stopwatch("ckpt.decrypt") as decrypt_span:
                iteration, nbuf = FILE_HEADER.unpack(
                    _span(chunks, 0, FILE_HEADER.size)
                )
                offset = FILE_HEADER.size
                buffers = network.parameter_buffers()
                if nbuf != len(buffers):
                    raise CheckpointError(
                        f"checkpoint holds {nbuf} buffers, model has "
                        f"{len(buffers)} — architecture mismatch"
                    )
                for layer_idx, (name, arr) in buffers:
                    blen = records.frame_length(
                        _span(chunks, offset, BUF_HEADER.size), size - offset
                    )
                    offset += BUF_HEADER.size
                    sealed = _span(chunks, offset, blen)
                    offset += blen
                    self.clock.advance(crypto.decrypt_time(blen - SEAL_OVERHEAD))
                    records.open_param(
                        self.engine, sealed, network.layers[layer_idx], name, arr
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
    def _fwrite_chunks(self, offset: int, data: Buffer) -> None:
        for start in range(0, len(data), _CHUNK_SIZE):
            chunk = data[start : start + _CHUNK_SIZE]
            # Copy out of the EPC, cross the boundary, hit the page cache.
            self.enclave.copy_out(len(chunk))
            self.runtime.ocall("ckpt_fwrite", offset + start, chunk)

    def _fread_chunks(self, offset: int, length: int) -> List[memoryview]:
        chunks: List[memoryview] = []
        for start in range(0, length, _CHUNK_SIZE):
            n = min(_CHUNK_SIZE, length - start)
            chunks.append(self.runtime.ocall("ckpt_fread", offset + start, n))
            # Copy from untrusted DRAM into the EPC.
            self.enclave.copy_in(n)
        return chunks


def _span(chunks: List[memoryview], offset: int, length: int) -> Buffer:
    """Bytes ``[offset, offset + length)`` of what ``_fread_chunks``
    read, cut short at its end: a view when one chunk holds them, else
    one joined copy."""
    index, start = divmod(offset, _CHUNK_SIZE)
    pieces: List[memoryview] = []
    while length > 0 and index < len(chunks):
        piece = chunks[index][start : start + length]
        pieces.append(piece)
        length -= len(piece)
        index, start = index + 1, 0
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)
