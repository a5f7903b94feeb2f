"""The Plinius encryption engine and sealed-buffer format.

Per the paper (Section IV, "Mirroring module"): every plaintext buffer is
encrypted with AES-GCM under a 128-bit key; a fresh random 12-byte IV is
generated per encryption with ``sgx_read_rand``; the IV and the 16-byte
MAC are appended to the encrypted buffer.  That gives exactly 28 bytes of
metadata per sealed buffer — the paper's "CPU and memory overhead"
section counts 140 B of PM metadata per layer from 5 buffers/layer.

Sealed layout: ``ciphertext ‖ IV (12 B) ‖ MAC (16 B)``.

Two pairs of entry points, one per kind of caller:

* :meth:`EncryptionEngine.seal` / :meth:`EncryptionEngine.unseal` —
  for *messages* (8 B – 16 KB: session requests and responses, dataset
  rows, ledger entries).  They take and return ``bytes``; at these
  sizes a copy costs nanoseconds and the fixed cost per call is what
  matters.
* :meth:`EncryptionEngine.seal_into` / :meth:`EncryptionEngine.unseal_from`
  — for *bulk buffers* (multi-MB layer parameters).  They write
  ciphertext/plaintext directly into a caller-provided writable buffer
  (a ``memoryview`` over a PM staging area or a live numpy parameter
  array), because there every intermediate ``bytes`` is a full extra
  pass over memory, which is what bounds the mirroring hot path.  The
  batched serve path also opens requests with ``unseal_from``, straight
  into its arena staging buffer.

All four run on one keyed AEAD context that the engine binds from its
backend at construction (:meth:`~repro.crypto.backend.AeadBackend.bind`)
and drops with itself: the per-key setup is never paid per message, and
no key outlives its engine in a process-wide cache.

Every entry point accepts an explicit ``iv``: inference sessions pass
nonces derived from the session key and message counter, and the NIST
vector tests pin one.  Without it the engine draws the IV from its
random source inside the call.  Stats counters are guarded by a lock so
a program that shares one engine across threads never drops updates.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Optional, Union

from repro.crypto.backend import AeadBackend, default_backend
from repro.faults import plan as faultplan
from repro.obs.context import current_trace
from repro.obs.recorder import NULL_RECORDER

KEY_SIZE = 16  # bytes; "PLINIUS uses a 128 bit key for all operations"
IV_SIZE = 12
MAC_SIZE = 16
SEAL_OVERHEAD = IV_SIZE + MAC_SIZE  # 28 bytes per sealed buffer

RandomSource = Callable[[int], bytes]

Buffer = Union[bytes, bytearray, memoryview]


class EncryptionEngine:
    """Seals and unseals buffers under one AES-GCM key.

    Parameters
    ----------
    key:
        16-byte AES key (provisioned via remote attestation, generated
        with ``sgx_read_rand``, or unsealed from storage).
    rand:
        Random source used for IV generation; defaults to ``os.urandom``.
        Experiments inject the deterministic
        :class:`repro.sgx.rand.SgxRandom` here for reproducibility.
    backend:
        AEAD backend; defaults to the fastest available.
    observer:
        Trace recorder whose ``crypto.*`` counters (``crypto.seals``,
        ``crypto.bytes_sealed``, ...) read this engine's ``stats``, and
        under whose request traces a call pins its leaf span; defaults
        to the null recorder.
    """

    #: stats key -> the trace counter read from it.
    _COUNTER_NAMES = {
        "seals": "crypto.seals",
        "unseals": "crypto.unseals",
        "bytes_sealed": "crypto.bytes_sealed",
        "bytes_unsealed": "crypto.bytes_unsealed",
    }

    #: stats key -> request-plane leaf span name.
    _SPAN_NAMES = {"seals": "crypto.seal", "unseals": "crypto.unseal"}

    def __init__(
        self,
        key: bytes,
        rand: Optional[RandomSource] = None,
        backend: Optional[AeadBackend] = None,
        observer=NULL_RECORDER,
    ) -> None:
        if len(key) != KEY_SIZE:
            raise ValueError(
                f"Plinius uses {8 * KEY_SIZE}-bit keys; got {len(key)} bytes"
            )
        self.key = bytes(key)
        self._rand = rand if rand is not None else os.urandom  # repro: noqa[DET001] -- GCM IVs must come from real entropy in production; tests inject a counter source
        self.backend = backend if backend is not None else default_backend()
        self._aead = self.backend.bind(self.key)
        self._stats_lock = threading.Lock()
        self.stats = {"seals": 0, "unseals": 0, "bytes_sealed": 0, "bytes_unsealed": 0}
        self.attach(observer if observer is not None else NULL_RECORDER)

    def attach(self, observer) -> None:
        """Report to ``observer``: it reads this engine's stats as its
        ``crypto.*`` counters from now on."""
        self.observer = observer
        observer.register(self.stats, self._COUNTER_NAMES)

    @classmethod
    def generate_key(cls, rand: Optional[RandomSource] = None) -> bytes:
        """Generate a fresh 128-bit key (in-enclave path of Section IV)."""
        source = rand if rand is not None else os.urandom  # repro: noqa[DET001] -- key generation requires real entropy outside tests
        return source(KEY_SIZE)

    def new_iv(self) -> bytes:
        """Draw a fresh 12-byte IV from the engine's random source."""
        iv = self._rand(IV_SIZE)
        if len(iv) != IV_SIZE:
            raise ValueError(f"random source produced {len(iv)} bytes, not {IV_SIZE}")
        return iv

    def _count(self, op: str, byte_op: str, nbytes: int, calls: int = 1) -> None:
        with self._stats_lock:
            self.stats[op] += calls
            self.stats[byte_op] += nbytes
        if self.observer.enabled:
            # Request-plane leaf: when a causal trace context is active
            # (the batched serve path), pin a zero-width crypto span
            # under the request's sgx.session span so the tree reaches
            # all the way down to the AEAD call.  Untraced paths pay one
            # thread-local read.
            ctx = current_trace()
            if ctx is not None:
                recorder = ctx.recorder
                wall = recorder.wall_now()
                recorder.complete(
                    self._SPAN_NAMES[op],
                    sim_start=ctx.sim_now,
                    sim_end=ctx.sim_now,
                    wall_start=wall,
                    wall_end=wall,
                    category="crypto",
                    args={"bytes": nbytes},
                    parent=ctx.parent,
                    trace_id=ctx.trace_id,
                )

    def seal(
        self, plaintext: Buffer, aad: bytes = b"", iv: Optional[bytes] = None
    ) -> bytes:
        """Encrypt ``plaintext``; returns ``ciphertext ‖ IV ‖ MAC``."""
        iv = self.new_iv() if iv is None else iv
        active = faultplan.ACTIVE
        if active.enabled:
            active.mutate("crypto.seal", iv)
        ciphertext, tag = self._aead.encrypt(iv, bytes(plaintext), aad)
        self._count("seals", "bytes_sealed", len(plaintext))
        return ciphertext + iv + tag

    def seal_into(
        self,
        plaintext: Buffer,
        out: Union[bytearray, memoryview],
        aad: bytes = b"",
        iv: Optional[bytes] = None,
    ) -> int:
        """Seal ``plaintext`` directly into ``out``; returns bytes written.

        ``out`` must be a writable buffer of at least
        ``sealed_size(len(plaintext))`` bytes; the sealed record
        (``ciphertext ‖ IV ‖ MAC``) is written at its start with no
        intermediate allocations on backends that support it.
        """
        n = len(plaintext)
        sealed_size = n + SEAL_OVERHEAD
        view = memoryview(out)
        if len(view) < sealed_size:
            raise ValueError(
                f"output buffer holds {len(view)} bytes, "
                f"sealed record needs {sealed_size}"
            )
        iv = self.new_iv() if iv is None else iv
        active = faultplan.ACTIVE
        if active.enabled:
            active.mutate("crypto.seal", iv)
        tag = self._aead.encrypt_into(iv, plaintext, view, aad)
        view[n : n + IV_SIZE] = iv
        view[n + IV_SIZE : sealed_size] = tag
        self._count("seals", "bytes_sealed", n)
        return sealed_size

    def unseal(self, sealed: Buffer, aad: bytes = b"") -> bytes:
        """Decrypt a sealed buffer; raises
        :class:`~repro.crypto.backend.IntegrityError` if tampered."""
        sealed = bytes(sealed)
        if len(sealed) < SEAL_OVERHEAD:
            raise ValueError(
                f"sealed buffer too short: {len(sealed)} < {SEAL_OVERHEAD}"
            )
        active = faultplan.ACTIVE
        if active.enabled:
            tampered = active.mutate("crypto.unseal", sealed)
            if tampered is not None:
                sealed = tampered
        ciphertext = sealed[:-SEAL_OVERHEAD]
        iv = sealed[-SEAL_OVERHEAD:-MAC_SIZE]
        tag = sealed[-MAC_SIZE:]
        plaintext = self._aead.decrypt(iv, ciphertext, tag, aad)
        self._count("unseals", "bytes_unsealed", len(plaintext))
        return plaintext

    def unseal_from(
        self,
        sealed: Buffer,
        out: Union[bytearray, memoryview],
        aad: bytes = b"",
    ) -> int:
        """Decrypt a sealed record directly into ``out``; returns bytes.

        ``out`` must be writable and exactly as large as the plaintext
        (``len(sealed) - SEAL_OVERHEAD``) or larger.  GCM caveat: on an
        :class:`~repro.crypto.backend.IntegrityError` the buffer already
        holds unauthenticated garbage — callers must discard it.
        """
        view = memoryview(sealed)
        if len(view) < SEAL_OVERHEAD:
            raise ValueError(
                f"sealed buffer too short: {len(view)} < {SEAL_OVERHEAD}"
            )
        active = faultplan.ACTIVE
        if active.enabled:
            tampered = active.mutate("crypto.unseal", bytes(view))
            if tampered is not None:
                view = memoryview(tampered)
        n = len(view) - SEAL_OVERHEAD
        iv = bytes(view[n : n + IV_SIZE])
        tag = bytes(view[n + IV_SIZE :])
        out_view = memoryview(out)
        if len(out_view) < n:
            raise ValueError(
                f"output buffer holds {len(out_view)} bytes, plaintext is {n}"
            )
        self._aead.decrypt_into(iv, view[:n], tag, out_view, aad)
        self._count("unseals", "bytes_unsealed", n)
        return n

    @staticmethod
    def sealed_size(plaintext_size: int) -> int:
        """Size on PM of a sealed buffer for ``plaintext_size`` bytes."""
        return plaintext_size + SEAL_OVERHEAD
