"""Sealed records: the one codec for what trusted code seals or reads back.

Paper §IV–V seals every mirrored buffer, PM data row and message that
leaves an enclave with AES-GCM (:mod:`repro.crypto.engine`).  This
module alone spells what surrounds the ciphertext: the AAD of a
``(domain, position)`` (:func:`aad`), the plain header layouts, the
record frames (parameter buffers, checkpoint records, data rows and
the dataset upload) and a mux session's traced seal/open path, one
record or one served batch at a time.  It charges no simulated time and
touches no device; docs/architecture.md ("Sealed records") tabulates
every domain and header.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crypto.backend import IntegrityError
from repro.crypto.engine import IV_SIZE, SEAL_OVERHEAD, Buffer, EncryptionEngine
from repro.faults import plan as faultplan
from repro.obs.context import TraceContext, current_trace, trace_scope

ROW = b""
FINAL_MODEL = b"final-model"
FED_PARAMS = b"fed-params|"
LINK_TENSOR = b"inter-enclave-tensor"
CHANNEL = b"plinius-secure-channel"
MUX = b"plinius-mux|"
#: Mux directions: they end the mux domain and key a session's nonces.
REQUEST, RESPONSE = b"req", b"rsp"


def aad(domain: bytes, *position: int) -> bytes:
    """``domain ‖ each position as an 8-byte big-endian word``."""
    for word in position:
        domain += word.to_bytes(8, "big")
    return domain


def seal(engine: EncryptionEngine, plaintext: Buffer, domain: bytes, *position: int) -> bytes:
    """Seal a message under ``(domain, position)``."""
    return engine.seal(plaintext, aad(domain, *position))


def unseal(engine: EncryptionEngine, sealed: Buffer, domain: bytes, *position: int) -> bytes:
    """Open a message sealed under ``(domain, position)``."""
    return engine.unseal(sealed, aad(domain, *position))


class Layout(struct.Struct):
    """A little-endian header layout with named fields."""

    def __init__(self, **fields: str) -> None:
        super().__init__("<" + "".join(fields.values()))
        self.fields = tuple(fields)


MODEL_HEADER = Layout(iteration="Q", num_layers="Q", head="Q")
LAYER_FIXED = Layout(next="Q", num_buffers="Q")
BUFFER_REF = Layout(sealed_size="Q", offset="Q")
FILE_HEADER = Layout(iteration="Q", num_buffers="Q")
BUF_HEADER = Layout(sealed_size="Q")
DATA_HEADER = Layout(
    rows="Q", features="Q", classes="Q", row_plain="Q", row_stored="Q",
    rows_offset="Q", encrypted="Q",
)
ROW_HEADER = Layout(rows="Q", features="Q", classes="Q")
REQUEST_HEADER = Layout(n_samples="Q", features="Q")
LEDGER_HEADER = Layout(count="Q", capacity="Q")
LEDGER_ENTRY = Layout(
    round="Q", n_clients="Q", merkle_root=f"{hashlib.sha256().digest_size}s",
    params_size="Q", params_offset="Q", leaves_size="Q", leaves_offset="Q",
)


def seal_param(
    engine: EncryptionEngine, plaintext: Buffer, out, name: str, iv: Optional[bytes] = None
) -> int:
    """Seal parameter buffer ``name`` into ``out``; returns its length."""
    return engine.seal_into(plaintext, out, name.encode(), iv)


def open_param(engine: EncryptionEngine, sealed: Buffer, layer, name: str, arr) -> None:
    """Open buffer ``name`` into ``arr`` when it is a float32, C-contiguous,
    writeable array of the record's size, else via ``layer.set_parameter``."""
    if (
        arr.dtype == np.float32
        and arr.flags.c_contiguous
        and arr.flags.writeable
        and arr.nbytes == len(sealed) - SEAL_OVERHEAD
    ):
        engine.unseal_from(sealed, memoryview(arr).cast("B"), name.encode())
    else:
        plain = engine.unseal(sealed, name.encode())
        layer.set_parameter(name, np.frombuffer(plain, dtype=np.float32))


def seal_frame(engine: EncryptionEngine, plaintext: Buffer, record, name: str, iv: bytes) -> int:
    """Write checkpoint record ``sealed length ‖ sealed`` at the start of
    ``record``; returns its size."""
    size = seal_param(engine, plaintext, record[BUF_HEADER.size :], name, iv)
    BUF_HEADER.pack_into(record, 0, size)
    return BUF_HEADER.size + size


def file_header(header: Buffer) -> Tuple[int, int]:
    """The iteration and buffer count a checkpoint file header claims;
    a file too short to hold one fails closed."""
    if len(header) != FILE_HEADER.size:
        raise IntegrityError(
            f"checkpoint file is shorter than its {FILE_HEADER.size}-byte header"
        )
    return FILE_HEADER.unpack(header)


def frame_length(header: Buffer, room: int) -> int:
    """The sealed length a checkpoint record header claims, checked to
    hold a sealed record within the ``room`` bytes left from the header."""
    if len(header) == BUF_HEADER.size:
        (length,) = BUF_HEADER.unpack(header)
        if SEAL_OVERHEAD <= length <= room - BUF_HEADER.size:
            return length
    raise IntegrityError(f"checkpoint record header does not fit the {room} bytes left")


def row_plaintext(x: np.ndarray, y: np.ndarray, i: int) -> bytes:
    """Data row ``i``: its float32 features, then its one-hot label."""
    return x[i].tobytes() + y[i].tobytes()


def split_row(row: Buffer, x: np.ndarray, y: np.ndarray, i: int) -> None:
    """Store a row's features into ``x[i]`` and its label into ``y[i]``."""
    flat = np.frombuffer(row, dtype=np.float32)
    x[i] = flat[: x.shape[1]]
    y[i] = flat[x.shape[1] :]


def seal_upload(engine: EncryptionEngine, x: np.ndarray, y: np.ndarray) -> bytes:
    """A dataset upload: ``ROW_HEADER`` followed by every sealed row."""
    blob = bytearray(ROW_HEADER.pack(len(x), x.shape[1], y.shape[1]))
    for i in range(len(x)):
        blob += seal(engine, row_plaintext(x, y, i), ROW)
    return bytes(blob)


def open_upload(engine: EncryptionEngine, blob: Buffer) -> Tuple[np.ndarray, np.ndarray]:
    """Open a dataset upload into ``(x, y)``, its untrusted header checked
    to account for exactly its length before anything is allocated."""
    if len(blob) < ROW_HEADER.size:
        raise IntegrityError(f"upload of {len(blob)} bytes has no header")
    rows, features, classes = ROW_HEADER.unpack_from(blob, 0)
    size = (features + classes) * 4 + SEAL_OVERHEAD
    if ROW_HEADER.size + rows * size != len(blob):
        raise IntegrityError(f"upload header claims {rows} rows of {size} bytes")
    x = np.empty((rows, features), dtype=np.float32)
    y = np.empty((rows, classes), dtype=np.float32)
    for i in range(rows):
        start = ROW_HEADER.size + i * size
        split_row(unseal(engine, blob[start : start + size], ROW), x, y, i)
    return x, y


class MuxRecords:
    """One mux session's records: domain ``MUX ‖ direction``, position
    ``(session, seq)``, the per-session prefix paid once.  Under an
    active trace context each seal and open runs in an
    ``sgx.session.*`` span pinned at the context's ``sim_now`` (the
    batch cost model charges the crypto at the batch level).

    :meth:`open_requests` and :meth:`seal_responses` handle a served
    batch, whose records may belong to several sessions.  With no trace
    context and no fault plan on, they call each session's bound AEAD
    directly and book every engine's stats once per batch;
    otherwise each record takes the traced single-record path, so the
    spans and the ``crypto.*`` fault-site hits are those of one call
    per record."""

    def __init__(self, engine: EncryptionEngine, session_id: int) -> None:
        self.engine = engine
        self.session_id = session_id
        self._prefix = {d: aad(MUX + d, session_id) for d in (REQUEST, RESPONSE)}

    def aad(self, direction: bytes, seq: int) -> bytes:
        return self._prefix[direction] + seq.to_bytes(8, "big")

    def seal(self, direction: bytes, seq: int, payload: Buffer, iv: bytes) -> bytes:
        return self._traced(
            "sgx.session.seal", direction, seq, len(payload),
            self.engine.seal, payload, self.aad(direction, seq), iv,
        )

    def unseal(self, direction: bytes, seq: int, sealed: Buffer) -> bytes:
        return self._traced(
            "sgx.session.open", direction, seq, len(sealed),
            self.engine.unseal, sealed, self.aad(direction, seq),
        )

    def unseal_from(self, direction: bytes, seq: int, sealed: Buffer, out) -> int:
        return self._traced(
            "sgx.session.open", direction, seq, len(sealed),
            self.engine.unseal_from, sealed, out, self.aad(direction, seq),
        )

    def _traced(self, name, direction, seq, nbytes, call, *args):
        ctx = current_trace()
        if ctx is None:
            return call(*args)
        args_ = {"bytes": nbytes, "direction": direction.decode("ascii"),
                 "seq": seq, "session": self.session_id}
        span = ctx.recorder.begin(
            name, ctx.sim_now, category="sgx", args=args_,
            parent=ctx.parent, trace_id=ctx.trace_id,
        )
        try:
            with trace_scope(ctx.child(span)):
                return call(*args)
        finally:
            ctx.recorder.end(span, ctx.sim_now)

    @staticmethod
    def open_requests(
        batch: Sequence[Tuple["MuxRecords", int, Buffer, int]], staging: memoryview,
        features: int, contexts: Contexts = None,
    ) -> Iterator[Tuple[int, Union[memoryview, Exception]]]:
        """Open each ``(records, seq, sealed, n_samples)`` request into
        ``staging`` and yield ``(index, samples)``: the float32 payload
        behind a ``REQUEST_HEADER`` that must claim ``(n_samples,
        features)``, valid until the next request is opened.  A request
        failing its MAC or its header yields its error instead.
        ``contexts`` holds each request's trace context, if any."""
        hooked, tally = _hooked(contexts), {}
        try:
            for i, (rec, seq, sealed, n) in enumerate(batch):
                plain = len(sealed) - SEAL_OVERHEAD
                try:
                    if hooked:
                        with _scope(contexts, i):
                            rec.unseal_from(REQUEST, seq, sealed, staging)
                    else:
                        iv, tag = sealed[plain : plain + IV_SIZE], sealed[plain + IV_SIZE :]
                        rec.engine._aead.decrypt_into(
                            iv, memoryview(sealed)[:plain], tag, staging, rec.aad(REQUEST, seq)
                        )
                        tally.setdefault(rec.engine, []).append(plain)
                    claimed = REQUEST_HEADER.unpack_from(staging, 0)
                    if claimed != (n, features):
                        raise ValueError(
                            f"request header claims {claimed[0]} samples of {claimed[1]} "
                            f"features; the payload holds {n} of the model's {features}"
                        )
                except (IntegrityError, ValueError) as exc:
                    yield i, exc
                else:
                    yield i, staging[REQUEST_HEADER.size : plain]
        finally:
            _book(tally, "unseals", "bytes_unsealed")

    @staticmethod
    def seal_responses(
        batch: Sequence[Tuple["MuxRecords", int, Buffer, bytes]], contexts: Contexts = None
    ) -> List[bytes]:
        """Seal each ``(records, seq, payload, iv)`` response."""
        hooked, tally, sealed = _hooked(contexts), {}, []
        for i, (rec, seq, payload, iv) in enumerate(batch):
            if hooked:
                with _scope(contexts, i):
                    sealed.append(rec.seal(RESPONSE, seq, payload, iv))
            else:
                ciphertext, tag = rec.engine._aead.encrypt(
                    iv, bytes(payload), rec.aad(RESPONSE, seq)
                )
                sealed.append(ciphertext + iv + tag)
                tally.setdefault(rec.engine, []).append(len(payload))
        _book(tally, "seals", "bytes_sealed")
        return sealed


#: Each record's trace context, if any, or ``None`` when untraced.
Contexts = Optional[Sequence[Optional[TraceContext]]]


def _hooked(contexts: Contexts) -> bool:
    """Whether a batch takes the single-record path: a trace context
    or a fault plan is on."""
    return contexts is not None or current_trace() is not None or faultplan.ACTIVE.enabled


def _scope(contexts: Contexts, i: int):
    ctx = None if contexts is None else contexts[i]
    return contextlib.nullcontext() if ctx is None else trace_scope(ctx)


def _book(tally: Dict[EncryptionEngine, List[int]], op: str, byte_op: str) -> None:
    """Book each engine's records of one batch in one stats update."""
    for engine, sizes in tally.items():
        engine._count(op, byte_op, sum(sizes), len(sizes))
