"""Secure inference serving (extension of Section VI, "Secure inference").

The paper demonstrates in-enclave classification of the MNIST test set;
related work it cites (Chiron, Privado, Occlumency) wraps exactly this
in an *inference-as-a-service* interface.  This module provides that
service shape on top of the Plinius stack:

* the model is loaded into the enclave from its encrypted PM mirror;
* a client remote-attests the enclave, establishes a multiplexed
  :class:`~repro.sgx.attestation.InferenceSession`, and submits
  AES-GCM-sealed inputs;
* predictions return sealed under the same session; the server never
  sees plaintext images or labels.

Session state (``open_session``/``install_session``) is what the
replicated gateway (:mod:`repro.serving`) provisions to every replica,
so any of them can answer any request (``handle_batch``; one request is
a batch of one) with byte-identical output.
"""

from __future__ import annotations

import contextlib
import struct
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mirror import MirrorModule
from repro.core.models import MNIST_INPUT_SHAPE
from repro.crypto.engine import SEAL_OVERHEAD
from repro.darknet.arena import TensorArena
from repro.darknet.network import Network
from repro.obs.context import TraceContext, trace_scope
from repro.sgx.attestation import (
    InferenceSession,
    QuotingEnclave,
    establish_mux_session,
)
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom

_REQUEST = struct.Struct("<QQ")  # n_samples, features

#: One sealed request routed through the gateway:
#: ``(session_id, seq, sealed_bytes)``.
BatchItem = Tuple[int, int, bytes]


@dataclass
class InferenceStats:
    """Service-side accounting.

    Mutated only under the owning service's lock: the gateway dispatches
    batches to replicas from its scheduler while sessions are opened
    concurrently, so bare dataclass increments would race.
    """

    requests: int = 0
    samples: int = 0
    batches: int = 0


class SecureInferenceService:
    """An enclave-hosted classifier behind an attested channel."""

    #: Shape of one served sample.
    input_shape = MNIST_INPUT_SHAPE

    def __init__(
        self,
        network: Network,
        enclave: Enclave,
        quoting_enclave: QuotingEnclave,
        mirror: Optional[MirrorModule] = None,
    ) -> None:
        self.network = network
        self.enclave = enclave
        self.quoting_enclave = quoting_enclave
        self.mirror = mirror
        self.stats = InferenceStats()
        self._lock = threading.Lock()
        self._sessions: Dict[int, InferenceSession] = {}
        #: Preallocated buffers for the batched serve path: request
        #: staging, the stacked input tensor, every layer activation,
        #: and the prediction vector.  Sized on first use, reused on
        #: every subsequent batch — steady state allocates nothing.
        self._arena = TensorArena()

    @classmethod
    def from_mirror(
        cls,
        mirror: MirrorModule,
        network: Network,
        enclave: Enclave,
        quoting_enclave: QuotingEnclave,
    ) -> "SecureInferenceService":
        """Load the served model from its encrypted PM mirror."""
        mirror.mirror_in(network)
        return cls(network, enclave, quoting_enclave, mirror=mirror)

    # ------------------------------------------------------------------
    def _record(self, requests: int, samples: int) -> None:
        """Lock-protected stats for one batch, mirrored into ``serve.*``."""
        with self._lock:
            self.stats.requests += requests
            self.stats.samples += samples
            self.stats.batches += 1
        recorder = self.enclave.clock.recorder
        if recorder.enabled:
            recorder.count("serve.requests", requests)
            recorder.count("serve.samples", samples)
            recorder.count("serve.batches", 1)

    # ------------------------------------------------------------------
    def open_session(
        self, client: "InferenceClient", session_id: int
    ) -> InferenceSession:
        """Attest and establish a multiplexed session with ``client``.

        The in-enclave step of session setup: the DH randomness comes
        from the enclave DRNG, seeded by the session id so session keys
        are deterministic per deployment but unique per session.
        Returns the enclave-side session (for provisioning to peer
        replicas via :meth:`install_session`).
        """
        owner_session, enclave_session = establish_mux_session(
            self.enclave,
            self.quoting_enclave,
            expected_measurement=client.expected_measurement,
            rand_enclave=SgxRandom(
                b"svc-sess-" + session_id.to_bytes(8, "big")
            ),
            rand_owner=client.rand,
            session_id=session_id,
        )
        self.install_session(enclave_session)
        client.attach_session(owner_session)
        return enclave_session

    def install_session(self, session: InferenceSession) -> None:
        """Provision session state attested by a peer replica."""
        recorder = self.enclave.clock.recorder
        if recorder.enabled and session.engine.observer is not recorder:
            # Wire the session's crypto engine to this replica's
            # recorder so its seal/unseal leaf spans and byte counters
            # land in the same trace as the serve.* spans above them.
            session.engine.observer = recorder
        with self._lock:
            self._sessions[session.session_id] = session

    def _session(self, session_id: int) -> InferenceSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(
                f"no session {session_id} provisioned on this replica"
            )
        return session

    def handle_batch(
        self,
        items: Sequence[BatchItem],
        traces: Optional[Sequence[object]] = None,
    ) -> List[bytes]:
        """Classify a coalesced batch of sealed requests in one entry.

        ``traces`` (optional, same length as ``items``) carries each
        request's parent span from the gateway's causal tree; when
        present, the per-request session open/seal work is wrapped in a
        :func:`~repro.obs.context.trace_scope` so the SGX-session and
        crypto-engine leaf spans attach under the right request.

        Three phases, each a ``serve.*`` span:

        * **stack** — every sealed request is decrypted straight into an
          arena staging buffer (:meth:`InferenceSession.open_request_into`,
          no intermediate ``bytes``) and its samples land in one stacked
          ``(N, C, H, W)`` tensor;
        * **forward** — one batched pass (:meth:`Network.infer`): one
          im2col and one GEMM call per conv layer, one GEMM per
          connected layer, all operands arena-owned;
        * **scatter** — per-request slices of the prediction vector are
          sealed in arrival order, each straight from the output buffer.

        Responses are sealed under each request's own session with the
        nonce derived from ``(session, seq)``, and the batched kernels
        are bitwise-identical per sample to the sequential forward, so
        the returned bytes are independent of how the gateway split
        requests into batches and of which replica ran the batch —
        exactly the bytes the sequential seed service would have
        produced.
        """
        if not items:
            return []
        recorder = self.enclave.clock.recorder
        clock = self.enclave.clock
        arena = self._arena
        hits0, misses0 = arena.stats.hits, arena.stats.misses

        def span(name: str):
            if recorder.enabled:
                return recorder.span(name, clock, category="serve")
            return contextlib.nullcontext()

        def request_scope(i: int):
            """Trace context for item ``i``'s session crypto, if any."""
            parent = traces[i] if traces is not None else None
            if parent is None or not recorder.enabled:
                return contextlib.nullcontext()
            return trace_scope(
                TraceContext(
                    getattr(parent, "trace_id", None),
                    recorder,
                    parent,
                    clock.now(),
                )
            )

        features = int(np.prod(self.input_shape))
        header = _REQUEST.size
        sample_bytes = features * 4  # float32 payload

        with span("serve.stack"):
            # Plaintext sizes are sealed sizes minus the AEAD overhead,
            # so the batch tensor is sized before any decryption.
            sessions = []
            counts = []
            total = 0
            max_plain = 0
            for session_id, _seq, sealed in items:
                plain = len(sealed) - SEAL_OVERHEAD
                n, rem = divmod(plain - header, sample_bytes)
                if plain < header or rem or n < 0:
                    raise ValueError(
                        f"sealed request of {len(sealed)} bytes does not "
                        f"hold whole {features}-feature samples"
                    )
                sessions.append(self._session(session_id))
                counts.append(n)
                total += n
                max_plain = max(max_plain, plain)

            x = arena.take("serve.x", (total,) + tuple(self.input_shape))
            flat = x.reshape(total, features)
            staging = arena.take("serve.staging", (max_plain,), np.uint8)
            offset = 0
            for i, ((_, seq, sealed), session, n) in enumerate(
                zip(items, sessions, counts)
            ):
                plain = len(sealed) - SEAL_OVERHEAD
                buf = staging[:plain]
                with request_scope(i):
                    session.open_request_into(seq, sealed, buf.data)
                got_n, got_features = _REQUEST.unpack_from(buf.data, 0)
                if got_features != features:
                    raise ValueError(
                        f"request has {got_features} features; "
                        f"model expects {features}"
                    )
                if got_n != n:
                    raise ValueError(
                        f"request header claims {got_n} samples, "
                        f"payload holds {n}"
                    )
                flat[offset : offset + n] = (
                    buf[header : header + n * sample_bytes]
                    .view(np.float32)
                    .reshape(n, features)
                )
                offset += n

        with span("serve.forward"):
            predictions = arena.take("serve.preds", (total,), np.int64)
            if total:
                probs = self.network.infer(x, arena)
                np.argmax(probs, axis=1, out=predictions)

        with span("serve.scatter"):
            responses: List[bytes] = []
            offset = 0
            for i, ((_, seq, _), session, n) in enumerate(
                zip(items, sessions, counts)
            ):
                payload = predictions[offset : offset + n].view(np.uint8)
                with request_scope(i):
                    responses.append(session.seal_response(seq, payload.data))
                offset += n

        self._record(requests=len(items), samples=total)
        if recorder.enabled:
            recorder.count("arena.hit", arena.stats.hits - hits0)
            recorder.count("arena.miss", arena.stats.misses - misses0)
            recorder.gauge("arena.bytes", arena.stats.bytes_allocated)
        return responses


class InferenceClient:
    """The data owner's side of the inference service."""

    def __init__(
        self, expected_measurement: bytes, seed: int = 1
    ) -> None:
        self.expected_measurement = expected_measurement
        self.rand = SgxRandom(b"client-" + seed.to_bytes(4, "big"))
        self._session: Optional[InferenceSession] = None
        self._next_seq = 0

    def attach_session(self, session: InferenceSession) -> None:
        self._session = session

    @property
    def session_id(self) -> int:
        if self._session is None:
            raise RuntimeError("client has no multiplexed session")
        return self._session.session_id

    @staticmethod
    def _payload(images: np.ndarray) -> bytes:
        flat = np.ascontiguousarray(
            images.reshape(len(images), -1), dtype=np.float32
        )
        return _REQUEST.pack(len(flat), flat.shape[1]) + flat.tobytes()

    def seal_request_seq(self, images: np.ndarray) -> Tuple[int, bytes]:
        """Seal a request under the mux session; returns ``(seq, bytes)``.

        The sequence number is allocated exactly once per request: it
        pins the response nonce, so a redispatched request yields the
        same sealed reply rather than a second distinguishable one.
        """
        if self._session is None:
            raise RuntimeError("client has no multiplexed session")
        seq = self._next_seq
        self._next_seq += 1
        return seq, self._session.seal_request(seq, self._payload(images))

    def open_response_seq(self, seq: int, sealed: bytes) -> np.ndarray:
        """Unseal the reply to request ``seq`` of this session."""
        if self._session is None:
            raise RuntimeError("client has no multiplexed session")
        return np.frombuffer(
            self._session.open_response(seq, sealed), dtype=np.int64
        )
