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
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mirror import MirrorModule
from repro.core.models import MNIST_INPUT_SHAPE
from repro.crypto.engine import SEAL_OVERHEAD
from repro.crypto.records import REQUEST_HEADER, RESPONSE, MuxRecords
from repro.darknet.arena import TensorArena
from repro.darknet.network import Network
from repro.obs.context import TraceContext
from repro.sgx.attestation import (
    InferenceSession,
    QuotingEnclave,
    establish_mux_session,
)
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom

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
        self._features = int(np.prod(self.input_shape))
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

    def handle_batch(
        self,
        items: Sequence[BatchItem],
        traces: Optional[Sequence[object]] = None,
    ) -> List[Union[bytes, Exception]]:
        """Classify a coalesced batch of sealed requests in one entry.

        Returns one entry per item: the sealed response, or the typed
        error that refused that request alone — ``ValueError`` for a
        size or header that does not hold whole samples of the model's
        shape, ``KeyError`` for a session not provisioned here,
        :class:`~repro.crypto.backend.IntegrityError` for a failed MAC.
        The other requests are served as if it had not been sent.

        ``traces`` (optional, same length as ``items``) carries each
        request's parent span from the gateway's causal tree; when
        present, the per-request session open/seal work runs under a
        :class:`~repro.obs.context.TraceContext` so the SGX-session and
        crypto-engine leaf spans attach under the right request.

        Three phases, each a ``serve.*`` span:

        * **stack** — sizes are checked and sessions looked up in one
          pass under the lock; every sealed request is then decrypted
          into an arena staging buffer
          (:meth:`~repro.crypto.records.MuxRecords.open_requests`) and
          its samples land in one stacked ``(N, C, H, W)`` tensor;
        * **forward** — one batched pass (:meth:`Network.infer`): one
          im2col and one GEMM call per conv layer, one GEMM per
          connected layer, all operands arena-owned;
        * **scatter** — per-request slices of the prediction vector are
          sealed in arrival order
          (:meth:`~repro.crypto.records.MuxRecords.seal_responses`).

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
        features, sample_bytes = self._features, 4 * self._features
        header = REQUEST_HEADER.size

        def span(name: str):
            if recorder.enabled:
                return recorder.span(name, clock, category="serve")
            return contextlib.nullcontext()

        outcomes: List[Union[bytes, Exception]] = [b""] * len(items)
        with span("serve.stack"):
            # Plaintext sizes are sealed sizes minus the AEAD overhead,
            # so the batch tensor is sized before any decryption.
            accepted, batch = [], []
            total = max_plain = 0
            with self._lock:
                for i, (session_id, seq, sealed) in enumerate(items):
                    plain = len(sealed) - SEAL_OVERHEAD
                    n, rem = divmod(plain - header, sample_bytes)
                    session = self._sessions.get(session_id)
                    if plain < header or rem or n < 0:
                        outcomes[i] = ValueError(
                            f"sealed request of {len(sealed)} bytes does not "
                            f"hold whole {features}-feature samples"
                        )
                    elif session is None:
                        outcomes[i] = KeyError(
                            f"no session {session_id} provisioned on this replica"
                        )
                    else:
                        accepted.append(i)
                        batch.append((session, seq, sealed, n))
                        total += n
                        max_plain = max(max_plain, plain)

            contexts = None
            if traces is not None and recorder.enabled:
                now = clock.now()
                contexts = [
                    None if traces[i] is None else TraceContext(
                        getattr(traces[i], "trace_id", None), recorder, traces[i], now
                    )
                    for i in accepted
                ]
            x = arena.take("serve.x", (total,) + tuple(self.input_shape))
            rows = x.reshape(-1).view(np.uint8).data
            staging = arena.take("serve.staging", (max_plain,), np.uint8)
            served, landed = [], 0
            for j, samples in MuxRecords.open_requests(
                batch, staging.data, features, contexts
            ):
                if isinstance(samples, Exception):
                    outcomes[accepted[j]] = samples
                    continue
                rows[landed : landed + len(samples)] = samples
                landed += len(samples)
                served.append(j)
            got = landed // sample_bytes

        with span("serve.forward"):
            predictions = arena.take("serve.preds", (total,), np.int64)
            if got < total:
                x, predictions = x[:got], predictions[:got]
            if got:
                probs = self.network.infer(x, arena)
                np.argmax(probs, axis=1, out=predictions)

        with span("serve.scatter"):
            labels = predictions.view(np.uint8).data
            replies, offset = [], 0
            for j in served:
                session, seq, _, n = batch[j]
                replies.append((
                    session, seq, labels[offset : offset + 8 * n],
                    session._iv(RESPONSE, seq),
                ))
                offset += 8 * n
            sealed_replies = MuxRecords.seal_responses(
                replies, None if contexts is None else [contexts[j] for j in served]
            )
            for j, reply in zip(served, sealed_replies):
                outcomes[accepted[j]] = reply

        self._record(requests=len(served), samples=got)
        if recorder.enabled:
            recorder.count("arena.hit", arena.stats.hits - hits0)
            recorder.count("arena.miss", arena.stats.misses - misses0)
            recorder.gauge("arena.bytes", arena.stats.bytes_allocated)
        return outcomes


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
        return REQUEST_HEADER.pack(len(flat), flat.shape[1]) + flat.tobytes()

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
