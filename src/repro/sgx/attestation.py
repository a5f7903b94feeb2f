"""Remote attestation and key provisioning (Fig. 5 workflow, steps 2-3).

The data owner must convince herself she is talking to *her* enclave on
the remote machine before handing over the AES key that protects the
model and training data.  The simulated protocol preserves the moving
parts of SGX EPID/DCAP attestation:

1. the enclave produces a REPORT carrying its measurement and 64 bytes
   of report data (here: its DH public key, binding the channel to the
   quote);
2. the platform's quoting enclave signs the report with a platform key
   (stand-in for the EPID/ECDSA attestation key verified by Intel);
3. the data owner verifies the quote, checks the measurement against
   the build she expects, completes the DH exchange, and sends the
   sealed data key over the derived channel.

Diffie-Hellman runs over X25519 (RFC 7748); session keys come from
HKDF-SHA256 over the raw 32-byte shared secret.  Message protection on
the channel is AES-GCM.

Each side draws its X25519 private key from one ``rand(32)`` call.  The
exchange runs in OpenSSL (the ``cryptography`` wheel's ``X25519``) when
the wheel is importable, and otherwise in the RFC 7748 ladder of
:mod:`repro.crypto.x25519` — the same rule
:func:`repro.crypto.backend.default_backend` applies to AES-GCM — and
the ladder is also the reference the tests hold OpenSSL to.  Both paths
compute the same bytes, so every session key is the same either way.
A peer key of low order gives an all-zero shared secret, which fails
closed with :class:`AttestationError` on both paths.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto import records
from repro.crypto.engine import IV_SIZE, EncryptionEngine, RandomSource
from repro.crypto.records import REQUEST, RESPONSE
from repro.crypto.x25519 import BASE_POINT, x25519
from repro.sgx.enclave import Enclave
from repro.sgx.sealing import hkdf_expand, hkdf_extract, hkdf_sha256  # repro: noqa[SEC002] -- models both endpoints of the DH exchange; the enclave-side derivation is the in-enclave step of remote attestation

try:
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey as _WheelPrivateKey,
        X25519PublicKey as _WheelPublicKey,
    )
except ImportError:  # no wheel: the exchange runs the pure ladder
    _WheelPrivateKey = None  # type: ignore[assignment,misc]

#: What X25519 yields for a peer key of low order.
_ZERO_SECRET = bytes(32)


class AttestationError(Exception):
    """Raised when quote verification or channel establishment fails."""


@dataclass(frozen=True)
class Quote:
    """A signed attestation of an enclave's identity."""

    measurement: bytes
    report_data: bytes
    signature: bytes


class QuotingEnclave:
    """The platform component that signs enclave reports.

    ``platform_key`` models the attestation key whose public part the
    verifier learned out of band (Intel's attestation service role).
    """

    def __init__(self, platform_key: bytes) -> None:
        self._platform_key = bytes(platform_key)

    def quote(self, enclave: Enclave, report_data: bytes) -> Quote:
        """Sign a report for ``enclave`` carrying ``report_data``."""
        if len(report_data) > 64:
            raise ValueError("SGX report data is limited to 64 bytes")
        padded = report_data.ljust(64, b"\x00")
        signature = hmac.new(
            self._platform_key, enclave.measurement + padded, hashlib.sha256
        ).digest()
        return Quote(
            measurement=enclave.measurement,
            report_data=padded,
            signature=signature,
        )

    def verify(self, quote: Quote) -> bool:
        """Verify a quote's signature (the IAS/DCAP verification role)."""
        expected = hmac.new(
            self._platform_key,
            quote.measurement + quote.report_data,
            hashlib.sha256,
        ).digest()
        return hmac.compare_digest(expected, quote.signature)


@dataclass
class SecureChannel:
    """An established, authenticated channel keyed by the DH secret."""

    engine: EncryptionEngine

    def send(self, plaintext: bytes) -> bytes:
        """Protect a message for the peer."""
        return records.seal(self.engine, plaintext, records.CHANNEL)

    def receive(self, sealed: bytes) -> bytes:
        """Open a message from the peer."""
        return records.unseal(self.engine, sealed, records.CHANNEL)


class InferenceSession(records.MuxRecords):
    """One attested client session, multiplexable across enclave replicas.

    :class:`SecureChannel` draws each AES-GCM nonce from the endpoint's
    DRNG, so message bytes depend on the *global order* of seals on that
    channel — fine for a single service, wrong for a replica pool where
    the replica that answers request ``seq`` is a scheduling decision.
    The mux session instead derives every nonce from
    ``HKDF(session key, direction ‖ seq)`` — extract once per session,
    expand per message — and binds direction, session id and sequence
    number into the AAD.  Consequences:

    * any replica provisioned with the session state seals response
      ``seq`` to the exact same bytes, regardless of batching, dispatch
      order, or a redispatch after a replica crash;
    * a sealed reply replayed under a different session (or reflected
      back as a request) fails its MAC check.

    A ``(direction, seq)`` coordinate is allocated to exactly one
    plaintext — ``seq`` is fixed when the client seals the request — so
    no nonce is ever reused with two different payloads under one key.
    """

    def __init__(self, session_id: int, key: bytes) -> None:
        # Key, salt and session id are fixed for the session's life, so
        # the HKDF extract and the AAD prefixes are paid here, once;
        # a message then costs the expand alone — one HMAC.
        super().__init__(EncryptionEngine(key), session_id)
        self._iv_prk = hkdf_extract(b"plinius-mux-iv", self.engine.key)

    def _iv(self, direction: bytes, seq: int) -> bytes:
        return hkdf_expand(
            self._iv_prk, direction + seq.to_bytes(8, "big"), IV_SIZE
        )

    # The name the mux-AAD pin in tests/test_sgx.py reads.
    _aad = records.MuxRecords.aad

    def seal_request(self, seq: int, payload: bytes) -> bytes:
        return self.seal(REQUEST, seq, payload, self._iv(REQUEST, seq))

    def open_request(self, seq: int, sealed: bytes) -> bytes:
        return self.unseal(REQUEST, seq, sealed)

    def open_request_into(self, seq: int, sealed: bytes, out) -> int:
        """Decrypt request ``seq`` straight into ``out``; returns bytes.

        Zero-copy counterpart of :meth:`open_request` for the batched
        serve path — same AAD binding and MAC check, same GCM caveat as
        :meth:`~repro.crypto.engine.EncryptionEngine.unseal_from`: on an
        integrity failure ``out`` holds garbage and must be discarded.
        """
        return self.unseal_from(REQUEST, seq, sealed, out)

    def seal_response(self, seq: int, payload: bytes) -> bytes:
        return self.seal(RESPONSE, seq, payload, self._iv(RESPONSE, seq))

    def open_response(self, seq: int, sealed: bytes) -> bytes:
        return self.unseal(RESPONSE, seq, sealed)


def _dh_keypair(rand: RandomSource) -> Tuple[Any, bytes]:
    """A private key and its 32-byte public key, from one ``rand(32)``:
    the wheel's key object, or the raw scalar for the ladder."""
    secret = rand(32)
    if _WheelPrivateKey is None:
        return secret, x25519(secret, BASE_POINT)
    private = _WheelPrivateKey.from_private_bytes(secret)
    return private, private.public_key().public_bytes_raw()


def _dh_shared(private: Any, peer_public: bytes) -> bytes:
    """The 32-byte X25519 shared secret with ``peer_public``."""
    if _WheelPrivateKey is None:
        shared = x25519(private, peer_public)
    else:
        try:
            shared = private.exchange(
                _WheelPublicKey.from_public_bytes(peer_public)
            )
        except ValueError:  # OpenSSL refuses the all-zero secret itself
            shared = _ZERO_SECRET
    if shared == _ZERO_SECRET:
        raise AttestationError("DH peer key is of low order")
    return shared


def _session_engine(
    shared: bytes, rand: Optional[RandomSource]
) -> EncryptionEngine:
    key = hkdf_sha256(shared, b"plinius-ra", b"session-key", 16)
    return EncryptionEngine(key, rand=rand)


def _attested_exchange(
    enclave: Enclave,
    quoting_enclave: QuotingEnclave,
    expected_measurement: bytes,
    rand_enclave: RandomSource,
    rand_owner: RandomSource,
) -> Tuple[bytes, bytes]:
    """Quote-verified DH; returns (owner shared secret, enclave shared
    secret) — equal bytes computed independently by each side."""
    # Enclave side: DH keypair, public key goes into the quote.
    enclave_priv, enclave_pub = _dh_keypair(rand_enclave)
    report_data = hashlib.sha256(enclave_pub).digest()
    quote = quoting_enclave.quote(enclave, report_data)

    # Owner side: verify quote and measurement.
    if not quoting_enclave.verify(quote):
        raise AttestationError("quote signature verification failed")
    if quote.measurement != expected_measurement:
        raise AttestationError(
            "enclave measurement does not match the expected build"
        )
    owner_priv, owner_pub = _dh_keypair(rand_owner)
    # The owner must check the quoted key hash matches what the enclave
    # later uses; in this in-process simulation both sides exchange public
    # keys directly.
    if quote.report_data[:32] != hashlib.sha256(enclave_pub).digest():
        raise AttestationError("quoted DH key does not match the exchange")

    shared_owner = _dh_shared(owner_priv, enclave_pub)
    shared_enclave = _dh_shared(enclave_priv, owner_pub)
    return shared_owner, shared_enclave


def establish_channel(
    enclave: Enclave,
    quoting_enclave: QuotingEnclave,
    expected_measurement: bytes,
    rand_enclave: RandomSource,
    rand_owner: RandomSource,
) -> Tuple[SecureChannel, SecureChannel]:
    """Run attestation + DH; returns (owner channel, enclave channel).

    Raises :class:`AttestationError` if the quote does not verify or the
    measurement is not the one the owner expects.
    """
    shared_owner, shared_enclave = _attested_exchange(
        enclave, quoting_enclave, expected_measurement,
        rand_enclave, rand_owner,
    )
    owner_channel = SecureChannel(_session_engine(shared_owner, rand_owner))
    enclave_channel = SecureChannel(
        _session_engine(shared_enclave, rand_enclave)
    )
    return owner_channel, enclave_channel


def _mux_session_key(shared: bytes, session_id: int) -> bytes:
    return hkdf_sha256(
        shared,
        b"plinius-ra",
        b"mux-session-" + session_id.to_bytes(8, "big"),
        16,
    )


def establish_mux_session(
    enclave: Enclave,
    quoting_enclave: QuotingEnclave,
    expected_measurement: bytes,
    rand_enclave: RandomSource,
    rand_owner: RandomSource,
    session_id: int,
) -> Tuple[InferenceSession, InferenceSession]:
    """Attested session setup for the replicated inference service.

    Same quote-verified DH exchange as :func:`establish_channel`, but the
    derived state is an :class:`InferenceSession` pair — the enclave-side
    session is what the gateway provisions to every replica (the session
    key never leaves enclave custody: replicas of the same measurement
    exchange it over their own attested channels, modelled here as the
    shared session object).  Returns (owner session, enclave session).
    """
    shared_owner, shared_enclave = _attested_exchange(
        enclave, quoting_enclave, expected_measurement,
        rand_enclave, rand_owner,
    )
    owner_session = InferenceSession(
        session_id, _mux_session_key(shared_owner, session_id)
    )
    enclave_session = InferenceSession(
        session_id, _mux_session_key(shared_enclave, session_id)
    )
    return owner_session, enclave_session


def establish_mutual_session(
    client_enclave: Enclave,
    aggregator_enclave: Enclave,
    quoting_enclave: QuotingEnclave,
    expected_client_measurement: bytes,
    expected_aggregator_measurement: bytes,
    rand_client: RandomSource,
    rand_aggregator: RandomSource,
    session_id: int,
) -> Tuple[InferenceSession, InferenceSession]:
    """Mutually attested session between two enclaves (federated setup).

    Unlike :func:`establish_mux_session`, where only the owner checks a
    quote, here *both* parties are enclaves: the aggregator first
    demands a quote from the client enclave and checks it against the
    expected client build (a rogue client never gets a channel at all),
    then the standard quote-verified DH exchange binds the session to
    the aggregator's measurement for the client.  Returns
    ``(client_session, aggregator_session)``.
    """
    client_quote = quoting_enclave.quote(
        client_enclave,
        hashlib.sha256(
            b"fed-client|" + session_id.to_bytes(8, "big")
        ).digest(),
    )
    if not quoting_enclave.verify(client_quote):
        raise AttestationError("client quote signature verification failed")
    if client_quote.measurement != expected_client_measurement:
        raise AttestationError(
            "client enclave measurement does not match the expected build"
        )
    return establish_mux_session(
        aggregator_enclave,
        quoting_enclave,
        expected_measurement=expected_aggregator_measurement,
        rand_enclave=rand_aggregator,
        rand_owner=rand_client,
        session_id=session_id,
    )
