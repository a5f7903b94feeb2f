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

Diffie-Hellman runs over the RFC 3526 2048-bit MODP group; session keys
come from HKDF-SHA256.  Message protection on the channel is AES-GCM.

Every modular exponentiation goes through :func:`_modp_pow`, which runs
it in OpenSSL (the ``cryptography`` wheel's DH exchange, ~10× faster
than CPython's ``pow`` at 2048 bits) when the wheel is importable.
Without the wheel it falls back to ``pow(base, exponent, p)`` — the
same rule :func:`repro.crypto.backend.default_backend` applies to
AES-GCM — and ``pow`` is also the oracle the tests hold the OpenSSL path
to.  Both paths compute the same integer, so every session key is the
same bytes either way.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.engine import IV_SIZE, EncryptionEngine, RandomSource
from repro.obs.context import TraceContext, current_trace, trace_scope
from repro.sgx.enclave import Enclave
from repro.sgx.sealing import hkdf_expand, hkdf_extract, hkdf_sha256  # repro: noqa[SEC002] -- models both endpoints of the DH exchange; the enclave-side derivation is the in-enclave step of remote attestation

# RFC 3526 group 14 (2048-bit MODP); generator 2.
_MODP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
_MODP_GENERATOR = 2

try:
    from cryptography.hazmat.primitives.asymmetric import dh as _dh
except ImportError:  # no wheel: _modp_pow falls back to CPython's pow
    _MODP_PARAMS = None
else:
    _MODP_PARAMS = _dh.DHParameterNumbers(_MODP_PRIME, _MODP_GENERATOR)


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
        return self.engine.seal(plaintext, aad=b"plinius-secure-channel")

    def receive(self, sealed: bytes) -> bytes:
        """Open a message from the peer."""
        return self.engine.unseal(sealed, aad=b"plinius-secure-channel")


class InferenceSession:
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

    _DIR_REQUEST = b"req"
    _DIR_RESPONSE = b"rsp"

    def __init__(self, session_id: int, key: bytes) -> None:
        self.session_id = session_id
        self.engine = EncryptionEngine(key)
        # Key, salt and session id are fixed for the session's life, so
        # the HKDF extract and the AAD prefixes are paid here, once;
        # a message then costs the expand alone — one HMAC.
        self._iv_prk = hkdf_extract(b"plinius-mux-iv", self.engine.key)
        sid = session_id.to_bytes(8, "big")
        self._aad_prefix = {
            direction: b"plinius-mux|" + direction + sid
            for direction in (self._DIR_REQUEST, self._DIR_RESPONSE)
        }

    def _iv(self, direction: bytes, seq: int) -> bytes:
        return hkdf_expand(
            self._iv_prk, direction + seq.to_bytes(8, "big"), IV_SIZE
        )

    def _aad(self, direction: bytes, seq: int) -> bytes:
        return self._aad_prefix[direction] + seq.to_bytes(8, "big")

    def _request_span(
        self,
        ctx: TraceContext,
        name: str,
        direction: bytes,
        seq: int,
        nbytes: int,
    ):
        """Open a request-plane span under ``ctx``'s parent.

        Session seals happen inside a batch entry whose sim time the
        session cannot see, so the span is pinned at the context's
        ``sim_now`` (zero sim width — the batch cost model charges the
        crypto time at the batch level); the wall clock still measures
        the real work.
        """
        return ctx.recorder.begin(
            name,
            ctx.sim_now,
            category="sgx",
            args={
                "bytes": nbytes,
                "direction": direction.decode("ascii"),
                "seq": seq,
                "session": self.session_id,
            },
            parent=ctx.parent,
            trace_id=ctx.trace_id,
        )

    def _seal(self, direction: bytes, seq: int, payload: bytes) -> bytes:
        aad = self._aad(direction, seq)
        iv = self._iv(direction, seq)
        ctx = current_trace()
        if ctx is None:
            return self.engine.seal(payload, aad=aad, iv=iv)
        span = self._request_span(
            ctx, "sgx.session.seal", direction, seq, len(payload)
        )
        try:
            with trace_scope(ctx.child(span)):
                return self.engine.seal(payload, aad=aad, iv=iv)
        finally:
            ctx.recorder.end(span, ctx.sim_now)

    def _open(self, direction: bytes, seq: int, sealed: bytes) -> bytes:
        aad = self._aad(direction, seq)
        ctx = current_trace()
        if ctx is None:
            return self.engine.unseal(sealed, aad=aad)
        span = self._request_span(
            ctx, "sgx.session.open", direction, seq, len(sealed)
        )
        try:
            with trace_scope(ctx.child(span)):
                return self.engine.unseal(sealed, aad=aad)
        finally:
            ctx.recorder.end(span, ctx.sim_now)

    def seal_request(self, seq: int, payload: bytes) -> bytes:
        return self._seal(self._DIR_REQUEST, seq, payload)

    def open_request(self, seq: int, sealed: bytes) -> bytes:
        return self._open(self._DIR_REQUEST, seq, sealed)

    def open_request_into(self, seq: int, sealed: bytes, out) -> int:
        """Decrypt request ``seq`` straight into ``out``; returns bytes.

        Zero-copy counterpart of :meth:`open_request` for the batched
        serve path — same AAD binding and MAC check, same GCM caveat as
        :meth:`~repro.crypto.engine.EncryptionEngine.unseal_from`: on an
        integrity failure ``out`` holds garbage and must be discarded.
        """
        aad = self._aad(self._DIR_REQUEST, seq)
        ctx = current_trace()
        if ctx is None:
            return self.engine.unseal_from(sealed, out, aad=aad)
        span = self._request_span(
            ctx, "sgx.session.open", self._DIR_REQUEST, seq, len(sealed)
        )
        try:
            with trace_scope(ctx.child(span)):
                return self.engine.unseal_from(sealed, out, aad=aad)
        finally:
            ctx.recorder.end(span, ctx.sim_now)

    def seal_response(self, seq: int, payload: bytes) -> bytes:
        return self._seal(self._DIR_RESPONSE, seq, payload)

    def open_response(self, seq: int, sealed: bytes) -> bytes:
        return self._open(self._DIR_RESPONSE, seq, sealed)


def _modp_pow(base: int, exponent: int) -> int:
    """``pow(base, exponent, p)`` over the MODP group, in OpenSSL when
    the wheel is importable.

    A base outside 2..p−2 (a peer's public value of 0, 1 or −1 leaks
    the shared secret) fails closed with :class:`AttestationError` on
    both paths.
    """
    if not 1 < base < _MODP_PRIME - 1:
        raise AttestationError("DH public value outside 2..p-2")
    if _MODP_PARAMS is None:
        return pow(base, exponent, _MODP_PRIME)
    # ``exchange`` reads only the private value; the public half of the
    # private numbers is a placeholder.
    private = _dh.DHPrivateNumbers(
        exponent, _dh.DHPublicNumbers(_MODP_GENERATOR, _MODP_PARAMS)
    ).private_key()
    peer = _dh.DHPublicNumbers(base, _MODP_PARAMS).public_key()
    return int.from_bytes(private.exchange(peer), "big")


def _dh_keypair(rand: RandomSource) -> Tuple[int, int]:
    private = int.from_bytes(rand(32), "big") | 1
    public = _modp_pow(_MODP_GENERATOR, private)
    return private, public

def _session_engine(
    shared: int, rand: Optional[RandomSource]
) -> EncryptionEngine:
    secret = shared.to_bytes((_MODP_PRIME.bit_length() + 7) // 8, "big")
    key = hkdf_sha256(secret, b"plinius-ra", b"session-key", 16)
    return EncryptionEngine(key, rand=rand)


def _attested_exchange(
    enclave: Enclave,
    quoting_enclave: QuotingEnclave,
    expected_measurement: bytes,
    rand_enclave: RandomSource,
    rand_owner: RandomSource,
) -> Tuple[int, int]:
    """Quote-verified DH; returns (owner shared secret, enclave shared
    secret) — equal integers computed independently by each side."""
    # Enclave side: DH keypair, public key goes into the quote.
    enclave_priv, enclave_pub = _dh_keypair(rand_enclave)
    report_data = hashlib.sha256(
        enclave_pub.to_bytes(256, "big")
    ).digest()
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
    if quote.report_data[:32] != hashlib.sha256(
        enclave_pub.to_bytes(256, "big")
    ).digest():
        raise AttestationError("quoted DH key does not match the exchange")

    shared_owner = _modp_pow(enclave_pub, owner_priv)
    shared_enclave = _modp_pow(owner_pub, enclave_priv)
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


def _mux_session_key(shared: int, session_id: int) -> bytes:
    secret = shared.to_bytes((_MODP_PRIME.bit_length() + 7) // 8, "big")
    return hkdf_sha256(
        secret,
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
