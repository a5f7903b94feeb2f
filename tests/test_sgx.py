"""SGX simulator: randomness, enclave/EPC, ecalls, sealing, attestation."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import IntegrityError
from repro.sgx import (
    AttestationError,
    Enclave,
    EnclaveCallError,
    EnclaveMemoryError,
    EnclaveRuntime,
    QuotingEnclave,
    SgxRandom,
    attestation,
    establish_channel,
    seal_data,
    unseal_data,
)
from repro.crypto.x25519 import BASE_POINT, x25519
from repro.sgx.attestation import (
    InferenceSession,
    _dh_keypair,
    _dh_shared,
    establish_mutual_session,
    establish_mux_session,
)
from repro.sgx.sealing import hkdf_expand, hkdf_extract, hkdf_sha256
from repro.simtime.clock import SimClock
from repro.simtime.costs import MIB
from repro.simtime.profiles import EMLSGX_PM, SGX_EMLPM


class TestSgxRandom:
    def test_deterministic_with_seed(self):
        assert SgxRandom(b"s").read(32) == SgxRandom(b"s").read(32)

    def test_stream_advances(self):
        rng = SgxRandom(b"s")
        assert rng.read(16) != rng.read(16)

    def test_different_seeds_differ(self):
        assert SgxRandom(b"a").read(16) != SgxRandom(b"b").read(16)

    def test_arbitrary_lengths(self):
        rng = SgxRandom(b"s")
        assert len(rng.read(0)) == 0
        assert len(rng.read(7)) == 7
        assert len(rng.read(100)) == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SgxRandom(b"s").read(-1)


def make_enclave(enabled: bool = True) -> Enclave:
    profile = SGX_EMLPM if enabled else EMLSGX_PM
    return Enclave(SimClock(), profile.sgx)


class TestEnclave:
    def test_measurement_depends_on_code(self):
        clock = SimClock()
        a = Enclave(clock, SGX_EMLPM.sgx, code_identity=b"v1")
        b = Enclave(clock, SGX_EMLPM.sgx, code_identity=b"v2")
        assert a.measurement != b.measurement
        assert len(a.measurement) == 32

    def test_malloc_same_tag_resizes(self):
        enc = make_enclave()
        enc.malloc("model", 10 * MIB)
        enc.malloc("model", 4 * MIB)
        assert enc.allocated == 4 * MIB

    def test_heap_limit_enforced(self):
        enc = Enclave(SimClock(), SGX_EMLPM.sgx, heap_size=1 * MIB)
        with pytest.raises(EnclaveMemoryError):
            enc.malloc("big", 2 * MIB)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            make_enclave().malloc("x", -1)

    def test_working_set_includes_base_footprint(self):
        enc = make_enclave()
        assert enc.working_set == enc.base_footprint
        enc.malloc("m", 5 * MIB)
        assert enc.working_set == enc.base_footprint + 5 * MIB

    def test_over_epc_threshold(self):
        enc = make_enclave()
        assert not enc.over_epc
        enc.malloc("model", 78 * MIB)  # the paper's knee: ~78 MB model
        assert enc.over_epc

    def test_no_over_epc_in_simulation_mode(self):
        enc = make_enclave(enabled=False)
        enc.malloc("model", 500 * MIB)
        assert not enc.over_epc

    def test_touch_free_below_epc(self):
        enc = make_enclave()
        enc.malloc("model", 10 * MIB)
        t0 = enc.clock.now()
        enc.touch(10 * MIB)
        assert enc.clock.now() == t0

    def test_touch_charges_paging_beyond_epc(self):
        enc = make_enclave()
        enc.malloc("model", 120 * MIB)
        t0 = enc.clock.now()
        enc.touch(120 * MIB)
        assert enc.clock.now() > t0
        assert enc.stats["paging_events"] == 1
        assert enc.stats["paged_bytes"] > 0

    def test_copy_in_charges_mee_bandwidth(self):
        enc = make_enclave()
        t0 = enc.clock.now()
        enc.copy_in(10 * MIB)
        expected = 10 * MIB / SGX_EMLPM.sgx.epc_copy_bandwidth
        assert enc.clock.now() - t0 == pytest.approx(expected)

    def test_copy_out_cheaper_than_copy_in(self):
        enc_a, enc_b = make_enclave(), make_enclave()
        enc_a.copy_in(10 * MIB)
        enc_b.copy_out(10 * MIB)
        assert enc_b.clock.now() < enc_a.clock.now()

    def test_copies_free_in_simulation_mode(self):
        enc = make_enclave(enabled=False)
        enc.copy_in(100 * MIB)
        enc.copy_out(100 * MIB)
        assert enc.clock.now() == 0.0

    def test_destroy(self):
        enc = make_enclave()
        enc.malloc("m", 1 * MIB)
        enc.destroy()
        assert enc.destroyed
        with pytest.raises(RuntimeError, match="destroyed"):
            enc.malloc("m", 1)
        with pytest.raises(RuntimeError):
            enc.touch(1)


class TestEnclaveRuntime:
    def make(self, enabled: bool = True) -> EnclaveRuntime:
        return EnclaveRuntime(make_enclave(enabled))

    def test_ecall_dispatch(self):
        rt = self.make()
        rt.register_ecall("add", lambda a, b: a + b)
        assert rt.ecall("add", 2, 3) == 5
        assert rt.stats["ecalls"] == 1

    def test_ocall_dispatch(self):
        rt = self.make()
        rt.register_ocall("read_file", lambda name: f"data:{name}")
        assert rt.ocall("read_file", "f") == "data:f"
        assert rt.stats["ocalls"] == 1

    def test_unregistered_call_raises(self):
        rt = self.make()
        with pytest.raises(EnclaveCallError, match="no ecall"):
            rt.ecall("nope")
        with pytest.raises(EnclaveCallError, match="no ocall"):
            rt.ocall("nope")

    def test_each_call_costs_two_crossings(self):
        rt = self.make()
        rt.register_ecall("noop", lambda: None)
        t0 = rt.enclave.clock.now()
        rt.ecall("noop")
        elapsed = rt.enclave.clock.now() - t0
        assert elapsed == pytest.approx(2 * SGX_EMLPM.sgx.transition_cost)
        assert rt.stats["crossings"] == 2

    def test_crossings_free_in_simulation_mode(self):
        rt = self.make(enabled=False)
        rt.register_ocall("noop", lambda: None)
        rt.ocall("noop")
        assert rt.enclave.clock.now() == 0.0


class TestSealing:
    def test_roundtrip(self):
        enc = make_enclave()
        blob = seal_data(enc, b"key material", b"device-key", SgxRandom(b"r"))
        assert unseal_data(enc, blob, b"device-key") == b"key material"

    def test_bound_to_measurement(self):
        clock = SimClock()
        enc_a = Enclave(clock, SGX_EMLPM.sgx, code_identity=b"A")
        enc_b = Enclave(clock, SGX_EMLPM.sgx, code_identity=b"B")
        blob = seal_data(enc_a, b"secret", b"devkey", SgxRandom(b"r"))
        with pytest.raises(IntegrityError):
            unseal_data(enc_b, blob, b"devkey")

    def test_bound_to_platform(self):
        enc = make_enclave()
        blob = seal_data(enc, b"secret", b"platform-1", SgxRandom(b"r"))
        with pytest.raises(IntegrityError):
            unseal_data(enc, blob, b"platform-2")

    def test_same_identity_other_instance_unseals(self):
        """Sealing survives enclave restarts (same binary, same machine)."""
        clock = SimClock()
        enc1 = Enclave(clock, SGX_EMLPM.sgx, code_identity=b"app")
        blob = seal_data(enc1, b"secret", b"devkey", SgxRandom(b"r"))
        enc2 = Enclave(clock, SGX_EMLPM.sgx, code_identity=b"app")
        assert unseal_data(enc2, blob, b"devkey") == b"secret"


#: RFC 5869 appendix A, SHA-256: (IKM, salt, info, L, PRK, OKM).
RFC5869_CASES = [
    (
        "0b" * 22,
        "000102030405060708090a0b0c",
        "f0f1f2f3f4f5f6f7f8f9",
        42,
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865",
    ),
    (
        bytes(range(0x00, 0x50)).hex(),
        bytes(range(0x60, 0xB0)).hex(),
        bytes(range(0xB0, 0x100)).hex(),
        82,
        "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87",
    ),
    (
        "0b" * 22,
        "",
        "",
        42,
        "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8",
    ),
]


class TestHkdf:
    @pytest.mark.parametrize("ikm, salt, info, length, prk, okm", RFC5869_CASES)
    def test_rfc5869_vectors(self, ikm, salt, info, length, prk, okm):
        ikm, salt, info = map(bytes.fromhex, (ikm, salt, info))
        assert hkdf_extract(salt, ikm).hex() == prk
        assert hkdf_expand(bytes.fromhex(prk), info, length).hex() == okm
        assert hkdf_sha256(ikm, salt, info, length).hex() == okm


class TestInferenceSessionDerivation:
    """The cached PRK and AAD prefixes are an implementation detail:
    nonce and AAD bytes are what the full derivation gives."""

    @given(
        key=st.binary(min_size=16, max_size=16),
        session_id=st.integers(0, 2**64 - 1),
        seq=st.integers(0, 2**64 - 1),
        direction=st.sampled_from([b"req", b"rsp"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_iv_and_aad_bytes(self, key, session_id, seq, direction):
        session = InferenceSession(session_id, key)
        assert session._iv(direction, seq) == hkdf_sha256(
            key, b"plinius-mux-iv", direction + seq.to_bytes(8, "big"), 12
        )
        assert session._aad(direction, seq) == (
            b"plinius-mux|"
            + direction
            + session_id.to_bytes(8, "big")
            + seq.to_bytes(8, "big")
        )

    def test_sessions_with_different_keys_share_nothing(self):
        a = InferenceSession(1, b"A" * 16)
        b = InferenceSession(1, b"B" * 16)
        sealed = a.seal_request(0, b"payload")
        assert a.open_request(0, sealed) == b"payload"
        with pytest.raises(IntegrityError):
            b.open_request(0, sealed)
        with pytest.raises(IntegrityError):
            b.open_request_into(0, sealed, bytearray(7))
        assert a._iv(b"req", 0) != b._iv(b"req", 0)


class TestAttestation:
    def setup_method(self):
        self.enclave = make_enclave()
        self.qe = QuotingEnclave(b"platform-key")

    def test_quote_verifies(self):
        quote = self.qe.quote(self.enclave, b"report data")
        assert self.qe.verify(quote)

    def test_forged_quote_rejected(self):
        quote = self.qe.quote(self.enclave, b"report data")
        forged = type(quote)(
            measurement=quote.measurement,
            report_data=quote.report_data,
            signature=b"\x00" * 32,
        )
        assert not self.qe.verify(forged)

    def test_other_platform_key_rejected(self):
        quote = self.qe.quote(self.enclave, b"x")
        other = QuotingEnclave(b"other-key")
        assert not other.verify(quote)

    def test_report_data_limited_to_64_bytes(self):
        with pytest.raises(ValueError, match="64 bytes"):
            self.qe.quote(self.enclave, b"x" * 65)

    def test_channel_established_and_encrypts(self):
        owner, enclave_side = establish_channel(
            self.enclave,
            self.qe,
            expected_measurement=self.enclave.measurement,
            rand_enclave=SgxRandom(b"e"),
            rand_owner=SgxRandom(b"o"),
        )
        key = b"K" * 16
        wire = owner.send(key)
        assert wire != key  # actually protected on the wire
        assert enclave_side.receive(wire) == key

    def test_channel_is_bidirectional(self):
        owner, enclave_side = establish_channel(
            self.enclave,
            self.qe,
            expected_measurement=self.enclave.measurement,
            rand_enclave=SgxRandom(b"e"),
            rand_owner=SgxRandom(b"o"),
        )
        assert owner.receive(enclave_side.send(b"ack")) == b"ack"

    def test_wrong_measurement_aborts(self):
        with pytest.raises(AttestationError, match="measurement"):
            establish_channel(
                self.enclave,
                self.qe,
                expected_measurement=b"\x00" * 32,
                rand_enclave=SgxRandom(b"e"),
                rand_owner=SgxRandom(b"o"),
            )


# ---------------------------------------------------------------------------
# X25519: OpenSSL when the wheel is importable, the RFC 7748 ladder otherwise
# ---------------------------------------------------------------------------

#: RFC 7748 §5.2: (scalar, u, X25519(scalar, u)).  The second u has its
#: top bit set, which X25519 must mask.
RFC7748_VECTORS = [
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]

#: RFC 7748 §6.1: Alice's and Bob's (private, public) and their secret.
RFC7748_ALICE = (
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
)
RFC7748_BOB = (
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
)
RFC7748_SHARED = (
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
)

#: Encodings of the points of order 1, 2, 4 and 8 (and the
#: non-canonical p-1, p, p+1): each makes the shared secret all-zero.
_P25519 = 2**255 - 19
LOW_ORDER_KEYS = {
    "0": 0,
    "1": 1,
    "order8-e0eb": int.from_bytes(bytes.fromhex(
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"
    ), "little"),
    "order8-5f9c": int.from_bytes(bytes.fromhex(
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"
    ), "little"),
    "p-1": _P25519 - 1,
    "p": _P25519,
    "p+1": _P25519 + 1,
}


def _keypair_from(secret_hex: str):
    """``_dh_keypair`` under a DRNG that returns ``secret_hex``."""
    return _dh_keypair(lambda n: bytes.fromhex(secret_hex))


@pytest.fixture(params=["openssl", "ladder"])
def dh_path(request, monkeypatch):
    """Run a test on the wheel path and on the no-wheel ladder path."""
    if request.param == "ladder":
        monkeypatch.setattr(attestation, "_WheelPrivateKey", None)
    elif attestation._WheelPrivateKey is None:
        pytest.skip("cryptography wheel not importable")
    return request.param


class TestX25519:
    def test_rfc7748_vectors(self, dh_path):
        for scalar, u, out in RFC7748_VECTORS:
            private, _ = _keypair_from(scalar)
            assert _dh_shared(private, bytes.fromhex(u)).hex() == out

    def test_rfc7748_key_agreement(self, dh_path):
        alice, alice_pub = _keypair_from(RFC7748_ALICE[0])
        bob, bob_pub = _keypair_from(RFC7748_BOB[0])
        assert alice_pub.hex() == RFC7748_ALICE[1]
        assert bob_pub.hex() == RFC7748_BOB[1]
        assert _dh_shared(alice, bob_pub).hex() == RFC7748_SHARED
        assert _dh_shared(bob, alice_pub).hex() == RFC7748_SHARED

    def test_ladder_equals_openssl(self):
        if attestation._WheelPrivateKey is None:
            pytest.skip("cryptography wheel not importable")
        rng = random.Random(26)
        for _ in range(32):
            secret = rng.randbytes(32)
            peer = rng.randbytes(32)
            private, public = _dh_keypair(lambda n: secret)
            assert public == x25519(secret, BASE_POINT), secret.hex()
            assert _dh_shared(private, peer) == x25519(secret, peer), (
                secret.hex(), peer.hex()
            )

    @pytest.mark.parametrize("u", LOW_ORDER_KEYS.values(), ids=LOW_ORDER_KEYS)
    def test_low_order_peer_key_fails_closed(self, dh_path, u):
        private, _ = _keypair_from(RFC7748_ALICE[0])
        with pytest.raises(AttestationError, match="low order"):
            _dh_shared(private, u.to_bytes(32, "little"))


class _RelayQuotingEnclave(QuotingEnclave):
    """Signs genuine quotes, but over a public key other than the one
    the enclave goes on to exchange: what a relay that swaps in its own
    key presents."""

    def quote(self, enclave, report_data):
        _, relay_public = _dh_keypair(SgxRandom(b"relay"))
        return super().quote(enclave, hashlib.sha256(relay_public).digest())


def test_quote_over_another_key_is_refused(dh_path):
    enclave = make_enclave()
    qe = _RelayQuotingEnclave(b"platform-key")
    with pytest.raises(AttestationError, match="quoted DH key"):
        establish_channel(
            enclave, qe, enclave.measurement, SgxRandom(b"e"), SgxRandom(b"o")
        )


def _key_digest(a, b) -> str:
    assert a.engine.key == b.engine.key
    return hashlib.sha256(a.engine.key + b.engine.key).hexdigest()


def _seeded_mux_pair():
    enclave = make_enclave()
    return establish_mux_session(
        enclave,
        QuotingEnclave(b"platform-key"),
        enclave.measurement,
        SgxRandom(b"e"),
        SgxRandom(b"o"),
        7,
    )


_SHORT_REQUEST = b"hello enclave"
#: sha256 of ``seal_request(0, _SHORT_REQUEST)`` on the seeded mux pair.
_SHORT_REQUEST_SEALED_SHA256 = (
    "505ee7a2bc3a0f66f8b28e138d6f09775bb102aa78a47125c4a9aba9afe2c3c3"
)


class TestSessionKeysPinned:
    """Session keys are pinned bytes, the same on both X25519 paths."""

    def test_channel(self, dh_path):
        enclave = make_enclave()
        owner, enclave_side = establish_channel(
            enclave,
            QuotingEnclave(b"platform-key"),
            enclave.measurement,
            SgxRandom(b"e"),
            SgxRandom(b"o"),
        )
        assert _key_digest(owner, enclave_side) == (
            "85642bcdb7551062b15d30289b598aa286608ba41cb111c1c4773a53aa0beda0"
        )

    def test_mux_session(self, dh_path):
        owner, enclave_side = _seeded_mux_pair()
        assert _key_digest(owner, enclave_side) == (
            "e903e6da32016652968820cfc9d113076adc194129de7b6b73bdd5dc1190132b"
        )
        sealed = owner.seal_request(0, _SHORT_REQUEST)
        assert hashlib.sha256(sealed).hexdigest() == _SHORT_REQUEST_SEALED_SHA256

    def test_mutual_session(self, dh_path):
        aggregator = make_enclave()
        client = Enclave(
            SimClock(), SGX_EMLPM.sgx, code_identity=b"fed-client"
        )
        client_side, aggregator_side = establish_mutual_session(
            client,
            aggregator,
            QuotingEnclave(b"platform-key"),
            client.measurement,
            aggregator.measurement,
            SgxRandom(b"c"),
            SgxRandom(b"a"),
            3,
        )
        assert _key_digest(client_side, aggregator_side) == (
            "f21a88b7302e74614a9ec711f9c2d8e92a6f583a1f0798d179322593c0a96385"
        )


# Runs in a fresh interpreter whose import system refuses the
# ``cryptography`` wheel: the configuration the README promises.
_NO_WHEEL_SCRIPT = r"""
import importlib.abc
import sys


class BlockWheel(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "cryptography":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, BlockWheel())

from repro.crypto.backend import PureBackend, default_backend
from repro.sgx import Enclave, QuotingEnclave, SgxRandom, attestation
from repro.simtime.clock import SimClock
from repro.simtime.profiles import SGX_EMLPM

assert isinstance(default_backend(), PureBackend), default_backend()
assert attestation._WheelPrivateKey is None  # the exchange runs the ladder
enclave = Enclave(SimClock(), SGX_EMLPM.sgx)
owner, _ = attestation.establish_mux_session(
    enclave, QuotingEnclave(b"platform-key"), enclave.measurement,
    SgxRandom(b"e"), SgxRandom(b"o"), 7,
)
print(owner.seal_request(0, sys.argv[1].encode()).hex())
assert not any(m.partition(".")[0] == "cryptography" for m in sys.modules)
"""


def test_no_wheel_configuration_seals_the_same_bytes():
    src = Path(attestation.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-c", _NO_WHEEL_SCRIPT, _SHORT_REQUEST.decode()],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    sealed = bytes.fromhex(result.stdout.strip())
    assert hashlib.sha256(sealed).hexdigest() == _SHORT_REQUEST_SEALED_SHA256
    owner, _ = _seeded_mux_pair()
    assert sealed == owner.seal_request(0, _SHORT_REQUEST)
