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
from repro.sgx.attestation import (
    _MODP_GENERATOR,
    _MODP_PRIME,
    InferenceSession,
    _modp_pow,
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
# The DH modexp: OpenSSL when the wheel is importable, ``pow`` otherwise
# ---------------------------------------------------------------------------

# 2^E mod p for this exponent has a zero top byte, so the OpenSSL path
# must not lose or misplace the leading zero of its fixed-width output.
_LEADING_ZERO_EXPONENT = (
    79561958727686922160883963160694760907688610487369762918876138284715028819277
)
# Order of the prime-order subgroup (p = 2q + 1 is a safe prime).
_MODP_ORDER = (_MODP_PRIME - 1) // 2


def _oracle_vectors():
    rng = random.Random(26)
    vectors = [
        (_MODP_GENERATOR, 1),
        (_MODP_GENERATOR, _MODP_ORDER - 1),
        (3, 1),
        (_MODP_PRIME - 2, 1),
        (_MODP_PRIME - 2, 2),
        (_MODP_GENERATOR, _LEADING_ZERO_EXPONENT),
    ]
    # Key generation: the generator under a private key as _dh_keypair
    # draws it; the exchange: a random peer value under one.
    vectors += [
        (_MODP_GENERATOR, rng.getrandbits(256) | 1) for _ in range(32)
    ]
    vectors += [
        (rng.randrange(2, _MODP_PRIME - 1), rng.getrandbits(256) | 1)
        for _ in range(16)
    ]
    vectors += [
        (rng.randrange(2, _MODP_PRIME - 1), rng.randrange(1, _MODP_ORDER))
        for _ in range(16)
    ]
    return vectors


ORACLE_VECTORS = _oracle_vectors()


@pytest.fixture(params=["openssl", "pow"])
def modexp_path(request, monkeypatch):
    """Run a test on the wheel path and on the no-wheel ``pow`` path."""
    if request.param == "pow":
        monkeypatch.setattr(attestation, "_MODP_PARAMS", None)
    elif attestation._MODP_PARAMS is None:
        pytest.skip("cryptography wheel not importable")
    return request.param


class TestModpPow:
    def test_vectors_cover_the_edges(self):
        assert len(ORACLE_VECTORS) >= 64
        assert (_MODP_GENERATOR, 1) in ORACLE_VECTORS
        assert pow(_MODP_GENERATOR, _LEADING_ZERO_EXPONENT, _MODP_PRIME) < (
            1 << (_MODP_PRIME.bit_length() - 8)
        )

    def test_equals_pow(self, modexp_path):
        for base, exponent in ORACLE_VECTORS:
            assert _modp_pow(base, exponent) == pow(
                base, exponent, _MODP_PRIME
            ), (base, exponent)

    @pytest.mark.parametrize(
        "base", [0, 1, _MODP_PRIME - 1, _MODP_PRIME], ids=["0", "1", "p-1", "p"]
    )
    def test_degenerate_base_fails_closed(self, modexp_path, base):
        with pytest.raises(AttestationError, match="public value"):
            _modp_pow(base, 3)


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


class TestSessionKeysPinned:
    """Session keys are the bytes they were under CPython ``pow``,
    on both modexp paths."""

    def test_channel(self, modexp_path):
        enclave = make_enclave()
        owner, enclave_side = establish_channel(
            enclave,
            QuotingEnclave(b"platform-key"),
            enclave.measurement,
            SgxRandom(b"e"),
            SgxRandom(b"o"),
        )
        assert _key_digest(owner, enclave_side) == (
            "b19ee39755cbaedd87e32cd72ef60dfb722c6b0e985fc1a0b8dfa8ae8c6d6d99"
        )

    def test_mux_session(self, modexp_path):
        owner, enclave_side = _seeded_mux_pair()
        assert _key_digest(owner, enclave_side) == (
            "4e15df919a33284db4c726fee98848d800bd7c9ef4d42fa96f749f3b1ee19d7c"
        )
        sealed = owner.seal_request(0, _SHORT_REQUEST)
        assert hashlib.sha256(sealed).hexdigest() == (
            "d4ab7b94e05af6bedf2e400b4a5009e3bd75c8a13407f579d7a564a168baafae"
        )

    def test_mutual_session(self, modexp_path):
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
            "85a6ac9311b2d217599e71dfd9f1bdf3fec05ddc82b27c6b2af31dd240f5d66c"
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
assert attestation._MODP_PARAMS is None  # _modp_pow takes the pow path
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
    owner, _ = _seeded_mux_pair()
    assert bytes.fromhex(result.stdout.strip()) == owner.seal_request(
        0, _SHORT_REQUEST
    )
