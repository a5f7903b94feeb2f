"""Crypto: AES against FIPS 197, GCM against NIST vectors and OpenSSL,
the sealed-buffer format, and tamper detection."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AES,
    IV_SIZE,
    KEY_SIZE,
    MAC_SIZE,
    SEAL_OVERHEAD,
    CryptographyBackend,
    EncryptionEngine,
    IntegrityError,
    PureBackend,
    gcm_decrypt,
    gcm_encrypt,
    ghash,
)
from repro.sgx.rand import SgxRandom


class TestAes:
    def test_fips197_aes128_vector(self):
        # FIPS 197 Appendix C.1
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_fips197_aes192_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_fips197_aes256_vector(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_bad_key_size(self):
        with pytest.raises(ValueError, match="key must be"):
            AES(b"short")

    def test_bad_block_size(self):
        with pytest.raises(ValueError, match="block must be"):
            AES(b"k" * 16).encrypt_block(b"tiny")

    def test_rounds_by_key_size(self):
        assert AES(b"k" * 16).rounds == 10
        assert AES(b"k" * 24).rounds == 12
        assert AES(b"k" * 32).rounds == 14

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_matches_openssl_blockwise(self, key, block):
        """Our AES core equals OpenSSL's (via AES-ECB-like single block
        through GCM's keystream would be indirect; use the cryptography
        Cipher directly)."""
        from cryptography.hazmat.primitives.ciphers import (
            Cipher,
            algorithms,
            modes,
        )

        encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        expected = encryptor.update(block)
        assert AES(key).encrypt_block(block) == expected


class TestGcm:
    def test_nist_empty_vector(self):
        # NIST GCM test case 1: zero key, zero IV, empty plaintext.
        key = b"\x00" * 16
        iv = b"\x00" * 12
        ct, tag = gcm_encrypt(key, iv, b"")
        assert ct == b""
        assert tag == bytes.fromhex("58e2fccefa7e3061367f1d57a4e7455a")

    def test_nist_single_block_vector(self):
        # NIST GCM test case 2.
        key = b"\x00" * 16
        iv = b"\x00" * 12
        plaintext = b"\x00" * 16
        ct, tag = gcm_encrypt(key, iv, plaintext)
        assert ct == bytes.fromhex("0388dace60b6a392f328c2b971b2fe78")
        assert tag == bytes.fromhex("ab6e47d42cec13bdf53a67b21257bddf")

    def test_nist_case4_with_aad(self):
        # NIST GCM test case 4.
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        plaintext = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b39"
        )
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        ct, tag = gcm_encrypt(key, iv, plaintext, aad)
        assert ct == bytes.fromhex(
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091"
        )
        assert tag == bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")

    def test_roundtrip(self):
        key, iv = os.urandom(16), os.urandom(12)
        pt = b"plinius model weights"
        ct, tag = gcm_encrypt(key, iv, pt, b"aad")
        assert gcm_decrypt(key, iv, ct, tag, b"aad") == pt

    def test_tag_mismatch_raises(self):
        key, iv = os.urandom(16), os.urandom(12)
        ct, tag = gcm_encrypt(key, iv, b"secret")
        bad_tag = bytes([tag[0] ^ 1]) + tag[1:]
        with pytest.raises(ValueError, match="tag mismatch"):
            gcm_decrypt(key, iv, ct, bad_tag)

    def test_wrong_aad_raises(self):
        key, iv = os.urandom(16), os.urandom(12)
        ct, tag = gcm_encrypt(key, iv, b"secret", b"right")
        with pytest.raises(ValueError):
            gcm_decrypt(key, iv, ct, tag, b"wrong")

    def test_long_iv_path(self):
        """IVs other than 12 bytes go through the GHASH derivation."""
        key = os.urandom(16)
        iv = os.urandom(16)
        ct, tag = gcm_encrypt(key, iv, b"data")
        assert gcm_decrypt(key, iv, ct, tag) == b"data"
        # Cross-check against OpenSSL for the non-96-bit-IV path too.
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        assert AESGCM(key).encrypt(iv, b"data", None) == ct + tag

    def test_ghash_validates_input(self):
        with pytest.raises(ValueError):
            ghash(b"\x00" * 8, b"\x00" * 16)
        with pytest.raises(ValueError):
            ghash(b"\x00" * 16, b"\x00" * 10)

    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=12, max_size=12),
        st.binary(max_size=200),
        st.binary(max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_pure_matches_openssl(self, key, iv, plaintext, aad):
        """The from-scratch GCM is bit-identical to OpenSSL's."""
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        ct, tag = gcm_encrypt(key, iv, plaintext, aad)
        assert AESGCM(key).encrypt(iv, plaintext, aad or None) == ct + tag


class TestBackends:
    @pytest.fixture(params=["pure", "cryptography"])
    def backend(self, request):
        return (
            PureBackend() if request.param == "pure" else CryptographyBackend()
        )

    def test_roundtrip(self, backend):
        key, iv = os.urandom(16), os.urandom(12)
        ct, tag = backend.bind(key).encrypt(iv, b"hello", b"aad")
        assert backend.bind(key).decrypt(iv, ct, tag, b"aad") == b"hello"

    def test_tamper_raises_integrity_error(self, backend):
        key, iv = os.urandom(16), os.urandom(12)
        ct, tag = backend.bind(key).encrypt(iv, b"hello hello hello")
        flipped = bytes([ct[0] ^ 0xFF]) + ct[1:]
        with pytest.raises(IntegrityError):
            backend.bind(key).decrypt(iv, flipped, tag)

    def test_cross_backend_interop(self):
        key, iv = os.urandom(16), os.urandom(12)
        ct, tag = PureBackend().bind(key).encrypt(iv, b"interop", b"x")
        assert CryptographyBackend().bind(key).decrypt(iv, ct, tag, b"x") == b"interop"


class TestEncryptionEngine:
    def make(self) -> EncryptionEngine:
        return EncryptionEngine(b"k" * 16, rand=SgxRandom(b"seed"))

    def test_key_size_enforced(self):
        with pytest.raises(ValueError, match="128-bit"):
            EncryptionEngine(b"k" * 24)

    def test_seal_layout_sizes(self):
        """Paper: 12 B IV + 16 B MAC = 28 B metadata per sealed buffer."""
        assert IV_SIZE == 12
        assert MAC_SIZE == 16
        assert SEAL_OVERHEAD == 28
        assert KEY_SIZE == 16
        engine = self.make()
        sealed = engine.seal(b"x" * 100)
        assert len(sealed) == 128
        assert EncryptionEngine.sealed_size(100) == 128

    def test_roundtrip(self):
        engine = self.make()
        assert engine.unseal(engine.seal(b"payload")) == b"payload"

    def test_roundtrip_with_aad(self):
        engine = self.make()
        sealed = engine.seal(b"payload", aad=b"weights")
        assert engine.unseal(sealed, aad=b"weights") == b"payload"
        with pytest.raises(IntegrityError):
            engine.unseal(sealed, aad=b"biases")

    def test_wrong_key_fails(self):
        sealed = self.make().seal(b"secret")
        other = EncryptionEngine(b"K" * 16)
        with pytest.raises(IntegrityError):
            other.unseal(sealed)

    def test_tampered_ciphertext_fails(self):
        engine = self.make()
        sealed = bytearray(engine.seal(b"secret data here"))
        sealed[0] ^= 0x01
        with pytest.raises(IntegrityError):
            engine.unseal(bytes(sealed))

    def test_tampered_iv_fails(self):
        engine = self.make()
        sealed = bytearray(engine.seal(b"secret data here"))
        sealed[-SEAL_OVERHEAD] ^= 0x01  # first IV byte
        with pytest.raises(IntegrityError):
            engine.unseal(bytes(sealed))

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            self.make().unseal(b"x" * 27)

    def test_fresh_iv_per_seal(self):
        engine = self.make()
        a = engine.seal(b"same plaintext")
        b = engine.seal(b"same plaintext")
        assert a != b  # random IV -> different ciphertext and MAC

    def test_deterministic_with_seeded_rand(self):
        a = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"s")).seal(b"pt")
        b = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"s")).seal(b"pt")
        assert a == b

    def test_generate_key(self):
        key = EncryptionEngine.generate_key(SgxRandom(b"s"))
        assert len(key) == KEY_SIZE
        assert key == EncryptionEngine.generate_key(SgxRandom(b"s"))

    def test_stats(self):
        engine = self.make()
        engine.unseal(engine.seal(b"12345"))
        assert engine.stats["seals"] == 1
        assert engine.stats["unseals"] == 1
        assert engine.stats["bytes_sealed"] == 5

    def test_empty_plaintext(self):
        engine = self.make()
        sealed = engine.seal(b"")
        assert len(sealed) == SEAL_OVERHEAD
        assert engine.unseal(sealed) == b""

    @given(st.binary(max_size=500), st.binary(max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, plaintext, aad):
        engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"p"))
        assert engine.unseal(engine.seal(plaintext, aad), aad) == plaintext
