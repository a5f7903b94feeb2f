"""The bulk-buffer crypto surface: backend parity on large buffers,
zero-copy seal_into/unseal_from on both sides of the one-shot bound,
the engine's backend injection point, and stats / one keyed context
shared by more threads than cores."""

from __future__ import annotations

import functools
import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    IV_SIZE,
    MAC_SIZE,
    SEAL_OVERHEAD,
    CryptographyBackend,
    EncryptionEngine,
    IntegrityError,
    PureBackend,
    default_backend,
)
from repro.crypto.backend import ONE_SHOT_DECRYPT_MAX as BOUND
from repro.sgx.rand import SgxRandom

KEY = bytes(range(16))
IV = bytes(range(12))

#: Both sides of the one-shot / streaming ``decrypt_into`` selection.
BOUND_SIZES = [0, 1, 15, 16, 17, BOUND - 1, BOUND, BOUND + 1, (256 << 10) + 5]


def make_engine(**kwargs) -> EncryptionEngine:
    return EncryptionEngine(b"k" * 16, rand=SgxRandom(b"seed"), **kwargs)


class TestBackendParity:
    """PureBackend and CryptographyBackend must be interchangeable."""

    def test_multi_megabyte_buffer(self):
        # Deterministic pseudo-random 256 KiB + 5 bytes: 16 385 GCM
        # blocks ending in a ragged tail.  Neither backend has a
        # size-dependent path beyond that (one one-shot OpenSSL call;
        # block-by-block with an integer counter), so megabytes of
        # pure-Python AES would only re-run the same loop.
        blocks = [
            hashlib.sha256(i.to_bytes(4, "big")).digest()
            for i in range((256 << 10) // 32)
        ]
        plaintext = b"".join(blocks) + b"\x01\x02\x03\x04\x05"
        aad = b"layer:conv2"
        ct_pure, tag_pure = PureBackend().bind(KEY).encrypt(IV, plaintext, aad)
        ct_fast, tag_fast = CryptographyBackend().bind(KEY).encrypt(IV, plaintext, aad)
        assert ct_pure == ct_fast
        assert tag_pure == tag_fast
        # Cross-decrypt: each backend opens the other's output.
        assert PureBackend().bind(KEY).decrypt(IV, ct_fast, tag_fast, aad) == plaintext
        assert CryptographyBackend().bind(KEY).decrypt(IV, ct_pure, tag_pure, aad) == plaintext

    def test_empty_plaintext(self):
        ct_pure, tag_pure = PureBackend().bind(KEY).encrypt(IV, b"")
        ct_fast, tag_fast = CryptographyBackend().bind(KEY).encrypt(IV, b"")
        assert ct_pure == ct_fast == b""
        assert tag_pure == tag_fast
        assert CryptographyBackend().bind(KEY).decrypt(IV, b"", tag_pure) == b""

    def test_empty_vs_nonempty_aad_distinct(self):
        """AAD of ``b""`` must authenticate differently from any real AAD."""
        pt = b"model weights"
        _, tag_empty = CryptographyBackend().bind(KEY).encrypt(IV, pt, b"")
        _, tag_aad = CryptographyBackend().bind(KEY).encrypt(IV, pt, b"x")
        assert tag_empty != tag_aad
        _, tag_empty_pure = PureBackend().bind(KEY).encrypt(IV, pt, b"")
        assert tag_empty == tag_empty_pure
        ct, tag = CryptographyBackend().bind(KEY).encrypt(IV, pt, b"x")
        with pytest.raises(IntegrityError):
            CryptographyBackend().bind(KEY).decrypt(IV, ct, tag, b"")

    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=12, max_size=12),
        st.binary(max_size=257),
        st.binary(max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_parity_property(self, key, iv, plaintext, aad):
        ct_pure, tag_pure = PureBackend().bind(key).encrypt(iv, plaintext, aad)
        ct_fast, tag_fast = CryptographyBackend().bind(key).encrypt(iv, plaintext, aad)
        assert ct_pure == ct_fast
        assert tag_pure == tag_fast


class TestIntoVariants:
    """encrypt_into / decrypt_into write through caller-provided views."""

    @pytest.fixture(params=[PureBackend, CryptographyBackend])
    def backend(self, request):
        return request.param()

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 4096, 100_003])
    def test_encrypt_into_matches_encrypt(self, backend, size):
        plaintext = bytes((i * 7) % 256 for i in range(size))
        expected_ct, expected_tag = backend.bind(KEY).encrypt(IV, plaintext, b"a")
        out = bytearray(size + SEAL_OVERHEAD)  # slot-sized, spare tail
        tag = backend.bind(KEY).encrypt_into(IV, plaintext, memoryview(out), b"a")
        assert bytes(out[:size]) == expected_ct
        assert tag == expected_tag

    @pytest.mark.parametrize("size", [0, 1, 14, 15, 16, 31, 4096, 100_003])
    def test_decrypt_into_exact_size_buffer(self, backend, size):
        plaintext = bytes((i * 13) % 256 for i in range(size))
        ct, tag = backend.bind(KEY).encrypt(IV, plaintext)
        out = bytearray(size)  # exactly plaintext-sized: no cipher slack
        n = backend.bind(KEY).decrypt_into(IV, ct, tag, memoryview(out))
        assert n == size
        assert bytes(out) == plaintext

    def test_decrypt_into_tamper_raises(self, backend):
        ct, tag = backend.bind(KEY).encrypt(IV, b"p" * 64)
        bad = bytearray(ct)
        bad[0] ^= 1
        with pytest.raises(IntegrityError):
            backend.bind(KEY).decrypt_into(IV, bytes(bad), tag, memoryview(bytearray(64)))


@functools.lru_cache(maxsize=None)
def _pure_oracle(size: int, aad: bytes):
    """``(plaintext, ciphertext, tag)`` from the reference backend —
    cached: pure-Python AES costs ~1 s per 256 KiB."""
    plaintext = hashlib.shake_128(size.to_bytes(4, "big")).digest(size)
    return (plaintext, *PureBackend().bind(KEY).encrypt(IV, plaintext, aad))


class TestIntoAcrossTheBound:
    """``CryptographyBackend``'s in-place variants against the pure
    oracle at every size class on both sides of ``ONE_SHOT_DECRYPT_MAX``
    (one-shot at or below it, streaming decryptor above)."""

    @pytest.fixture(scope="class")
    def keyed(self):
        return CryptographyBackend().bind(KEY)

    @pytest.mark.parametrize("aad", [b"", b"layer:conv2"], ids=["noaad", "aad"])
    @pytest.mark.parametrize("size", BOUND_SIZES)
    def test_matches_pure_oracle(self, keyed, size, aad):
        plaintext, ct, tag = _pure_oracle(size, aad)
        sealed = bytearray(size + MAC_SIZE)  # exactly what encrypt_into needs
        assert keyed.encrypt_into(IV, plaintext, memoryview(sealed), aad) == tag
        assert bytes(sealed[:size]) == ct
        opened = bytearray(size)  # exactly plaintext-sized
        assert keyed.decrypt_into(IV, ct, tag, memoryview(opened), aad) == size
        assert bytes(opened) == plaintext

    @pytest.mark.parametrize("size", [64, BOUND, BOUND + 1])
    def test_tamper_raises_on_each_side(self, keyed, size):
        ct, tag = keyed.encrypt(IV, b"p" * size, b"a")
        out = memoryview(bytearray(size))
        bad_ct = bytearray(ct)
        bad_ct[-1] ^= 1
        bad_tag = bytes([tag[0] ^ 1]) + tag[1:]
        for args in ((bytes(bad_ct), tag, out, b"a"), (ct, bad_tag, out, b"a"),
                     (ct, tag, out, b"b")):
            with pytest.raises(IntegrityError):
                keyed.decrypt_into(IV, *args)
        assert keyed.decrypt_into(IV, ct, tag, out, b"a") == size

    def test_wheel_without_into_copies_through(self, monkeypatch):
        """A ``cryptography`` wheel whose ``AESGCM`` predates
        ``encrypt_into`` / ``decrypt_into`` keeps the reused context and
        takes the inherited copy-through variants — same bytes."""
        from cryptography.hazmat.primitives.ciphers import aead

        real_cls = aead.AESGCM

        class OldAESGCM:
            built = 0

            def __init__(self, key):
                OldAESGCM.built += 1
                self._real = real_cls(key)

            def encrypt(self, nonce, data, associated_data):
                return self._real.encrypt(nonce, data, associated_data)

            def decrypt(self, nonce, data, associated_data):
                return self._real.decrypt(nonce, data, associated_data)

        current = CryptographyBackend().bind(KEY)
        monkeypatch.setattr(aead, "AESGCM", OldAESGCM)
        old = CryptographyBackend().bind(KEY)
        assert type(old) is not type(current)
        for size in (0, 17, BOUND + 1):
            plaintext = bytes(i % 251 for i in range(size))
            want, got = bytearray(size + MAC_SIZE), bytearray(size + MAC_SIZE)
            tag = current.encrypt_into(IV, plaintext, memoryview(want), b"a")
            assert old.encrypt_into(IV, plaintext, memoryview(got), b"a") == tag
            assert got[:size] == want[:size]
            opened = bytearray(size)
            old.decrypt_into(IV, bytes(got[:size]), tag, memoryview(opened), b"a")
            assert bytes(opened) == plaintext
            with pytest.raises(IntegrityError):
                old.decrypt_into(IV, bytes(got[:size]), tag, memoryview(opened), b"b")
        assert OldAESGCM.built == 1


class TestSealInto:
    def test_matches_seal_bytes(self):
        plaintext = b"weights" * 1000
        iv = make_engine().new_iv()
        sealed = make_engine().seal(plaintext, aad=b"l0", iv=iv)
        out = bytearray(len(plaintext) + SEAL_OVERHEAD)
        n = make_engine().seal_into(plaintext, out, aad=b"l0", iv=iv)
        assert n == len(sealed)
        assert bytes(out[:n]) == sealed

    @pytest.mark.parametrize("size", [BOUND, BOUND + 1])
    def test_matches_seal_bytes_on_each_side_of_the_bound(self, size):
        engine = make_engine()
        plaintext = hashlib.shake_128(b"slot").digest(size)
        iv = engine.new_iv()
        sealed = engine.seal(plaintext, aad=b"l0", iv=iv)
        slot = bytearray(size + SEAL_OVERHEAD)
        assert engine.seal_into(plaintext, slot, aad=b"l0", iv=iv) == len(sealed)
        assert bytes(slot) == sealed
        restored = bytearray(size)
        assert engine.unseal_from(slot, restored, aad=b"l0") == size
        assert bytes(restored) == plaintext == engine.unseal(sealed, aad=b"l0")

    @pytest.mark.parametrize("backend", [PureBackend, CryptographyBackend])
    def test_nist_case4_through_every_entry_point(self, backend):
        """NIST SP 800-38D test case 4 via seal / seal_into / unseal /
        unseal_from: the engine's framing around a known answer."""
        engine = EncryptionEngine(
            bytes.fromhex("feffe9928665731c6d6a8f9467308308"), backend=backend()
        )
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        plaintext = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        )
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = (
            bytes.fromhex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
                "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            )
            + iv
            + bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")
        )
        assert engine.seal(plaintext, aad=aad, iv=iv) == sealed
        slot = bytearray(len(sealed))
        assert engine.seal_into(plaintext, slot, aad=aad, iv=iv) == len(sealed)
        assert bytes(slot) == sealed
        assert engine.unseal(sealed, aad=aad) == plaintext
        opened = bytearray(len(plaintext))
        assert engine.unseal_from(sealed, opened, aad=aad) == len(plaintext)
        assert bytes(opened) == plaintext

    def test_layout(self):
        plaintext = b"x" * 100
        iv = b"\xAA" * IV_SIZE
        out = bytearray(100 + SEAL_OVERHEAD)
        make_engine().seal_into(plaintext, out, iv=iv)
        assert bytes(out[100 : 100 + IV_SIZE]) == iv
        assert len(out) - (100 + IV_SIZE) == MAC_SIZE

    def test_roundtrip_through_unseal_from(self):
        engine = make_engine()
        plaintext = bytes(range(256)) * 64
        slot = bytearray(len(plaintext) + SEAL_OVERHEAD)
        engine.seal_into(plaintext, slot, aad=b"buf")
        restored = bytearray(len(plaintext))
        n = engine.unseal_from(slot, restored, aad=b"buf")
        assert n == len(plaintext)
        assert bytes(restored) == plaintext

    def test_offset_view(self):
        """Sealing into the middle of a larger arena (the PM-slot case)."""
        engine = make_engine()
        arena = bytearray(1000)
        plaintext = b"m" * 200
        engine.seal_into(plaintext, memoryview(arena)[300:528])
        assert bytes(arena[:300]) == b"\x00" * 300
        assert bytes(arena[528:]) == b"\x00" * 472
        assert engine.unseal(arena[300:528]) == plaintext

    def test_short_output_rejected(self):
        with pytest.raises(ValueError, match="output buffer"):
            make_engine().seal_into(b"p" * 64, bytearray(64 + SEAL_OVERHEAD - 1))

    def test_unseal_from_tamper_raises(self):
        engine = make_engine()
        slot = bytearray(64 + SEAL_OVERHEAD)
        engine.seal_into(b"q" * 64, slot)
        slot[3] ^= 0xFF
        with pytest.raises(IntegrityError):
            engine.unseal_from(slot, bytearray(64))

    def test_unseal_from_short_inputs_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="too short"):
            engine.unseal_from(b"x" * (SEAL_OVERHEAD - 1), bytearray(0))
        slot = bytearray(64 + SEAL_OVERHEAD)
        engine.seal_into(b"q" * 64, slot)
        with pytest.raises(ValueError, match="output buffer"):
            engine.unseal_from(slot, bytearray(63))


class TestBackendSelection:
    def test_engine_explicit_backend_wins(self):
        assert isinstance(default_backend(), CryptographyBackend)
        engine = make_engine(backend=PureBackend())
        assert isinstance(engine.backend, PureBackend)


class TestThreadSafeStats:
    def test_concurrent_seals_count_exactly(self):
        engine = make_engine()
        per_thread, threads, size = 25, 8, 1024
        plaintext = b"z" * size
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                slot = bytearray(size + SEAL_OVERHEAD)
                engine.seal_into(plaintext, slot, iv=b"\x01" * IV_SIZE)
                engine.unseal_from(slot, bytearray(size))

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert engine.stats["seals"] == per_thread * threads
        assert engine.stats["unseals"] == per_thread * threads
        assert engine.stats["bytes_sealed"] == per_thread * threads * size
        assert engine.stats["bytes_unsealed"] == per_thread * threads * size


    def test_one_keyed_context_shared_by_more_threads_than_cores(self):
        """Every thread seals and opens through the engine's single
        keyed context; a context with per-call state would interleave
        and miss the serially computed records."""
        engine = make_engine()
        sizes = (3152, BOUND + 1)  # one-shot and streaming decrypt
        jobs = [
            (bytes([t]) * 12, hashlib.shake_128(bytes([t])).digest(sizes[t % 2]))
            for t in range(8)
        ]
        expected = [make_engine().seal(pt, aad=b"s", iv=iv) for iv, pt in jobs]
        failures = []
        barrier = threading.Barrier(len(jobs))

        def work(index):
            iv, plaintext = jobs[index]
            slot = bytearray(len(plaintext) + SEAL_OVERHEAD)
            opened = bytearray(len(plaintext))
            barrier.wait(timeout=30)
            for _ in range(40):
                engine.seal_into(plaintext, slot, aad=b"s", iv=iv)
                engine.unseal_from(slot, opened, aad=b"s")
                if (
                    bytes(slot) != expected[index]
                    or bytes(opened) != plaintext
                    or engine.seal(plaintext, aad=b"s", iv=iv) != expected[index]
                    or engine.unseal(expected[index], aad=b"s") != plaintext
                ):
                    failures.append(index)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=work, args=(i,)) for i in range(len(jobs))
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert failures == []
        assert engine.stats["seals"] == engine.stats["unseals"] == 2 * 40 * len(jobs)
