"""The parallel-sealing crypto surface: backend parity on large buffers,
zero-copy seal_into/unseal_from, backend selection, thread-safe stats,
and the worker-pool plumbing."""

from __future__ import annotations

import hashlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    BACKEND_ENV_VAR,
    IV_SIZE,
    MAC_SIZE,
    MAX_CRYPTO_THREADS,
    SEAL_OVERHEAD,
    CryptographyBackend,
    EncryptionEngine,
    IntegrityError,
    PureBackend,
    default_backend,
    get_executor,
    make_backend,
    reset_default_backend,
    resolve_crypto_threads,
    set_default_backend,
    shutdown_executors,
)
from repro.sgx.rand import SgxRandom

KEY = bytes(range(16))
IV = bytes(range(12))


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
        ct_pure, tag_pure = PureBackend().encrypt(KEY, IV, plaintext, aad)
        ct_fast, tag_fast = CryptographyBackend().encrypt(KEY, IV, plaintext, aad)
        assert ct_pure == ct_fast
        assert tag_pure == tag_fast
        # Cross-decrypt: each backend opens the other's output.
        assert PureBackend().decrypt(KEY, IV, ct_fast, tag_fast, aad) == plaintext
        assert CryptographyBackend().decrypt(KEY, IV, ct_pure, tag_pure, aad) == plaintext

    def test_empty_plaintext(self):
        ct_pure, tag_pure = PureBackend().encrypt(KEY, IV, b"")
        ct_fast, tag_fast = CryptographyBackend().encrypt(KEY, IV, b"")
        assert ct_pure == ct_fast == b""
        assert tag_pure == tag_fast
        assert CryptographyBackend().decrypt(KEY, IV, b"", tag_pure) == b""

    def test_empty_vs_nonempty_aad_distinct(self):
        """AAD of ``b""`` must authenticate differently from any real AAD."""
        pt = b"model weights"
        _, tag_empty = CryptographyBackend().encrypt(KEY, IV, pt, b"")
        _, tag_aad = CryptographyBackend().encrypt(KEY, IV, pt, b"x")
        assert tag_empty != tag_aad
        _, tag_empty_pure = PureBackend().encrypt(KEY, IV, pt, b"")
        assert tag_empty == tag_empty_pure
        ct, tag = CryptographyBackend().encrypt(KEY, IV, pt, b"x")
        with pytest.raises(IntegrityError):
            CryptographyBackend().decrypt(KEY, IV, ct, tag, b"")

    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=12, max_size=12),
        st.binary(max_size=257),
        st.binary(max_size=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_parity_property(self, key, iv, plaintext, aad):
        ct_pure, tag_pure = PureBackend().encrypt(key, iv, plaintext, aad)
        ct_fast, tag_fast = CryptographyBackend().encrypt(key, iv, plaintext, aad)
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
        expected_ct, expected_tag = backend.encrypt(KEY, IV, plaintext, b"a")
        out = bytearray(size + SEAL_OVERHEAD)  # slot-sized, spare tail
        tag = backend.encrypt_into(KEY, IV, plaintext, memoryview(out), b"a")
        assert bytes(out[:size]) == expected_ct
        assert tag == expected_tag

    @pytest.mark.parametrize("size", [0, 1, 14, 15, 16, 31, 4096, 100_003])
    def test_decrypt_into_exact_size_buffer(self, backend, size):
        plaintext = bytes((i * 13) % 256 for i in range(size))
        ct, tag = backend.encrypt(KEY, IV, plaintext)
        out = bytearray(size)  # exactly plaintext-sized: no cipher slack
        n = backend.decrypt_into(KEY, IV, ct, tag, memoryview(out))
        assert n == size
        assert bytes(out) == plaintext

    def test_decrypt_into_tamper_raises(self, backend):
        ct, tag = backend.encrypt(KEY, IV, b"p" * 64)
        bad = bytearray(ct)
        bad[0] ^= 1
        with pytest.raises(IntegrityError):
            backend.decrypt_into(KEY, IV, bytes(bad), tag, memoryview(bytearray(64)))


class TestSealInto:
    def test_matches_seal_bytes(self):
        plaintext = b"weights" * 1000
        iv = make_engine().new_iv()
        sealed = make_engine().seal(plaintext, aad=b"l0", iv=iv)
        out = bytearray(len(plaintext) + SEAL_OVERHEAD)
        n = make_engine().seal_into(plaintext, out, aad=b"l0", iv=iv)
        assert n == len(sealed)
        assert bytes(out[:n]) == sealed

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
    @pytest.fixture(autouse=True)
    def restore_default(self):
        yield
        reset_default_backend()

    def test_make_backend_names(self):
        assert isinstance(make_backend("pure"), PureBackend)
        assert isinstance(make_backend("pure-python"), PureBackend)
        assert isinstance(make_backend("cryptography"), CryptographyBackend)
        with pytest.raises(ValueError, match="unknown"):
            make_backend("openssl3")

    def test_set_default_backend_by_name(self):
        set_default_backend("pure")
        assert isinstance(default_backend(), PureBackend)
        assert isinstance(make_engine().backend, PureBackend)
        reset_default_backend()
        assert isinstance(default_backend(), CryptographyBackend)

    def test_set_default_backend_instance(self):
        backend = PureBackend()
        set_default_backend(backend)
        assert default_backend() is backend

    def test_env_override(self, monkeypatch):
        # The resolved backend is cached; reset re-reads the environment.
        monkeypatch.setenv(BACKEND_ENV_VAR, "pure")
        reset_default_backend()
        assert isinstance(default_backend(), PureBackend)
        monkeypatch.setenv(BACKEND_ENV_VAR, "cryptography")
        reset_default_backend()
        assert isinstance(default_backend(), CryptographyBackend)

    def test_pinned_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "cryptography")
        set_default_backend("pure")
        assert isinstance(default_backend(), PureBackend)

    def test_engine_explicit_backend_wins(self):
        set_default_backend("pure")
        engine = make_engine(backend=CryptographyBackend())
        assert isinstance(engine.backend, CryptographyBackend)


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


class TestWorkerPool:
    def test_resolve_explicit_request(self):
        assert resolve_crypto_threads(4) == 4
        assert resolve_crypto_threads(1) == 1

    def test_resolve_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_crypto_threads(0)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_crypto_threads(-3)

    def test_resolve_caps(self):
        assert resolve_crypto_threads(10_000) == MAX_CRYPTO_THREADS

    def test_executor_reused_and_runs(self):
        pool_a = get_executor(2)
        pool_b = get_executor(2)
        assert pool_a is pool_b
        assert sorted(pool_a.map(lambda x: x * x, range(5))) == [0, 1, 4, 9, 16]
        shutdown_executors()
        pool_c = get_executor(2)
        assert pool_c is not pool_a
        shutdown_executors()

    def test_executor_requires_parallelism(self):
        with pytest.raises(ValueError):
            get_executor(1)
