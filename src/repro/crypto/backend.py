"""Pluggable AEAD backends for the encryption engine.

Two implementations of the same interface:

* :class:`PureBackend` — the from-scratch AES-GCM in this package.
  Always available; slow (pure Python), intended for verification and as
  a fallback.
* :class:`CryptographyBackend` — the host ``cryptography`` wheel
  (OpenSSL AES-GCM).  Used by default when importable so that the
  functional experiments (which encrypt megabytes of model weights per
  mirror operation) run at practical wall-clock speed.

A backend is stateless; :meth:`AeadBackend.bind` returns a
:class:`KeyedAead` — the cipher under one key — and that is what does
the work.  An :class:`~repro.crypto.engine.EncryptionEngine` binds its
key once and keeps the result for its lifetime, so whatever a backend
derives from the key (for OpenSSL the key schedule and the GHASH table
inside one reusable ``AESGCM`` object) is paid per key, not per
message.

Besides the plain ``encrypt``/``decrypt`` pair, a keyed cipher exposes
``encrypt_into``/``decrypt_into`` variants that write their output into
a caller-provided buffer.  The base class supplies a correct
copy-through default; :class:`CryptographyBackend` overrides both with
OpenSSL's in-place AEAD calls (where the wheel has them) so the
mirroring hot path can seal directly into persistent-memory staging
buffers without intermediate ``bytes`` allocations.  A keyed cipher is
safe to share across threads (``TestThreadSafeStats`` drives one from
eight).

:func:`default_backend` picks the wheel when it is importable and the
pure implementation otherwise; a caller that wants a specific backend
passes it to ``EncryptionEngine(backend=...)``.

The test suite cross-validates the two backends on random inputs.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.crypto import gcm as _gcm

_TAG_SIZE = 16

#: Largest ciphertext :class:`CryptographyBackend` opens with one AEAD
#: call in ``decrypt_into``.  A sealed record is ``ciphertext ‖ IV ‖
#: MAC`` but OpenSSL's one-shot wants ``ciphertext ‖ MAC``, so one-shot
#: pays a join copy where the streaming decryptor pays ≈ 10 µs to build
#: a cipher context per message: the copy is free on a 3 KB request and
#: a full extra memory pass on a multi-MB PM slot.  The measured
#: curves cross between 256 KiB and 1 MiB (``docs/performance.md``,
#: "Per-call crypto cost"); 64 KiB is safely on the one-shot side.
ONE_SHOT_DECRYPT_MAX = 64 << 10

# ``update_into`` requires the output buffer to extend block_size - 1
# bytes past the data being written (OpenSSL may buffer a partial
# block); the streaming decryptor routes the final bytes through a
# bounce buffer so ``out`` may be exactly plaintext-sized.
_UPDATE_INTO_SLACK = 15


class IntegrityError(Exception):
    """Raised when AEAD authentication fails (tampered or corrupt data)."""


class KeyedAead(abc.ABC):
    """AES-GCM under one bound key, with detached 16-byte tags."""

    @abc.abstractmethod
    def encrypt(
        self, iv: bytes, plaintext: bytes, aad: bytes = b""
    ) -> Tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""

    @abc.abstractmethod
    def decrypt(
        self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b""
    ) -> bytes:
        """Return the plaintext; raise :class:`IntegrityError` on tag mismatch."""

    def encrypt_into(
        self, iv: bytes, plaintext: bytes, out: memoryview, aad: bytes = b""
    ) -> bytes:
        """Encrypt ``plaintext`` into ``out[:len(plaintext)]``; return the tag.

        ``out`` must be a writable buffer of at least
        ``len(plaintext) + 16`` bytes: an implementation may lay the tag
        down behind the ciphertext before returning it, so the caller
        owns ``out[len(plaintext):]`` only after the call.  The default
        implementation round-trips through :meth:`encrypt`.
        """
        ciphertext, tag = self.encrypt(iv, bytes(plaintext), aad)
        out[: len(ciphertext)] = ciphertext
        return tag

    def decrypt_into(
        self,
        iv: bytes,
        ciphertext: bytes,
        tag: bytes,
        out: memoryview,
        aad: bytes = b"",
    ) -> int:
        """Decrypt into ``out[:len(ciphertext)]``; return the byte count.

        Raises :class:`IntegrityError` on tag mismatch.  ``out`` may be
        exactly ``len(ciphertext)`` bytes.  Note the GCM caveat: the
        plaintext may already have been written into ``out`` when a tag
        mismatch is detected — callers must treat ``out`` as garbage if
        this raises.
        """
        plaintext = self.decrypt(iv, bytes(ciphertext), tag, aad)
        out[: len(plaintext)] = plaintext
        return len(plaintext)


class AeadBackend(abc.ABC):
    """An AES-GCM implementation: :meth:`bind` a key to use it."""

    name: str

    @abc.abstractmethod
    def bind(self, key: bytes) -> KeyedAead:
        """The cipher under ``key``; bind once, use for every message."""


class _PureKeyed(KeyedAead):
    """:mod:`repro.crypto.gcm` under one key — the reference the tests
    compare against, so it holds the key and nothing derived from it."""

    def __init__(self, key: bytes) -> None:
        self._key = key

    def encrypt(
        self, iv: bytes, plaintext: bytes, aad: bytes = b""
    ) -> Tuple[bytes, bytes]:
        return _gcm.gcm_encrypt(self._key, iv, plaintext, aad)

    def decrypt(
        self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b""
    ) -> bytes:
        try:
            return _gcm.gcm_decrypt(self._key, iv, ciphertext, tag, aad)
        except ValueError as exc:
            raise IntegrityError(str(exc)) from exc


class PureBackend(AeadBackend):
    """The from-scratch AES-GCM implementation in :mod:`repro.crypto.gcm`."""

    name = "pure-python"

    def bind(self, key: bytes) -> KeyedAead:
        return _PureKeyed(key)


class _OpenSSLKeyed(KeyedAead):
    """One ``AESGCM(key)`` reused for every message under that key.

    This much works on any ``cryptography`` wheel; ``*_into`` are the
    inherited copy-through defaults (correct, one extra copy).
    """

    def __init__(self, lib: "CryptographyBackend", key: bytes) -> None:
        self._lib = lib
        self._aead = lib._aesgcm_cls(key)

    def encrypt(
        self, iv: bytes, plaintext: bytes, aad: bytes = b""
    ) -> Tuple[bytes, bytes]:
        sealed = self._aead.encrypt(iv, plaintext, aad)
        return sealed[:-_TAG_SIZE], sealed[-_TAG_SIZE:]

    def decrypt(
        self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b""
    ) -> bytes:
        try:
            return self._aead.decrypt(iv, b"".join((ciphertext, tag)), aad)
        except self._lib._invalid_tag_cls as exc:
            raise IntegrityError("GCM authentication tag mismatch") from exc


class _OpenSSLKeyedInto(_OpenSSLKeyed):
    """Adds the in-place variants, on wheels whose ``AESGCM`` has
    ``encrypt_into`` / ``decrypt_into``."""

    def __init__(self, lib: "CryptographyBackend", key: bytes) -> None:
        super().__init__(lib, key)
        self._aes = lib._aes_cls(key)

    def encrypt_into(
        self, iv: bytes, plaintext: bytes, out: memoryview, aad: bytes = b""
    ) -> bytes:
        n = len(plaintext)
        self._aead.encrypt_into(iv, plaintext, aad, out[: n + _TAG_SIZE])
        return bytes(out[n : n + _TAG_SIZE])

    def decrypt_into(
        self,
        iv: bytes,
        ciphertext: bytes,
        tag: bytes,
        out: memoryview,
        aad: bytes = b"",
    ) -> int:
        n = len(ciphertext)
        try:
            if n > ONE_SHOT_DECRYPT_MAX:
                return self._stream_decrypt_into(iv, ciphertext, tag, out, aad)
            return self._aead.decrypt_into(
                iv, b"".join((ciphertext, tag)), aad, out[:n]
            )
        except self._lib._invalid_tag_cls as exc:
            raise IntegrityError("GCM authentication tag mismatch") from exc

    def _stream_decrypt_into(
        self, iv: bytes, ciphertext: bytes, tag: bytes, out: memoryview, aad: bytes
    ) -> int:
        """Above the bound: a cipher context per call, but the
        ciphertext is read where it lies — no join copy."""
        lib = self._lib
        decryptor = lib._cipher_cls(self._aes, lib._gcm_cls(iv, tag)).decryptor()
        if aad:
            decryptor.authenticate_additional_data(aad)
        ct = memoryview(ciphertext)
        n = len(ct)
        # ``out`` may be exactly n bytes, but update_into demands 15
        # bytes of slack past the data: stream all but the final bytes
        # directly, bounce the tail through a small scratch buffer.
        head = n - _UPDATE_INTO_SLACK
        written = decryptor.update_into(ct[:head], out[:n])
        scratch = bytearray(2 * _UPDATE_INTO_SLACK)
        tail = decryptor.update_into(ct[head:], scratch)
        decryptor.finalize()
        out[written : written + tail] = scratch[:tail]
        if written + tail != n:  # pragma: no cover - GCM is a stream mode
            raise RuntimeError(f"GCM wrote {written + tail} of {n} bytes")
        return n


class CryptographyBackend(AeadBackend):
    """AES-GCM via the ``cryptography`` wheel (OpenSSL)."""

    name = "cryptography"

    def __init__(self) -> None:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.ciphers import (
            Cipher,
            algorithms,
            modes,
        )
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        self._aesgcm_cls = AESGCM
        self._cipher_cls = Cipher
        self._aes_cls = algorithms.AES
        self._gcm_cls = modes.GCM
        self._invalid_tag_cls = InvalidTag
        # ``AESGCM.encrypt_into`` / ``decrypt_into`` are recent (see the
        # README's install note); an older wheel still gets the reused
        # context, with copy-through ``*_into``.
        self._keyed_cls = (
            _OpenSSLKeyedInto
            if hasattr(AESGCM, "encrypt_into") and hasattr(AESGCM, "decrypt_into")
            else _OpenSSLKeyed
        )

    def bind(self, key: bytes) -> KeyedAead:
        return self._keyed_cls(self, key)


_default: Optional[AeadBackend] = None


def default_backend() -> AeadBackend:
    """The process-wide default backend: :class:`CryptographyBackend`
    if the wheel is importable, else :class:`PureBackend`."""
    global _default
    if _default is None:
        try:
            _default = CryptographyBackend()
        except ImportError:
            _default = PureBackend()
    return _default
