"""X25519 (RFC 7748) in pure Python: the Montgomery ladder of §5.

The attestation key exchange runs X25519 through the ``cryptography``
wheel when it is importable; without the wheel it runs this ladder —
the same wheel-or-pure rule :func:`repro.crypto.backend.default_backend`
applies to AES-GCM — and the ladder is also the reference the tests
hold the wheel to.  It is a functional reference, not a hardened
implementation: Python integers are not constant-time.
"""

from __future__ import annotations

_P = 2**255 - 19
_A24 = 121665

#: The u-coordinate of the base point, encoded.
BASE_POINT = (9).to_bytes(32, "little")


def x25519(scalar: bytes, u: bytes) -> bytes:
    """RFC 7748 ``X25519(k, u)``: both inputs and the result 32 bytes."""
    k = int.from_bytes(scalar, "little")
    k = (k & ~7 & ~(1 << 255)) | (1 << 254)
    x1 = int.from_bytes(u, "little") & ((1 << 255) - 1)
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(255)):
        bit = (k >> t) & 1
        if swap ^ bit:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = bit
        a, b = x2 + z2, x2 - z2
        aa, bb = a * a % _P, b * b % _P
        e = aa - bb
        da, cb = (x3 - z3) * a % _P, (x3 + z3) * b % _P
        x3 = (da + cb) ** 2 % _P
        z3 = x1 * (da - cb) ** 2 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P
    if swap:
        x2, z2 = x3, z3
    return (x2 * pow(z2, _P - 2, _P) % _P).to_bytes(32, "little")
