"""Deterministic stand-in for ``sgx_read_rand``.

The SDK function draws from the processor's DRNG.  For reproducible
experiments we use a seedable CSPRNG built from SHA-256 in counter mode:
cryptographically well-distributed output, deterministic given the seed.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional


class SgxRandom:
    """A seedable CSPRNG with the ``sgx_read_rand`` calling convention."""

    def __init__(self, seed: Optional[bytes] = None) -> None:
        self._key = seed if seed is not None else os.urandom(32)  # repro: noqa[DET001] -- models the hardware DRNG (sgx_read_rand); deterministic tests inject a seed
        self._counter = 0

    def read(self, nbytes: int) -> bytes:
        """Return ``nbytes`` of pseudo-random data."""
        if nbytes < 0:
            raise ValueError(f"cannot read a negative byte count: {nbytes}")
        out = bytearray()
        while len(out) < nbytes:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            out += block
        return bytes(out[:nbytes])

    def __call__(self, nbytes: int) -> bytes:
        return self.read(nbytes)

