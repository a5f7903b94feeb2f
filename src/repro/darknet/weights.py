"""Darknet ``.weights``-style binary serialization.

This is the payload format of the *SSD checkpointing baseline*: the
whole model serialized layer by layer, exactly the "costly serialization
operations of disk-based solutions" the paper's mirroring mechanism
avoids.

Format (little-endian), mirroring Darknet's ``save_weights``:

* header — ``major (i32), minor (i32), revision (i32), seen (i64)``
  where ``seen`` carries the completed iteration count;
* per layer, in network order, each parameter buffer's raw ``float32``
  data in the order reported by ``parameter_buffers()``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.darknet.network import Network

_MAJOR, _MINOR, _REVISION = 0, 2, 5
_HEADER = struct.Struct("<iiiq")


def save_weights(network: Network) -> bytes:
    """Serialize the model parameters (plus iteration counter)."""
    chunks = [_HEADER.pack(_MAJOR, _MINOR, _REVISION, network.iteration)]
    for _, (_, buffer) in network.parameter_buffers():
        chunks.append(np.ascontiguousarray(buffer, dtype=np.float32).tobytes())
    return b"".join(chunks)


def load_weights(network: Network, blob: bytes) -> int:
    """Load serialized parameters into ``network``; returns ``seen``.

    The network must have the same architecture the blob was saved
    from (same buffers in the same order) — Darknet behaves the same
    way.
    """
    if len(blob) < _HEADER.size:
        raise ValueError("weights blob shorter than its header")
    major, minor, _, seen = _HEADER.unpack_from(blob, 0)
    if (major, minor) != (_MAJOR, _MINOR):
        raise ValueError(f"unsupported weights version {major}.{minor}")
    offset = _HEADER.size
    for _, (name, buffer) in network.parameter_buffers():
        nbytes = buffer.size * 4
        if offset + nbytes > len(blob):
            raise ValueError(
                f"weights blob truncated at buffer {name!r} "
                f"(need {nbytes} bytes at offset {offset})"
            )
        values = np.frombuffer(blob, dtype=np.float32, count=buffer.size,
                               offset=offset)
        buffer[...] = values.reshape(buffer.shape)
        offset += nbytes
    if offset != len(blob):
        raise ValueError(
            f"weights blob has {len(blob) - offset} trailing bytes — "
            "architecture mismatch?"
        )
    network.iteration = int(seen)
    return int(seen)
