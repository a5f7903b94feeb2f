"""Preallocated tensor arena backing the allocation-free serve path.

The seed serving tier allocated fresh numpy arrays on every inference
call — im2col column buffers, per-layer activations, the softmax
output — and retained training-only caches on top.  Inside an enclave
that waste is doubly expensive: every allocation touches EPC pages the
MEE must re-encrypt, and the retained caches grow the resident set
toward the paging cliff (the trade-off TensorSCONE and the
hardware-assisted-memory-protection study both measure).

:class:`TensorArena` owns one buffer per ``(slot, name)`` key, sized on
first use and reused on every subsequent batch:

* buffers are stored at the **largest leading dimension seen** and
  handed out as ``buf[:n]`` views, so a steady stream of mixed batch
  sizes stabilizes after warmup with zero further allocations;
* ``zero_fill`` buffers (the padded conv input) are zeroed once at
  allocation; callers rewrite only the interior, so the zero border
  survives reuse;
* ``stats`` counts hits/misses and resident bytes — the serve loop
  mirrors them into the ``arena.hit`` / ``arena.miss`` /
  ``arena.bytes`` observability counters, and the zero-allocation test
  asserts the miss count stays flat after warmup.

The layer kernels never see the arena directly: :class:`LayerWorkspace`
namespaces keys by layer slot so two conv layers cannot alias each
other's column buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

import numpy as np


@dataclass
class ArenaStats:
    """Reuse accounting for one arena."""

    hits: int = 0
    misses: int = 0
    #: Bytes currently resident across all owned buffers.
    bytes_allocated: int = 0


class TensorArena:
    """Owns reusable tensors keyed by an arbitrary hashable key."""

    def __init__(self) -> None:
        self._buffers: Dict[Hashable, np.ndarray] = {}
        self._workspaces: Dict[Hashable, "LayerWorkspace"] = {}
        self.stats = ArenaStats()

    def take(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype=np.float32,
        zero_fill: bool = False,
    ) -> np.ndarray:
        """A writable array of ``shape``, reused across calls.

        The stored buffer keeps the largest leading dimension ever
        requested for ``key``; smaller requests get a ``buf[:n]`` view
        (a hit).  Changing the trailing dimensions or dtype reallocates.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if (
            buf is not None
            and buf.dtype == dtype
            and buf.shape[1:] == shape[1:]
            and buf.shape[0] >= shape[0]
        ):
            self.stats.hits += 1
            return buf[: shape[0]]
        capacity = shape
        if (
            buf is not None
            and buf.dtype == dtype
            and buf.shape[1:] == shape[1:]
        ):
            # Growing the leading dim: keep it monotone so the next
            # smaller batch is a hit again.
            capacity = (max(shape[0], buf.shape[0]),) + shape[1:]
        if buf is not None:
            self.stats.bytes_allocated -= buf.nbytes
        if zero_fill:
            fresh = np.zeros(capacity, dtype=dtype)  # repro: noqa[ALLOC001] -- the arena's own miss path is where setup-time allocation lives; steady state never reaches it
        else:
            fresh = np.empty(capacity, dtype=dtype)  # repro: noqa[ALLOC001] -- the arena's own miss path is where setup-time allocation lives; steady state never reaches it
        self._buffers[key] = fresh
        self.stats.misses += 1
        self.stats.bytes_allocated += fresh.nbytes
        return fresh[: shape[0]]

    def workspace(self, slot: Hashable) -> "LayerWorkspace":
        """The (cached) per-slot namespaced view of this arena."""
        ws = self._workspaces.get(slot)
        if ws is None:
            ws = LayerWorkspace(self, slot)
            self._workspaces[slot] = ws
        return ws


class LayerWorkspace:
    """One layer's view of the arena: keys are namespaced by slot."""

    __slots__ = ("_arena", "_slot")

    def __init__(self, arena: TensorArena, slot: Hashable) -> None:
        self._arena = arena
        self._slot = slot

    def take(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype=np.float32,
        zero_fill: bool = False,
    ) -> np.ndarray:
        return self._arena.take(
            (self._slot, name), shape, dtype, zero_fill=zero_fill
        )
