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

The layer kernels never see the arena directly: each layer slot gets
a :class:`LayerWorkspace` with its own buffer table, so two conv layers
cannot alias each other's column buffers, and a hit costs one lookup in
that table.
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
        self.stats = ArenaStats()
        self._own = LayerWorkspace(self.stats)
        self._workspaces: Dict[Hashable, LayerWorkspace] = {}

    def take(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype=np.float32,
        zero_fill: bool = False,
    ) -> np.ndarray:
        """A writable array of ``shape``, reused across calls.

        The stored buffer keeps the largest leading dimension requested
        for ``key``; smaller requests get a ``buf[:n]`` view (a hit).
        Changing the trailing dimensions or dtype reallocates.
        """
        shape = tuple(int(s) for s in shape)
        return self._own.take(key, shape, dtype, zero_fill)

    def workspace(self, slot: Hashable) -> "LayerWorkspace":
        """The (cached) buffer table of layer ``slot``."""
        ws = self._workspaces.get(slot)
        if ws is None:
            ws = self._workspaces[slot] = LayerWorkspace(self.stats)
        return ws


class LayerWorkspace:
    """One buffer table of an arena, sharing the arena's accounting."""

    __slots__ = ("_stats", "_buffers")

    def __init__(self, stats: ArenaStats) -> None:
        self._stats = stats
        self._buffers: Dict[Hashable, np.ndarray] = {}

    def take(
        self,
        name: Hashable,
        shape: Tuple[int, ...],
        dtype=np.float32,
        zero_fill: bool = False,
    ) -> np.ndarray:
        """:meth:`TensorArena.take` in this table; ``shape`` must be a
        tuple.  Layer kernels call this per buffer per ``infer``, so a
        hit — steady-state serving's only case — is one lookup, one
        shape and dtype check and one slice."""
        buf = self._buffers.get(name)
        if buf is not None:
            if (
                buf.shape[1:] == shape[1:]
                and buf.shape[0] >= shape[0]
                and buf.dtype == dtype
            ):
                self._stats.hits += 1
                return buf[: shape[0]]
            self._stats.bytes_allocated -= buf.nbytes
        if zero_fill:
            fresh = np.zeros(shape, dtype=dtype)  # repro: noqa[ALLOC001] -- the arena's own miss path is where setup-time allocation lives; steady state never reaches it
        else:
            fresh = np.empty(shape, dtype=dtype)  # repro: noqa[ALLOC001] -- the arena's own miss path is where setup-time allocation lives; steady state never reaches it
        self._buffers[name] = fresh
        self._stats.misses += 1
        self._stats.bytes_allocated += fresh.nbytes
        return fresh
