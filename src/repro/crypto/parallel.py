"""Shared worker pools for the parallel sealing/unsealing pipeline.

The mirroring module fans per-buffer AES-GCM work across a
``ThreadPoolExecutor``.  The OpenSSL-backed
:class:`~repro.crypto.backend.CryptographyBackend` releases the GIL
during bulk cipher work, so on multi-core hosts the fan-out is a real
wall-clock win (the paper's Section VIII future work: "better exploit
system parallelism ... via threads in the untrusted runtime").

Workers are stateless, so pools are shared process-wide and keyed by
thread count — a simulation may construct many short-lived
``MirrorModule`` instances (one per crash/resume cycle) and must not
leak a pool per instance.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

#: Upper bound on pooled workers; AES-GCM at OpenSSL speed saturates
#: memory bandwidth long before this.
MAX_CRYPTO_THREADS = 16

_pools: Dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def resolve_crypto_threads(requested: Optional[int] = None) -> int:
    """Resolve a worker count: an explicit request, else the CPU count."""
    if requested is None:
        requested = os.cpu_count() or 1
    if requested < 1:
        raise ValueError(f"crypto_threads must be >= 1, got {requested}")
    return min(requested, MAX_CRYPTO_THREADS)


def get_executor(threads: int) -> ThreadPoolExecutor:
    """A shared executor with ``threads`` workers (created lazily)."""
    if threads < 2:
        raise ValueError("executors are only used for threads >= 2")
    if threads > MAX_CRYPTO_THREADS:
        raise ValueError(
            f"crypto_threads capped at {MAX_CRYPTO_THREADS}, got {threads}"
        )
    with _pools_lock:
        pool = _pools.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-crypto-{threads}"
            )
            _pools[threads] = pool
        return pool


def shutdown_executors() -> None:
    """Tear down all shared pools (tests and benchmark teardown)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)
