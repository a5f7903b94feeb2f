"""ALLOC001 — the serve hot path must not allocate.

The batched inference path (``ServingEnclave.handle_batch``) runs
allocation-free after warmup: every tensor it touches lives in the
preallocated :class:`~repro.darknet.arena.TensorArena`, and the
micro-benchmarks gate on that property (a stray ``np.zeros`` in the
per-request loop erases the batching win and shows up as arena
*misses* in steady state).

The rule flags direct calls to numpy's allocating constructors
(:data:`~repro.analysis.lint.config.NUMPY_ALLOCATOR_CALLS`: ``zeros``,
``empty``, ``concatenate``, ``stack`` and friends) inside the declared
hot-path modules (:data:`~repro.analysis.lint.config.HOT_PATH_MODULES`).
Setup-time allocation is still legitimate in exactly one place — the
arena's own miss path — and each such call carries a
``# repro: noqa[ALLOC001] -- <why>`` rationale, which is the audited
escape hatch this rule set requires.

Alias-resolved like every other rule: ``import numpy as np`` →
``np.zeros`` matches ``numpy.zeros``; ``from numpy import concatenate``
matches too.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.config import (
    NUMPY_ALLOCATOR_CALLS,
    is_hot_path,
)
from repro.analysis.lint.framework import Finding, ModuleSource, Rule, Severity


class HotPathAllocationRule(Rule):
    """Numpy array allocation inside an allocation-free hot-path module."""

    rule_id = "ALLOC001"
    severity = Severity.ERROR
    title = "numpy allocation in an arena-backed hot-path module"

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        if not is_hot_path(src.module):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = src.dotted(node.func)
            if dotted in NUMPY_ALLOCATOR_CALLS:
                yield self.finding(
                    src,
                    node,
                    f"'{dotted}' allocates a fresh array on the serve hot "
                    "path; take a view from the TensorArena instead (or "
                    "suppress with a rationale if this is genuinely "
                    "setup-time)",
                )
