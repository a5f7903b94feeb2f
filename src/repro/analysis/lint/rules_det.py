"""DET001 — sim-time governed code must stay deterministic.

The reproduction reports all paper figures in *simulated* time
(:mod:`repro.simtime`): a run is a pure function of its seed and cost
profile, which is what makes the figure tests assertable.  A wall-clock
read (``time.time``, ``datetime.now``) or a draw from hidden global RNG
state (``random.random``, ``np.random.rand``, an unseeded
``default_rng()``) silently breaks that reproducibility.

The rule resolves call chains through the module's import aliases
(``import numpy as np`` → ``np.random.rand`` matches
``numpy.random.rand``) and flags, in every sim-time governed module:

* calls in :data:`~repro.analysis.lint.config.NONDETERMINISTIC_CALLS`
  (wall clocks, ``os.urandom``, ``secrets``, ``uuid1/4``);
* module-level RNG functions drawing from global state
  (:data:`~repro.analysis.lint.config.GLOBAL_RNG_FUNCTIONS`);
* seedable constructors called with no arguments at all
  (:data:`~repro.analysis.lint.config.SEEDED_CONSTRUCTORS`).

The ``repro.obs`` wall-clock observability lane, benchmarks, and the
analysis tooling are exempt (``DET_EXEMPT_PREFIXES``).  Findings are
WARNING severity — they fail the run only under ``--strict`` — because
a handful of legitimate entropy defaults exist (key generation,
caller-convenience RNG fallbacks) and each carries a suppression with
its rationale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.config import (
    GLOBAL_RNG_FUNCTIONS,
    NONDETERMINISTIC_CALLS,
    SEEDED_CONSTRUCTORS,
    is_det_governed,
)
from repro.analysis.lint.framework import Finding, ModuleSource, Rule, Severity


class SimtimeDeterminismRule(Rule):
    """Wall clocks / hidden-state RNG in sim-time governed modules."""

    rule_id = "DET001"
    severity = Severity.WARNING
    title = "nondeterministic call in a sim-time governed module"

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        if not is_det_governed(src.module):
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(src, node)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                yield from self._check_reference(src, node)

    # ------------------------------------------------------------------
    def _check_call(
        self, src: ModuleSource, node: ast.Call
    ) -> Iterator[Finding]:
        dotted = src.dotted(node.func)
        if dotted is None:
            return
        if dotted in NONDETERMINISTIC_CALLS:
            yield self.finding(
                src,
                node,
                f"'{dotted}' reads the wall clock or host entropy; "
                "sim-time modules must derive time from SimClock and "
                "randomness from a seeded generator",
            )
        elif dotted in GLOBAL_RNG_FUNCTIONS:
            yield self.finding(
                src,
                node,
                f"'{dotted}' draws from hidden global RNG state; use a "
                "seeded Generator threaded through the call chain",
            )
        elif dotted in SEEDED_CONSTRUCTORS and not node.args and not node.keywords:
            yield self.finding(
                src,
                node,
                f"'{dotted}()' constructed without an explicit seed; "
                "pass the run's seed so replays are bit-identical",
            )

    def _check_reference(
        self, src: ModuleSource, node: ast.AST
    ) -> Iterator[Finding]:
        """Bare references like ``rand = os.urandom`` (call-less capture)."""
        parent = src.parents.get(id(node))
        if isinstance(parent, (ast.Call, ast.Attribute)):
            return  # handled as a call, or an inner link of a longer chain
        dotted = src.dotted(node)
        if dotted in NONDETERMINISTIC_CALLS:
            yield self.finding(
                src,
                node,
                f"reference to '{dotted}' captures a wall-clock/entropy "
                "source; inject a deterministic callable instead",
            )
