"""LCK001 — lock-guarded fields are only mutated under their lock.

Classes such as ``EncryptionEngine`` (``stats`` under ``_stats_lock``)
and the obs ``CounterRegistry``/``TraceRecorder`` (``_counters``/
``spans`` under ``_lock``) stay correct when an embedding program
drives them from several threads.  A mutation that skips the
``with self._lock`` block is a data race the test suite will almost
never catch (nothing in ``src/`` starts a thread).

Instead of a hand-maintained registry of guarded classes, the rule
self-calibrates per class:

1. lock attributes are attributes assigned a
   ``threading.Lock()``/``RLock()`` in any method
   (:data:`~repro.analysis.lint.config.LOCK_CONSTRUCTORS`);
2. a field is *guarded* if at least one mutation of it happens inside
   ``with self.<lock>:`` somewhere in the class;
3. every other mutation of a guarded field — outside ``__init__``,
   which runs before the object is shared — is a finding.

"Mutation" covers subscript stores (``self.stats[k] = v``), augmented
assignment (``self.total += n``), and in-place container methods
(``self.spans.append(...)``).  Rebinding ``self.field = fresh`` in
``__init__`` is setup, not a race.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.config import (
    LOCK_CONSTRUCTORS,
    MUTATING_METHODS,
    LintConfig,
)
from repro.analysis.lint.framework import Finding, ModuleSource, Rule, Severity


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.field`` -> ``field``; anything else -> ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_field(node: ast.AST) -> Optional[Tuple[str, ast.AST]]:
    """If ``node`` mutates ``self.<field>``, return (field, site)."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            # self.stats[key] = value  (container store, not rebinding)
            if isinstance(target, ast.Subscript):
                field = _self_attr(target.value)
                if field is not None:
                    return field, node
    elif isinstance(node, ast.AugAssign):
        field = _self_attr(node.target)
        if field is not None:
            return field, node
        if isinstance(node.target, ast.Subscript):
            field = _self_attr(node.target.value)
            if field is not None:
                return field, node
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            field = _self_attr(func.value)
            if field is not None:
                return field, node
    return None


class LockDisciplineRule(Rule):
    """Guarded-field mutation outside ``with self._lock``."""

    rule_id = "LCK001"
    severity = Severity.ERROR
    title = "lock-guarded field mutated outside its lock"

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(src, node)

    # ------------------------------------------------------------------
    def _check_class(
        self, src: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        lock_attrs = self._lock_attributes(src, cls)
        if not lock_attrs:
            return
        # (field, site, under_lock, in_init) for every mutation of self.*
        mutations: List[Tuple[str, ast.AST, bool, bool]] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = method.name == "__init__"
            for node in ast.walk(method):
                hit = _mutated_field(node)
                if hit is None:
                    continue
                field, site = hit
                under = self._under_lock(src, site, lock_attrs)
                mutations.append((field, site, under, in_init))
        guarded: Set[str] = {
            field for field, _, under, _ in mutations if under
        }
        for field, site, under, in_init in mutations:
            if field in guarded and not under and not in_init:
                yield self.finding(
                    src,
                    site,
                    f"'self.{field}' is lock-guarded elsewhere in "
                    f"{cls.name} but mutated here outside "
                    "'with self.<lock>:'",
                )

    # ------------------------------------------------------------------
    def _lock_attributes(
        self, src: ModuleSource, cls: ast.ClassDef
    ) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            dotted = src.dotted(node.value.func)
            if dotted not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                field = _self_attr(target)
                if field is not None:
                    locks.add(field)
        return locks

    def _under_lock(
        self, src: ModuleSource, node: ast.AST, lock_attrs: Set[str]
    ) -> bool:
        for ancestor in src.ancestors(node):
            if not isinstance(ancestor, ast.With):
                continue
            for item in ancestor.items:
                field = _self_attr(item.context_expr)
                if field is not None and field in lock_attrs:
                    return True
        return False
