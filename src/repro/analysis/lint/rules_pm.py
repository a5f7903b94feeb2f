"""PM001 — every PM store goes through a Romulus durable transaction.

Paper invariant (Section II / V): a crash must never observe a
half-written mirror or data matrix, which holds only if all PM mutation
is funnelled through the twin-copy transaction protocol
(``tx.write`` / ``tx.write_prefilled``).  A raw ``device.write``,
``device.copy_within`` or a writable ``staging_view`` acquired outside a
transaction bypasses the volatile log: the bytes are neither covered by
the MUTATING/COPYING state machine nor restored on abort.

The rule flags:

* calls to ``write``/``write_prefilled``/``copy_within`` whose receiver
  looks like a PM object (``device``, ``pm``, ``region`` tails — the
  sanctioned ``tx.*`` path never matches);
* any acquisition of a writable PM view (``staging_view`` /
  ``volatile_view``) — mutation-by-aliasing;

unless the call is lexically inside a ``with <region>.begin_transaction()``
(or ``with Transaction(...)``) block, or the module is one of the
protocol implementations (:data:`~repro.analysis.lint.config.PM_PROTOCOL_MODULES`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.config import (
    PM_RECEIVER_TAILS,
    PM_VIEW_METHODS,
    PM_WRITE_METHODS,
    is_pm_protocol_module,
)
from repro.analysis.lint.framework import Finding, ModuleSource, Rule, Severity

_TX_FACTORY_NAMES = frozenset({"begin_transaction", "Transaction"})


def _is_transaction_context(src: ModuleSource, node: ast.AST) -> bool:
    """Whether ``node`` sits inside a ``with ...begin_transaction()`` or
    ``with Transaction(...)`` block."""
    for ancestor in src.ancestors(node):
        if not isinstance(ancestor, ast.With):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            func = expr.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if name in _TX_FACTORY_NAMES:
                return True
    return False


class PmStoreDisciplineRule(Rule):
    """Raw PM mutation outside a Romulus transaction."""

    rule_id = "PM001"
    severity = Severity.ERROR
    title = "PM store outside a Romulus durable transaction"

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        if is_pm_protocol_module(src.module):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            method = func.attr
            if method in PM_VIEW_METHODS:
                if _is_transaction_context(src, node):
                    continue
                yield self.finding(
                    src,
                    node,
                    f"writable PM view '{method}' acquired outside a "
                    "Romulus transaction; the covering transaction must "
                    "account the range with tx.write_prefilled before "
                    "commit",
                )
                continue
            if method not in PM_WRITE_METHODS:
                continue
            tail = src.receiver_tail(func)
            if tail is None or tail not in PM_RECEIVER_TAILS:
                continue
            # Raw device stores bypass the volatile log even inside a
            # ``with tx`` block — only the tx.* methods are sanctioned,
            # so (unlike view acquisition) no transaction-context escape.
            yield self.finding(
                src,
                node,
                f"raw PM store '{tail}.{method}(...)' bypasses the "
                "Romulus transaction protocol; route the write through "
                "tx.write / tx.write_prefilled",
            )
