"""DUR001 — static durability ordering for publication writes.

The two crash bugs PR 4 found dynamically share one shape: a
*publication* — a store that makes other stores reachable — became
durable before the payload it points to.  Concretely:

* the region **magic** (``device.write(base, MAGIC)``) was flushed
  before the allocator metadata/twin snapshot it promises;
* the PM-data **root pointer** (``tx.write_u64(root_offset(...), ...)``)
  was published in the same transaction as the header, before the row
  payloads were written.

This pass extracts an ordered *effect sequence* per function — writes,
flushes, fences, transaction begin/end, and publications — splicing in
resolved callees' sequences at their call sites, then checks two
orderings along that sequence:

* **magic rule** — when a flush covers a pending magic write (the
  publication point), every other write must already be durable
  (flushed *and* fenced) or covered by that same flush;
* **root rule** — once a root publication commits (its transaction
  ends), no later write may follow in the same function: the
  publication must be the operation's final durability action.

Write/flush ranges are compared *textually* (``ast.unparse`` of the
offset expression, spaces stripped): ``self.base+8`` is covered by a
flush of ``self.base`` via prefix match.  This is deliberately
syntactic — it can't prove overlap, but the protocol code addresses
ranges with stable expressions, and the mutants differ exactly in
effect *order*, which the model captures faithfully.

Spliced (callee) effects keep the call-site location and are marked
non-own; findings require an *own* anchor so a violation inside a
helper is reported once, in the helper, not at every caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.flow.taint import _call_name
from repro.analysis.lint.framework import Finding, Severity

RULE_ID = "DUR001"
SEVERITY = Severity.ERROR
TITLE = "publication write not dominated by flush+fence of its payload"

#: Module prefixes whose functions the checker examines (the durability
#: protocols and their two in-repo clients).
SCOPE_PREFIXES: Tuple[str, ...] = (
    "repro.romulus",
    "repro.core.mirror",
    "repro.core.pm_data",
)

#: Receiver tails whose ``write*`` methods are transactional.
_TX_RECEIVERS = frozenset({"tx", "transaction"})
#: Receiver tails whose ``write*`` methods hit the device directly.
_DEVICE_RECEIVERS = frozenset({"pm", "pmem", "device", "region", "ssd"})
_WRITE_METHODS = frozenset({"write", "write_u64", "write_prefilled"})

#: Cap on a single function's (spliced) effect sequence.
_MAX_EFFECTS = 400


@dataclass
class Effect:
    """One durability-relevant action at a point in a function."""

    kind: str  # write | magic | pubroot | flush | fence | txbegin | txend
    key: str  # normalized offset expression ("" for fence/tx markers)
    line: int
    col: int
    own: bool  # syntactically in the checked function (vs spliced)
    via: str = ""  # callee qualname when spliced


def _norm(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr).replace(" ", "")
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


def _covers(flush_key: str, write_key: str) -> bool:
    """Whether a flush of ``flush_key`` covers a write at ``write_key``."""
    return write_key == flush_key or write_key.startswith(flush_key + "+")


def _mentions_magic(expr: Optional[ast.expr]) -> bool:
    if expr is None:
        return False
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "MAGIC" in node.id.upper():
            return True
        if isinstance(node, ast.Attribute) and "MAGIC" in node.attr.upper():
            return True
    return False


def _mentions_root_offset(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name == "root_offset":
                return True
    return False


def _is_constant_zero(expr: Optional[ast.expr]) -> bool:
    return (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, int)
        and expr.value == 0
    )


def _is_tx_context(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    name = _call_name(expr.func)
    if name is None:
        return False
    return name == "begin_transaction" or name.endswith("Transaction")


class DurabilityAnalysis:
    """Effect extraction + the two ordering checks."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self._cache: Dict[str, List[Effect]] = {}
        self._building: Set[str] = set()

    # ------------------------------------------------------------------
    # Effect extraction
    # ------------------------------------------------------------------
    def effects_of(self, fn: FunctionInfo) -> List[Effect]:
        cached = self._cache.get(fn.qualname)
        if cached is not None:
            return cached
        if fn.qualname in self._building:
            return []  # recursion: cut the cycle
        self._building.add(fn.qualname)
        try:
            out: List[Effect] = []
            for stmt in fn.node.body:
                self._stmt_effects(fn, stmt, out)
                if len(out) >= _MAX_EFFECTS:
                    break
            out = out[:_MAX_EFFECTS]
            self._cache[fn.qualname] = out
            return out
        finally:
            self._building.discard(fn.qualname)

    def _stmt_effects(
        self, fn: FunctionInfo, stmt: ast.stmt, out: List[Effect]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.With):
            is_tx = any(_is_tx_context(item.context_expr) for item in stmt.items)
            for item in stmt.items:
                self._expr_effects(fn, item.context_expr, out)
            if is_tx:
                out.append(
                    Effect("txbegin", "", stmt.lineno, stmt.col_offset, True)
                )
            for inner in stmt.body:
                self._stmt_effects(fn, inner, out)
            if is_tx:
                out.append(
                    Effect("txend", "", stmt.lineno, stmt.col_offset, True)
                )
            return
        if isinstance(stmt, (ast.If,)):
            self._expr_effects(fn, stmt.test, out)
            for inner in stmt.body + stmt.orelse:
                self._stmt_effects(fn, inner, out)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr_effects(fn, stmt.iter, out)
            for inner in stmt.body + stmt.orelse:
                self._stmt_effects(fn, inner, out)
            return
        if isinstance(stmt, ast.While):
            self._expr_effects(fn, stmt.test, out)
            for inner in stmt.body + stmt.orelse:
                self._stmt_effects(fn, inner, out)
            return
        if isinstance(stmt, ast.Try):
            for inner in stmt.body:
                self._stmt_effects(fn, inner, out)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._stmt_effects(fn, inner, out)
            for inner in stmt.orelse + stmt.finalbody:
                self._stmt_effects(fn, inner, out)
            return
        # Leaf statement: collect calls in evaluation order.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._call_effects(fn, node, out)

    def _expr_effects(
        self, fn: FunctionInfo, expr: ast.expr, out: List[Effect]
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._call_effects(fn, node, out)

    def _call_effects(
        self, fn: FunctionInfo, node: ast.Call, out: List[Effect]
    ) -> None:
        name = _call_name(node.func)
        line, col = node.lineno, node.col_offset
        if name is None:
            return
        if isinstance(node.func, ast.Attribute):
            tail = fn.src.receiver_tail(node.func)
            if name in _WRITE_METHODS and tail in _TX_RECEIVERS and node.args:
                value = node.args[1] if len(node.args) > 1 else None
                if _mentions_root_offset(node.args[0]) and not _is_constant_zero(
                    value
                ):
                    out.append(Effect("pubroot", _norm(node.args[0]), line, col, True))
                else:
                    out.append(Effect("write", _norm(node.args[0]), line, col, True))
                return
            if name in _WRITE_METHODS and tail in _DEVICE_RECEIVERS and node.args:
                value = node.args[1] if len(node.args) > 1 else None
                kind = "magic" if _mentions_magic(value) else "write"
                out.append(Effect(kind, _norm(node.args[0]), line, col, True))
                return
            if name == "copy_within" and len(node.args) >= 2:
                out.append(Effect("write", _norm(node.args[1]), line, col, True))
                return
            if name == "flush" and node.args:
                out.append(Effect("flush", _norm(node.args[0]), line, col, True))
                return
            if name == "persist" and node.args:
                out.append(Effect("flush", _norm(node.args[0]), line, col, True))
                out.append(Effect("fence", "", line, col, True))
                return
            if name == "fence":
                out.append(Effect("fence", "", line, col, True))
                return
        # Project callee: splice its sequence at the call site.
        for callee in self.project.resolve_callees(fn, node):
            if callee.qualname == fn.qualname:
                continue
            for effect in self.effects_of(callee):
                out.append(
                    Effect(
                        effect.kind,
                        effect.key,
                        line,
                        col,
                        own=False,
                        via=effect.via or callee.qualname,
                    )
                )
                if len(out) >= _MAX_EFFECTS:
                    return
            break  # one candidate's sequence is enough context

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def findings(self) -> Iterator[Finding]:
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            if not self._in_scope(fn.module):
                continue
            yield from self._check_function(fn)

    def _in_scope(self, module: str) -> bool:
        return any(
            module == p or module.startswith(p + ".") for p in SCOPE_PREFIXES
        )

    def _finding(
        self, fn: FunctionInfo, effect: Effect, message: str
    ) -> Finding:
        return Finding(
            rule_id=RULE_ID,
            severity=SEVERITY,
            path=str(fn.src.path),
            line=effect.line,
            col=effect.col,
            message=message,
            module=fn.module,
        )

    def _check_function(self, fn: FunctionInfo) -> Iterator[Finding]:
        effects = self.effects_of(fn)
        if not effects:
            return
        yield from self._check_magic(fn, effects)
        yield from self._check_pubroot(fn, effects)

    def _check_magic(
        self, fn: FunctionInfo, effects: List[Effect]
    ) -> Iterator[Finding]:
        """A flush covering a pending magic write is the publication
        point: every other write must be durable or co-flushed."""
        # write key -> (state, effect); state in {dirty, flushed, durable}
        writes: Dict[str, Tuple[str, Effect]] = {}
        pending_magic: List[Effect] = []
        tx_depth = 0
        tx_writes: List[str] = []
        for effect in effects:
            if effect.kind == "txbegin":
                tx_depth += 1
            elif effect.kind == "txend":
                tx_depth = max(0, tx_depth - 1)
                for key in tx_writes:
                    state, node = writes[key]
                    writes[key] = ("durable", node)
                tx_writes = []
            elif effect.kind in ("write", "pubroot"):
                writes[effect.key] = ("dirty", effect)
                if tx_depth > 0 and effect.key not in tx_writes:
                    tx_writes.append(effect.key)
            elif effect.kind == "magic":
                pending_magic.append(effect)
                writes[effect.key] = ("dirty", effect)
            elif effect.kind == "flush":
                published = [
                    m for m in pending_magic if _covers(effect.key, m.key)
                ]
                if published:
                    pending_magic = [
                        m for m in pending_magic if m not in published
                    ]
                    offenders = [
                        (key, state_effect)
                        for key, state_effect in writes.items()
                        if state_effect[0] != "durable"
                        and not _covers(effect.key, key)
                    ]
                    for key, (state, wnode) in offenders:
                        # Both effects spliced from the same call site
                        # means the violation is entirely inside one
                        # callee — that callee's own check reports it.
                        same_splice = (
                            not effect.own
                            and not wnode.own
                            and (effect.line, effect.col)
                            == (wnode.line, wnode.col)
                        )
                        if same_splice:
                            continue
                        anchor = effect if effect.own else wnode
                        via = f" (via {wnode.via})" if wnode.via else ""
                        yield self._finding(
                            fn,
                            anchor,
                            "magic/header publication flushed while write "
                            f"to '{key}'{via} is not yet durable "
                            f"({state}); flush+fence the payload before "
                            "publishing the magic",
                        )
                for key, (state, wnode) in list(writes.items()):
                    if state == "dirty" and _covers(effect.key, key):
                        writes[key] = ("flushed", wnode)
            elif effect.kind == "fence":
                for key, (state, wnode) in list(writes.items()):
                    if state == "flushed":
                        writes[key] = ("durable", wnode)

    def _check_pubroot(
        self, fn: FunctionInfo, effects: List[Effect]
    ) -> Iterator[Finding]:
        """A committed root publication must be the function's final
        write: payload stores after it are reachable-before-durable."""
        pending_pub: Optional[Effect] = None  # written, tx still open
        active_pub: Optional[Effect] = None  # committed (reachable)
        tx_depth = 0
        for effect in effects:
            if effect.kind == "pubroot" and effect.own:
                if tx_depth > 0:
                    pending_pub = effect
                else:
                    active_pub = effect
            elif effect.kind == "txbegin":
                tx_depth += 1
            elif effect.kind == "txend":
                tx_depth = max(0, tx_depth - 1)
                if pending_pub is not None and tx_depth == 0:
                    active_pub = pending_pub
                    pending_pub = None
            elif effect.kind in ("write", "magic") and active_pub is not None:
                anchor = effect if effect.own else active_pub
                via = f" (via {effect.via})" if effect.via else ""
                yield self._finding(
                    fn,
                    anchor,
                    f"write to '{effect.key}'{via} occurs after the root "
                    f"publication at line {active_pub.line}; publish the "
                    "root only after every payload write is durable",
                )
                active_pub = None  # one finding per publication
