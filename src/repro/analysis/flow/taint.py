"""SEC001 — plaintext reaches a PM/untrusted sink without sealing.

Plaintext model weights, tensors, or training rows must pass through
``EncryptionEngine.seal*`` before they reach persistent memory, the
SSD, or cross an ocall into untrusted host code (paper Section IV:
"everything that leaves the enclave is AES-GCM sealed").  The taint
model:

* **sources** — calls that yield plaintext bytes (``save_weights``,
  ``arr.tobytes()``, ``parameter_buffers()``, ``np.ascontiguousarray``),
  freshly decrypted data (``unseal``/``decrypt``), and identifiers whose
  name marks them as plaintext;
* **propagation** — assignments, augmented assignments, concatenation,
  ``bytes``/``bytearray``/``memoryview`` wrapping, subscripts;
* **sanitizers** — any ``*seal*``/``*encrypt*`` call (except the
  ``unseal``/``decrypt`` family) cleans its result;
* **sinks** — ``tx.write``/``device.write``/``ssd.write``-style storage
  methods and ``runtime.ocall`` arguments.

Within a function the analysis is flow-insensitive (a name assigned a
tainted value anywhere is tainted everywhere), trading a few
suppressible false positives for zero missed flows.  Across functions
every function gets a :class:`TaintSummary`:

* ``returns_taint`` — the return value is plaintext (a source, or
  derived from one);
* ``taint_params`` — parameter indices whose taint reaches the return
  value (identity-ish helpers: padding, framing, chunking);
* ``sink_params`` — parameter indices that reach a persistence/ocall
  sink inside the callee (or deeper — summaries compose).

Summaries are iterated to a fixpoint over the call graph (a worklist
seeded with every function; a changed summary re-queues its callers).
A value carries the label ``T`` when it is plaintext and ``P<i>`` when
it flowed in through parameter ``i``.  A resolved callee whose summary
neither returns taint nor forwards the tainted parameter absorbs the
taint.  The rule fires on a ``T``-labelled argument at a sink, and on a
``T``-labelled argument handed to a callee whose summary says the
parameter reaches a sink (the message names the callee chain).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.lint.config import (
    SANITIZER_MARKERS,
    SINK_CALL_NAMES,
    SINK_WRITE_RECEIVERS,
    TAINT_DECRYPT_CALLS,
    TAINT_NAME_MARKERS,
    TAINT_SOURCE_CALLS,
    LintConfig,
)
from repro.analysis.lint.framework import Finding, Severity

RULE_ID = "SEC001"
SEVERITY = Severity.ERROR
TITLE = "plaintext reaches a PM/untrusted sink without sealing"

#: The value is plaintext.
TAINTED = "T"

Labels = FrozenSet[str]
_EMPTY: Labels = frozenset()
_TAINTED_ONLY: Labels = frozenset({TAINTED})

#: Calls that wrap a buffer without changing its confidentiality.
_WRAPPERS = frozenset({"bytes", "bytearray", "memoryview", "cast", "bin"})


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_sanitizer(name: str) -> bool:
    lowered = name.lower()
    if lowered in TAINT_DECRYPT_CALLS or "decrypt" in lowered:
        return False
    return any(marker in lowered for marker in SANITIZER_MARKERS)


def _name_is_tainted(identifier: str) -> bool:
    lowered = identifier.lower()
    return any(marker in lowered for marker in TAINT_NAME_MARKERS)


def _param_label(index: int) -> str:
    return f"P{index}"


def _param_index_of(label: str) -> Optional[int]:
    if label.startswith("P") and label[1:].isdigit():
        return int(label[1:])
    return None


@dataclass(frozen=True)
class SinkPath:
    """Why a parameter is dangerous: the call chain down to the sink."""

    chain: Tuple[str, ...]
    sink: str
    location: str


@dataclass(frozen=True)
class TaintSummary:
    """Caller-visible taint behaviour of one function."""

    returns_taint: bool = False
    taint_params: FrozenSet[int] = frozenset()
    sink_params: Tuple[Tuple[int, SinkPath], ...] = ()

    def sink_path(self, index: int) -> Optional[SinkPath]:
        for i, path in self.sink_params:
            if i == index:
                return path
        return None


class TaintAnalysis:
    """Fixpoint summary computation + SEC001 finding emission."""

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        self.project = project
        self.graph = graph
        self.config = config
        self.summaries: Dict[str, TaintSummary] = {}
        self._run_fixpoint()

    # ------------------------------------------------------------------
    # Fixpoint
    # ------------------------------------------------------------------
    def _run_fixpoint(self) -> None:
        worklist: List[str] = sorted(self.project.functions)
        queued: Set[str] = set(worklist)
        iterations = 0
        cap = max(64, len(worklist) * 8)
        while worklist and iterations < cap:
            iterations += 1
            qualname = worklist.pop()
            queued.discard(qualname)
            fn = self.project.functions[qualname]
            summary = self._summarize(fn)
            if summary != self.summaries.get(qualname):
                self.summaries[qualname] = summary
                for site in self.graph.callers_of.get(qualname, []):
                    caller = site.caller.qualname
                    if caller not in queued:
                        queued.add(caller)
                        worklist.append(caller)

    def summary_of(self, qualname: str) -> TaintSummary:
        return self.summaries.get(qualname, TaintSummary())

    # ------------------------------------------------------------------
    # Per-function evaluation
    # ------------------------------------------------------------------
    def _summarize(self, fn: FunctionInfo) -> TaintSummary:
        labels = self._propagate(fn)
        returns_taint = False
        taint_params: Set[int] = set()
        sink_params: Dict[int, SinkPath] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                got = self._eval(node.value, fn, labels)
                if TAINTED in got:
                    returns_taint = True
                for label in got:
                    index = _param_index_of(label)
                    if index is not None:
                        taint_params.add(index)
            elif isinstance(node, ast.Call):
                self._collect_sink_params(fn, node, labels, sink_params)
        return TaintSummary(
            returns_taint=returns_taint,
            taint_params=frozenset(taint_params),
            sink_params=tuple(sorted(sink_params.items())),
        )

    def _propagate(self, fn: FunctionInfo) -> Dict[str, Labels]:
        """Flow-insensitive name -> labels map, to a local fixpoint."""
        labels: Dict[str, Labels] = {}
        for index, name in enumerate(fn.params):
            labels[name] = frozenset({_param_label(index)})
        statements = [
            s
            for s in ast.walk(fn.node)
            if isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        ]
        for _ in range(4):
            changed = False
            for stmt in statements:
                targets: List[ast.expr]
                if isinstance(stmt, ast.Assign):
                    targets, value = list(stmt.targets), stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    if stmt.value is None:
                        continue
                    targets, value = [stmt.target], stmt.value
                else:
                    targets, value = [stmt.target], stmt.value
                got = self._eval(value, fn, labels)
                if not got:
                    continue
                for target in targets:
                    changed |= self._mark(target, got, labels, stmt)
            if not changed:
                break
        return labels

    def _mark(
        self,
        target: ast.expr,
        got: Labels,
        labels: Dict[str, Labels],
        stmt: ast.stmt,
    ) -> bool:
        if isinstance(target, ast.Name):
            merged = labels.get(target.id, _EMPTY) | got
            if isinstance(stmt, ast.AugAssign):
                merged |= labels.get(target.id, _EMPTY)
            if merged != labels.get(target.id, _EMPTY):
                labels[target.id] = merged
                return True
            return False
        if isinstance(target, (ast.Tuple, ast.List)):
            out = False
            for element in target.elts:
                out |= self._mark(element, got, labels, stmt)
            return out
        return False

    def _eval(
        self, node: ast.expr, fn: FunctionInfo, labels: Dict[str, Labels]
    ) -> Labels:
        if isinstance(node, ast.Name):
            got = labels.get(node.id, _EMPTY)
            if _name_is_tainted(node.id):
                got = got | _TAINTED_ONLY
            return got
        if isinstance(node, ast.Attribute):
            return _TAINTED_ONLY if _name_is_tainted(node.attr) else _EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node, fn, labels)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, fn, labels) | self._eval(
                node.right, fn, labels
            )
        if isinstance(node, ast.Subscript):
            return self._eval(node.value, fn, labels)
        if isinstance(node, ast.IfExp):
            return self._eval(node.body, fn, labels) | self._eval(
                node.orelse, fn, labels
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value, fn, labels)
        return _EMPTY

    def _eval_call(
        self, node: ast.Call, fn: FunctionInfo, labels: Dict[str, Labels]
    ) -> Labels:
        name = _call_name(node.func)
        if name is not None and _is_sanitizer(name):
            return _EMPTY
        # Name-based sources are tainted even when the callee resolves:
        # ``parameter_buffers()`` hands out live arrays, which no
        # summary would mark as plaintext bytes.
        if name is not None and (
            name in TAINT_SOURCE_CALLS
            or name in TAINT_DECRYPT_CALLS
            or _name_is_tainted(name)
        ):
            return _TAINTED_ONLY
        callees = self.graph.project.resolve_callees(fn, node)
        if callees:
            out: Set[str] = set()
            for callee in callees:
                summary = self.summary_of(callee.qualname)
                if summary.returns_taint:
                    out.add(TAINTED)
                for arg_index, expr in self._call_args(node, callee):
                    if arg_index in summary.taint_params:
                        out |= self._eval(expr, fn, labels)
            return frozenset(out)
        if name is None:
            return _EMPTY
        if name in _WRAPPERS:
            got: Set[str] = set()
            for arg in node.args:
                got |= self._eval(arg, fn, labels)
            if isinstance(node.func, ast.Attribute):
                got |= self._eval(node.func.value, fn, labels)
            return frozenset(got)
        return _EMPTY

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def _sink_name(self, fn: FunctionInfo, node: ast.Call) -> Optional[str]:
        name = _call_name(node.func)
        if name is None:
            return None
        if name in SINK_CALL_NAMES:
            return name
        if name == "write" and isinstance(node.func, ast.Attribute):
            tail = fn.src.receiver_tail(node.func)
            if tail in SINK_WRITE_RECEIVERS:
                return f"{tail}.write"
        return None

    def _call_args(
        self, node: ast.Call, callee: FunctionInfo
    ) -> Iterator[Tuple[int, ast.expr]]:
        """(callee param index, argument expr) pairs for a call site."""
        offset = 0
        if callee.is_method and isinstance(node.func, ast.Attribute):
            offset = 1  # self is bound by the receiver
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            yield position + offset, arg
        for kw in node.keywords:
            if kw.arg is None:
                continue
            index = callee.param_index(kw.arg)
            if index is not None:
                yield index, kw.value

    def _collect_sink_params(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        labels: Dict[str, Labels],
        sink_params: Dict[int, SinkPath],
    ) -> None:
        location = f"{fn.src.path}:{node.lineno}"
        sink = self._sink_name(fn, node)
        if sink is not None:
            for arg in node.args:
                for label in self._eval(arg, fn, labels):
                    index = _param_index_of(label)
                    if index is not None and index not in sink_params:
                        sink_params[index] = SinkPath(
                            chain=(fn.qualname,), sink=sink, location=location
                        )
            return
        # Transitive: a parameter handed to a callee whose own summary
        # reaches a sink makes *this* function's parameter dangerous.
        for callee in self.graph.project.resolve_callees(fn, node):
            summary = self.summary_of(callee.qualname)
            if not summary.sink_params:
                continue
            for arg_index, expr in self._call_args(node, callee):
                path = summary.sink_path(arg_index)
                if path is None or len(path.chain) >= 8:
                    continue
                for label in self._eval(expr, fn, labels):
                    index = _param_index_of(label)
                    if index is not None and index not in sink_params:
                        sink_params[index] = SinkPath(
                            chain=(fn.qualname,) + path.chain,
                            sink=path.sink,
                            location=path.location,
                        )

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def findings(self) -> Iterator[Finding]:
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            if self.config.is_sec_implementation_module(fn.module):
                continue
            yield from self._check_function(fn)

    def _finding(
        self, fn: FunctionInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=RULE_ID,
            severity=SEVERITY,
            path=str(fn.src.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            module=fn.module,
        )

    def _check_function(self, fn: FunctionInfo) -> Iterator[Finding]:
        labels = self._propagate(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_name(fn, node)
            if sink is not None:
                if any(
                    TAINTED in self._eval(arg, fn, labels) for arg in node.args
                ):
                    yield self._finding(
                        fn,
                        node,
                        f"plaintext reaches sink '{sink}' without an "
                        "intervening seal/encrypt step",
                    )
                continue
            yield from self._check_frontier(fn, node, labels)

    def _check_frontier(
        self, fn: FunctionInfo, node: ast.Call, labels: Dict[str, Labels]
    ) -> Iterator[Finding]:
        """A plaintext argument handed to a callee that sinks it."""
        for callee in self.graph.project.resolve_callees(fn, node):
            summary = self.summary_of(callee.qualname)
            for arg_index, expr in self._call_args(node, callee):
                path = summary.sink_path(arg_index)
                if path is not None and TAINTED in self._eval(expr, fn, labels):
                    chain = " -> ".join(path.chain)
                    yield self._finding(
                        fn,
                        node,
                        f"plaintext argument flows through {chain} to "
                        f"sink '{path.sink}' ({path.location}) without "
                        "an intervening seal/encrypt step",
                    )
                    return
