"""Project-wide call graph over :class:`~repro.analysis.flow.project.Project`.

Edges are *may-call*: each :class:`CallSite` records every project
function the call could land in (method calls resolve through the
receiver's inferred class, falling back to a capped same-name match).
Calls that resolve to nothing are external — the analyses treat them
as opaque.

Thread roots are recorded separately: callables handed to
``pool.map`` / ``executor.submit``, ``threading.Thread(target=...)``,
and event-callback registrars (``gateway.schedule_call``) run off the
defining thread, so everything reachable from them is concurrent with
the main thread.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.flow.project import FunctionInfo, Project

#: ``recv.<name>(fn, ...)`` hands ``fn`` to another thread.
_SPAWN_METHODS = frozenset({"map", "submit"})
#: ``recv.<name>(when, fn)`` registers ``fn`` as an event callback that
#: the gateway loop invokes outside the registering call stack.
_CALLBACK_REGISTRARS = frozenset({"schedule_call"})


@dataclass
class CallSite:
    """One syntactic call inside ``caller`` with resolved targets."""

    caller: FunctionInfo
    node: ast.Call
    callees: List[FunctionInfo] = field(default_factory=list)


class CallGraph:
    """Forward call sites plus the reverse (callers-of) index."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.sites_by_caller: Dict[str, List[CallSite]] = {}
        #: callee qualname -> call sites that may invoke it.
        self.callers_of: Dict[str, List[CallSite]] = {}
        #: Functions invoked from worker threads or event callbacks.
        self.thread_roots: Set[str] = set()
        for fn in project.functions.values():
            self._index_function(fn)

    def _index_function(self, fn: FunctionInfo) -> None:
        sites: List[CallSite] = []
        env = self.project.local_env(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callees = self.project.resolve_callees(fn, node, env)
            site = CallSite(caller=fn, node=node, callees=callees)
            sites.append(site)
            for callee in callees:
                self.callers_of.setdefault(callee.qualname, []).append(site)
            self._detect_spawn(fn, node, env)
        self.sites_by_caller[fn.qualname] = sites

    def _detect_spawn(
        self, fn: FunctionInfo, node: ast.Call, env: Dict[str, str]
    ) -> None:
        func = node.func
        candidates: List[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr in _SPAWN_METHODS:
            if node.args:
                candidates.append(node.args[0])
        elif isinstance(func, ast.Attribute) and func.attr in _CALLBACK_REGISTRARS:
            candidates.extend(node.args)
            candidates.extend(kw.value for kw in node.keywords)
        else:
            dotted = fn.src.dotted(func)
            if dotted == "threading.Thread":
                for kw in node.keywords:
                    if kw.arg == "target":
                        candidates.append(kw.value)
        for expr in candidates:
            for target in self.project.resolve_callable_ref(fn, expr, env):
                self.thread_roots.add(target.qualname)

    def reachable_from_roots(self) -> Set[str]:
        """Qualnames transitively callable from any thread root."""
        seen: Set[str] = set()
        stack = list(self.thread_roots)
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            for site in self.sites_by_caller.get(qualname, []):
                for callee in site.callees:
                    if callee.qualname not in seen:
                        stack.append(callee.qualname)
        return seen
