"""Project-wide call graph over :class:`~repro.analysis.flow.project.Project`.

Edges are *may-call*: each :class:`CallSite` records every project
function the call could land in (method calls resolve through the
receiver's inferred class, falling back to a capped same-name match).
Calls that resolve to nothing are external — the analyses treat them
as opaque.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.flow.project import FunctionInfo, Project


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
        for fn in project.functions.values():
            self._index_function(fn)

    def _index_function(self, fn: FunctionInfo) -> None:
        sites: List[CallSite] = []
        env = self.project.local_env(fn)
        for node in fn.walk():
            if not isinstance(node, ast.Call):
                continue
            callees = self.project.resolve_callees(fn, node, env)
            site = CallSite(caller=fn, node=node, callees=callees)
            sites.append(site)
            for callee in callees:
                self.callers_of.setdefault(callee.qualname, []).append(site)
        self.sites_by_caller[fn.qualname] = sites
