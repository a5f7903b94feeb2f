"""Orchestration of the interprocedural flow analyses.

:class:`FlowEngine` builds the whole-program index once (project →
call graph) and runs the two analyses over it; :class:`FlowResult`
carries their findings (``# repro: noqa`` directives already applied)
plus wall-clock timing so the CI budget assertion (< 60 s on the full
repo) has a number to check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.durability import DurabilityAnalysis
from repro.analysis.flow.durability import RULE_ID as DUR_RULE_ID
from repro.analysis.flow.durability import TITLE as DUR_TITLE
from repro.analysis.flow.project import Project
from repro.analysis.flow.taint import RULE_ID as SEC_RULE_ID
from repro.analysis.flow.taint import TITLE as SEC_TITLE
from repro.analysis.flow.taint import TaintAnalysis
from repro.analysis.lint.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.lint.framework import Finding


def flow_rule_catalog() -> Dict[str, Tuple[str, str]]:
    """rule id -> (title, severity string) for the flow rule family."""
    return {
        SEC_RULE_ID: (SEC_TITLE, "error"),
        DUR_RULE_ID: (DUR_TITLE, "error"),
    }


@dataclass
class FlowResult:
    """Outcome of one whole-program flow pass."""

    findings: List[Finding] = field(default_factory=list)
    seconds: float = 0.0
    #: Size of the analyzed program (modules/functions/call edges).
    stats: Dict[str, int] = field(default_factory=dict)


class FlowEngine:
    """Builds the program index and runs SEC001/DUR001."""

    def __init__(self, project: Project, config: LintConfig) -> None:
        self.project = project
        self.config = config
        self.graph = CallGraph(project)

    @classmethod
    def build(
        cls, paths: Sequence[Path], config: LintConfig = DEFAULT_CONFIG
    ) -> "FlowEngine":
        return cls(Project.load(paths), config)

    def analyze(self) -> FlowResult:
        started = time.perf_counter()
        findings: List[Finding] = []
        taint = TaintAnalysis(self.project, self.graph, self.config)
        findings.extend(taint.findings())
        durability = DurabilityAnalysis(self.project, self.graph, self.config)
        findings.extend(durability.findings())
        suppressions = {
            str(src.path): src.suppressions for src in self.project.sources
        }
        findings = [
            f for f in findings if not suppressions[f.path].is_suppressed(f)
        ]
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        edges = sum(
            len(site.callees)
            for sites in self.graph.sites_by_caller.values()
            for site in sites
        )
        return FlowResult(
            findings=findings,
            seconds=time.perf_counter() - started,
            stats={
                "modules": len(self.project.modules),
                "functions": len(self.project.functions),
                "classes": len(self.project.classes),
                "call_edges": edges,
            },
        )
