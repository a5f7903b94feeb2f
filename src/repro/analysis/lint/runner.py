"""Discovery + orchestration: run every rule over a set of paths.

``run_paths`` is the single entry point the CLI and the tests share.
Exit-code policy: ERROR findings always fail the run; WARNING findings
fail only under ``--strict`` (the CI lint job passes ``--strict`` so a
new wall-clock call cannot land silently).

Two passes run on every call:

* the **per-module** rules (one file at a time, no cross-file state);
* the **flow** pass (:mod:`repro.analysis.flow`) — whole-program
  SEC001 over every discovered file.

Flow findings go through the same per-file suppression machinery as
per-module findings (``# repro: noqa[SEC001] -- rationale``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.lint.framework import (
    Finding,
    ModuleSource,
    Rule,
    Severity,
    suppression_findings,
)
from repro.analysis.lint.rules_alloc import HotPathAllocationRule
from repro.analysis.lint.rules_det import SimtimeDeterminismRule
from repro.analysis.lint.rules_lck import LockDisciplineRule
from repro.analysis.lint.rules_sec import EnclaveBoundaryRule


def default_rules() -> List[Rule]:
    """The full rule set, in report order."""
    return [
        EnclaveBoundaryRule(),
        SimtimeDeterminismRule(),
        HotPathAllocationRule(),
        LockDisciplineRule(),
    ]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    #: Wall-clock seconds the flow pass took.
    flow_seconds: float
    #: Program-size counters from the flow engine (modules, functions,
    #: call edges, ...).
    flow_stats: Dict[str, int]

    def exit_code(self, strict: bool = False) -> int:
        if any(f.severity is Severity.ERROR for f in self.findings):
            return 1
        if strict and self.findings:
            return 1
        return 0


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # de-duplicate while keeping the sorted-per-argument order
    seen = set()
    unique: List[Path] = []
    for f in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def lint_file(
    path: Path, rules: Iterable[Rule]
) -> Tuple[List[Finding], List[Finding]]:
    """Lint one file; returns (kept findings, suppressed findings)."""
    src = ModuleSource.load(path)
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(src))
    raw.extend(suppression_findings(src))
    kept = [f for f in raw if not src.suppressions.is_suppressed(f)]
    dropped = [f for f in raw if src.suppressions.is_suppressed(f)]
    return kept, dropped


def run_paths(paths: Sequence[Path]) -> LintResult:
    """Lint every ``.py`` file under ``paths`` with the default rules
    and the whole-program flow pass."""
    # Imported lazily: the flow package imports ``repro.analysis.lint``,
    # whose ``__init__`` imports this module.
    from repro.analysis.flow import FlowEngine

    active = default_rules()
    files = discover_files(paths)
    findings: List[Finding] = []
    for path in files:
        kept, _ = lint_file(path, active)
        findings.extend(kept)
    flow = FlowEngine.build(files).analyze()
    return LintResult(
        findings=findings + flow.findings,
        files_checked=len(files),
        flow_seconds=flow.seconds,
        flow_stats=flow.stats,
    )
