"""Repo-specific invariant linter (see docs/static-analysis.md).

Rule-based AST analysis encoding the Plinius paper's machine-checkable
invariants.  Per-module rules: enclave-only symbols (SEC002), sim-time
determinism (DET001), allocation-free serve path (ALLOC001) and
lock-guarded state discipline (LCK001); SUP001 checks every suppression
carries a rationale.  The whole-program pass in
:mod:`repro.analysis.flow` adds seal-before-persist confidentiality
(SEC001); :func:`run_paths` runs both.
"""

from repro.analysis.lint.framework import (
    SUPPRESSION_RULE_ID,
    Finding,
    ModuleSource,
    Rule,
    Severity,
)
from repro.analysis.lint.reporters import render_json, render_text
from repro.analysis.lint.runner import (
    LintResult,
    default_rules,
    discover_files,
    lint_file,
    run_paths,
)

__all__ = [
    "Finding",
    "LintResult",
    "ModuleSource",
    "Rule",
    "SUPPRESSION_RULE_ID",
    "Severity",
    "default_rules",
    "discover_files",
    "lint_file",
    "render_json",
    "render_text",
    "run_paths",
]
