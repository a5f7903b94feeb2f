"""Rendering of lint results: text, machine JSON, and SARIF 2.1.0.

The SARIF document is the minimal valid subset GitHub's code-scanning
ingestion understands: one run, a tool driver with per-rule metadata,
and one result per finding with a physical location.  The CI lint job
uploads it as an artifact so findings render as PR annotations.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.analysis.lint.framework import (
    SUPPRESSION_RULE_ID,
    Finding,
    Severity,
)

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"
TOOL_NAME = "repro-lint"


def render_text(
    findings: List[Finding],
    files_checked: int,
    flow_seconds: Optional[float] = None,
) -> str:
    """GCC-style ``path:line:col: severity RULE message`` listing."""
    lines: List[str] = []
    for finding in sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
    ):
        lines.append(
            f"{finding.location()}: {finding.severity} "
            f"[{finding.rule_id}] {finding.message}"
        )
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    summary = (
        f"checked {files_checked} file(s): "
        f"{errors} error(s), {warnings} warning(s)"
    )
    if flow_seconds is not None:
        summary += f" [flow pass: {flow_seconds:.2f}s]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: List[Finding],
    files_checked: int,
    flow: Dict[str, object],
) -> str:
    """Stable JSON document for CI consumers and editor integrations.

    ``flow`` is the whole-program pass's ``seconds`` and program-size
    ``stats`` — the CI timing budget reads ``.flow.seconds`` from this
    output.
    """
    payload: Dict[str, object] = {
        "files_checked": files_checked,
        "errors": sum(1 for f in findings if f.severity is Severity.ERROR),
        "warnings": sum(
            1 for f in findings if f.severity is Severity.WARNING
        ),
        "findings": [
            f.to_dict()
            for f in sorted(
                findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
            )
        ],
        "flow": flow,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _rule_catalog() -> Dict[str, Tuple[str, str]]:
    """Every known rule id -> (title, default severity string)."""
    # Imported here: runner/flow import this module's renderers at the
    # CLI layer, so top-level imports would be circular.
    from repro.analysis.flow import flow_rule_catalog
    from repro.analysis.lint.runner import default_rules

    catalog: Dict[str, Tuple[str, str]] = {
        rule.rule_id: (rule.title, str(rule.severity))
        for rule in default_rules()
    }
    catalog.update(flow_rule_catalog())
    catalog[SUPPRESSION_RULE_ID] = (
        "suppression directive missing a rationale",
        "error",
    )
    return catalog


def _sarif_level(severity: str) -> str:
    return "error" if severity == "error" else "warning"


def render_sarif(findings: List[Finding], files_checked: int) -> str:
    """SARIF 2.1.0 document (GitHub code-scanning compatible)."""
    catalog = _rule_catalog()
    # Rules referenced by findings but unknown to the catalog (custom
    # rule objects in tests) still get an entry so the document is valid.
    for finding in findings:
        catalog.setdefault(
            finding.rule_id, (finding.rule_id, str(finding.severity))
        )
    rule_ids = sorted(catalog)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rules = [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": catalog[rule_id][0]},
            "defaultConfiguration": {
                "level": _sarif_level(catalog[rule_id][1])
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index[finding.rule_id],
            "level": _sarif_level(str(finding.severity)),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(1, finding.line),
                            "startColumn": max(1, finding.col + 1),
                        },
                    }
                }
            ],
        }
        for finding in sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        )
    ]
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "shortDescription": {
                            "text": "repo-specific invariant linter "
                            "(docs/static-analysis.md)"
                        },
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "properties": {"filesChecked": files_checked},
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)