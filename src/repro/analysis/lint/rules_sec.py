"""SEC002 — enclave-only symbols stay out of untrusted modules.

Modules classified *untrusted* by the TCB partitioning must not import
or reference the in-enclave DRNG (``repro.sgx.rand``) or the
sealing-key machinery (``repro.sgx.sealing``): in the real system those
symbols do not link outside the enclave, and a reference from helper
code means key material or attacker-predictable randomness crossed the
boundary.  (SEC001, seal-before-persist, is whole-program and lives in
:mod:`repro.analysis.flow.taint`.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.config import LintConfig
from repro.analysis.lint.framework import Finding, ModuleSource, Rule, Severity


class EnclaveBoundaryRule(Rule):
    """Enclave-only symbols referenced from untrusted modules."""

    rule_id = "SEC002"
    severity = Severity.ERROR
    title = "enclave-only symbol referenced from an untrusted module"

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        if not self.config.is_untrusted(src.module):
            return
        enclave_modules = self.config.enclave_only_modules
        enclave_names = self.config.enclave_only_names
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in enclave_modules:
                        yield self.finding(
                            src,
                            node,
                            f"untrusted module imports enclave-only "
                            f"module '{alias.name}'",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module in enclave_modules:
                    names = ", ".join(a.name for a in node.names)
                    yield self.finding(
                        src,
                        node,
                        f"untrusted module imports {names} from "
                        f"enclave-only module '{node.module}'",
                    )
                else:
                    flagged = [
                        a.name
                        for a in node.names
                        if a.name in enclave_names
                    ]
                    if flagged:
                        yield self.finding(
                            src,
                            node,
                            "untrusted module imports enclave-only "
                            f"symbol(s) {', '.join(flagged)}",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = src.dotted(node)
                if dotted is None:
                    continue
                if any(
                    dotted == m or dotted.startswith(m + ".")
                    for m in enclave_modules
                ):
                    yield self.finding(
                        src,
                        node,
                        f"untrusted module references enclave-only "
                        f"symbol '{dotted}'",
                    )
