"""FLT001 — fault-point site literals must exist in the registry.

The fault-injection engine (``repro.faults``) resolves sites by string
name at every instrumented call::

    active = faultplan.ACTIVE
    if active.enabled:
        active.check("pm.flush")

A typo in that literal is silent at runtime: the plan simply counts a
site nobody ever schedules, so the crash-schedule explorer *skips* the
instrumented point and the coverage hole is invisible.  This rule
resolves every ``<plan>.check("...")`` / ``<plan>.mutate("...", ...)``
call whose receiver traces back to ``faultplan.ACTIVE`` (directly or
through a local alias) and fails if the site literal is not registered
in :data:`repro.faults.registry.SITES`.

Non-literal site arguments on a traced receiver are flagged too: the
registry is the single source of truth, and a dynamically built site
name cannot be checked against it (the fault machinery itself is
exempt — it forwards validated specs by design).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.lint.framework import Finding, ModuleSource, Rule, Severity

#: The plan entry points consulted by instrumented modules.
_PLAN_METHODS = ("check", "mutate")

#: The fault machinery itself forwards spec-validated site names through
#: variables; only *instrumented* modules are held to the literal rule.
_EXEMPT_PREFIX = "repro.faults"


def _registered_sites() -> Set[str]:
    from repro.faults.registry import SITES

    return set(SITES)


def _is_active_attribute(node: ast.AST) -> bool:
    """``faultplan.ACTIVE`` / ``plan.ACTIVE`` / bare ``ACTIVE``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "ACTIVE"
    return isinstance(node, ast.Name) and node.id == "ACTIVE"


class FaultSiteRegistryRule(Rule):
    rule_id = "FLT001"
    severity = Severity.ERROR
    title = "fault-point site names must be registered in repro.faults.registry"

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        if src.module.startswith(_EXEMPT_PREFIX):
            return
        sites = _registered_sites()
        aliases = self._plan_aliases(src)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in _PLAN_METHODS
            ):
                continue
            receiver = func.value
            traced = _is_active_attribute(receiver) or (
                isinstance(receiver, ast.Name) and receiver.id in aliases
            )
            if not traced or not node.args:
                continue
            site_arg = node.args[0]
            if not (
                isinstance(site_arg, ast.Constant)
                and isinstance(site_arg.value, str)
            ):
                yield self.finding(
                    src,
                    site_arg,
                    f"fault-plan .{func.attr}() with a non-literal site "
                    "name: the registry (repro.faults.registry.SITES) "
                    "cannot vouch for it",
                )
                continue
            if site_arg.value not in sites:
                yield self.finding(
                    src,
                    site_arg,
                    f"unregistered fault site {site_arg.value!r}: add it "
                    "to repro.faults.registry.SITES (and the catalog in "
                    "docs/fault-injection.md) or fix the typo",
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _plan_aliases(src: ModuleSource) -> Set[str]:
        """Local names bound to ``faultplan.ACTIVE`` anywhere in the file."""
        aliases: Set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Assign) and _is_active_attribute(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases
