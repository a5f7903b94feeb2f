"""Core abstractions of the repo-specific invariant linter.

The linter is a small rule-based AST framework: each :class:`Rule`
inspects one parsed module (:class:`ModuleSource`) and yields
:class:`Finding` objects.  The framework owns everything rule-agnostic:

* severity levels and the finding record;
* per-line and per-file suppression directives::

      tx.write(off, row)  # repro: noqa[SEC001] -- the unsealed Fig. 8 baseline
      # repro: noqa-file[DET001] -- benchmark harness, wall clock intended

  A suppression **must** carry a ``--`` rationale; a bare directive is
  itself reported as :data:`SUPPRESSION_RULE_ID` so hand-audited escape
  hatches stay documented (an acceptance criterion of the rule set);
* a fixture override ``# repro: lint-module[dotted.name]`` that lets test
  fixtures masquerade as a specific module for classification-sensitive
  rules (trusted/untrusted, simtime-governed);
* shared AST utilities: parent links, import-alias resolution, dotted
  attribute-chain rendering.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: Rule id reported for suppression directives lacking a rationale.
SUPPRESSION_RULE_ID = "SUP001"

_NOQA_LINE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<ids>[A-Z0-9_,\s]+)\](?P<rest>.*)$"
)
_NOQA_FILE = re.compile(
    r"#\s*repro:\s*noqa-file\[(?P<ids>[A-Z0-9_,\s]+)\](?P<rest>.*)$"
)
_MODULE_OVERRIDE = re.compile(r"#\s*repro:\s*lint-module\[(?P<name>[\w.]+)\]")


class Severity(Enum):
    """How a finding is treated by the exit-code policy."""

    #: Reported always; fails the run only under ``--strict``.
    WARNING = "warning"
    #: Fails the run unconditionally.
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    module: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (the ``--format json`` shape)."""
        return {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "module": self.module,
        }

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class Suppressions:
    """Parsed ``repro: noqa`` directives of one file."""

    #: line number -> rule ids suppressed on that line ({"*"} = all).
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule ids suppressed for the whole file.
    file_wide: Set[str] = field(default_factory=set)
    #: (line, directive text) of directives missing a rationale.
    missing_rationale: List[Tuple[int, str]] = field(default_factory=list)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule_id == SUPPRESSION_RULE_ID:
            return False  # the meta rule cannot be silenced
        if finding.rule_id in self.file_wide or "*" in self.file_wide:
            return True
        ids = self.by_line.get(finding.line, set())
        return finding.rule_id in ids or "*" in ids


def parse_suppressions(lines: List[str]) -> Suppressions:
    """Extract every suppression directive from the file's raw lines.

    A trailing directive covers its own line; a directive on a
    standalone comment line covers the next code line (skipping any
    further comment/blank lines, so multi-line rationales work).
    """
    sup = Suppressions()
    for lineno, raw in enumerate(lines, start=1):
        for pattern, file_wide in ((_NOQA_FILE, True), (_NOQA_LINE, False)):
            match = pattern.search(raw)
            if match is None:
                continue
            ids = {
                part.strip()
                for part in match.group("ids").split(",")
                if part.strip()
            }
            rest = match.group("rest").strip()
            if not rest.startswith("--") or len(rest.lstrip("- ")) < 3:
                sup.missing_rationale.append((lineno, raw.strip()))
            if file_wide:
                sup.file_wide |= ids
            else:
                sup.by_line.setdefault(lineno, set()).update(ids)
                if raw.strip().startswith("#"):
                    target = lineno + 1
                    while target <= len(lines) and (
                        not lines[target - 1].strip()
                        or lines[target - 1].strip().startswith("#")
                    ):
                        target += 1
                    sup.by_line.setdefault(target, set()).update(ids)
            break  # noqa-file also matches the noqa regex; report once
    return sup


class ModuleSource:
    """One parsed module plus the derived lookup structures rules need."""

    def __init__(self, path: Path, module: str, text: str) -> None:
        self.path = path
        self.module = module
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.AST = ast.parse(text, filename=str(path))
        self.suppressions = parse_suppressions(self.lines)
        self._parents: Optional[Dict[int, ast.AST]] = None
        self._aliases: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path, module: Optional[str] = None) -> "ModuleSource":
        """Read and parse ``path``; honours the lint-module override."""
        text = path.read_text()
        name = module if module is not None else infer_module_name(path)
        for raw in text.splitlines()[:10]:
            override = _MODULE_OVERRIDE.search(raw)
            if override is not None:
                name = override.group("name")
                break
        return cls(path, name, text)

    # ------------------------------------------------------------------
    # AST utilities shared by the rules
    # ------------------------------------------------------------------
    @property
    def parents(self) -> Dict[int, ast.AST]:
        """Map ``id(node) -> parent node`` over the whole tree."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[id(child)] = parent
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors, innermost first."""
        parents = self.parents
        current = parents.get(id(node))
        while current is not None:
            yield current
            current = parents.get(id(current))

    @property
    def import_aliases(self) -> Dict[str, str]:
        """Local name -> fully dotted origin, from every import statement.

        ``import numpy as np`` maps ``np -> numpy``; ``from repro.sgx.rand
        import SgxRandom`` maps ``SgxRandom -> repro.sgx.rand.SgxRandom``.
        """
        if self._aliases is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        target = alias.name if alias.asname else local
                        aliases[local] = target
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        aliases[local] = f"{node.module}.{alias.name}"
            self._aliases = aliases
        return self._aliases

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Render a ``Name``/``Attribute`` chain as a dotted string,
        resolving the head through the module's import aliases.

        ``np.random.default_rng`` -> ``numpy.random.default_rng``.
        Returns ``None`` for expressions that are not plain chains
        (calls, subscripts, literals as the head).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        head = self.import_aliases.get(parts[0])
        if head is not None:
            parts[0:1] = head.split(".")
        return ".".join(parts)

    def receiver_tail(self, func: ast.expr) -> Optional[str]:
        """Last component of a method call's receiver expression.

        For ``self.region.device.write`` the receiver is
        ``self.region.device`` and the tail is ``device``; for
        ``device.write`` it is ``device``.  ``None`` when the callee is
        not an attribute access on a name/attribute chain.
        """
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        if isinstance(receiver, ast.Attribute):
            return receiver.attr
        if isinstance(receiver, ast.Name):
            return receiver.id
        if isinstance(receiver, ast.Call):
            # chained call such as region.staging_view(...).cast("B")
            return self.receiver_tail(receiver.func)
        return None


class Rule:
    """Base class: one machine-checked invariant from the paper."""

    #: Stable identifier, e.g. ``DET001`` (used in suppressions/reports).
    rule_id: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line description shown in documentation and reports.
    title: str = ""

    def check(self, src: ModuleSource) -> Iterator[Finding]:
        """Yield findings for ``src``; must not mutate the tree."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    # ------------------------------------------------------------------
    def finding(
        self, src: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=str(src.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            module=src.module,
        )


def infer_module_name(path: Path) -> str:
    """Dotted module name for ``path`` (walks up through ``__init__.py``
    packages); bare file stem for scripts and fixtures outside a package."""
    parts = [path.stem if path.stem != "__init__" else ""]
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    return ".".join(p for p in reversed(parts) if p)


def suppression_findings(src: ModuleSource) -> Iterator[Finding]:
    """The framework's own meta rule: suppressions need a rationale."""
    for lineno, text in src.suppressions.missing_rationale:
        yield Finding(
            rule_id=SUPPRESSION_RULE_ID,
            severity=Severity.ERROR,
            path=str(src.path),
            line=lineno,
            col=1,
            message=(
                "suppression directive has no rationale: append "
                f"'-- <why this is safe>' ({text!r})"
            ),
            module=src.module,
        )
