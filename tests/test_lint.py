"""Tests for the repo-specific invariant linter (repro.analysis.lint).

Three layers of coverage:

* fixture files under ``tests/fixtures/lint/`` prove each rule fires on
  a violating example and stays silent on a compliant one (plus the
  suppression machinery);
* the dogfood test asserts ``repro lint src/ --strict`` exits 0 on the
  committed tree — every invariant violation is fixed or carries a
  rationale;
* regression tests pin the genuine DET001 fixes (unseeded
  ``np.random.default_rng()`` fallbacks now default to a fixed seed).
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.lint import (
    SUPPRESSION_RULE_ID,
    Severity,
    default_rules,
    lint_file,
    render_json,
    render_text,
    run_paths,
)
from repro.analysis.lint.config import LintConfig
from repro.analysis.tcb import TRUSTED_MODULES, UNTRUSTED_MODULES
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"


def rule_ids(path: Path):
    """Per-module rules and the flow pass (SEC001 lives there)."""
    return [f.rule_id for f in run_paths([path]).findings]


# ----------------------------------------------------------------------
# Per-rule fixtures: fire on bad, silent on good
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "rule, bad, good",
    [
        ("PM001", "pm001_bad.py", "pm001_good.py"),
        ("SEC001", "sec001_bad.py", "sec001_good.py"),
        ("SEC002", "sec002_bad.py", "sec002_good.py"),
        ("DET001", "det001_bad.py", "det001_good.py"),
        ("ALLOC001", "alloc001_bad.py", "alloc001_good.py"),
        ("LCK001", "lck001_bad.py", "lck001_good.py"),
        ("FLT001", "flt001_bad.py", "flt001_good.py"),
    ],
)
def test_rule_fires_on_bad_and_not_on_good(rule, bad, good):
    assert rule in rule_ids(FIXTURES / bad)
    assert rule not in rule_ids(FIXTURES / good)


def test_flt001_counts_typos_and_dynamic_names():
    ids = rule_ids(FIXTURES / "flt001_bad.py")
    assert ids.count("FLT001") == 3  # two typos + one dynamic site name


def test_flt001_exempts_the_fault_machinery_itself():
    # plan.py forwards validated site names through variables by design.
    src = Path(__file__).parent.parent / "src" / "repro" / "faults" / "plan.py"
    assert "FLT001" not in rule_ids(src)


def test_pm001_counts_every_raw_touch():
    ids = rule_ids(FIXTURES / "pm001_bad.py")
    assert ids.count("PM001") == 3  # write, copy_within, staging_view


def test_sec001_tracks_aliases_and_decrypted_data():
    ids = rule_ids(FIXTURES / "sec001_bad.py")
    assert ids.count("SEC001") == 3


def test_det001_is_warning_severity():
    kept, _ = lint_file(FIXTURES / "det001_bad.py", default_rules())
    det = [f for f in kept if f.rule_id == "DET001"]
    assert det and all(f.severity is Severity.WARNING for f in det)
    # wall clocks, global RNG (x2), and the unseeded constructor all fire
    assert len(det) >= 4


def test_det001_allowlists_the_obs_wallclock_lane():
    assert rule_ids(FIXTURES / "det001_exempt.py") == []


def test_lck001_names_the_field_and_site():
    kept, _ = lint_file(FIXTURES / "lck001_bad.py", default_rules())
    lck = [f for f in kept if f.rule_id == "LCK001"]
    assert len(lck) == 2
    assert {"self.stats" in f.message or "self.samples" in f.message
            for f in lck} == {True}


# ----------------------------------------------------------------------
# Suppression machinery
# ----------------------------------------------------------------------

def test_noqa_with_rationale_suppresses():
    kept, dropped = lint_file(FIXTURES / "suppressed.py", default_rules())
    assert kept == []
    assert [f.rule_id for f in dropped] == ["PM001", "PM001"]


def test_file_wide_noqa_suppresses_everything():
    kept, dropped = lint_file(
        FIXTURES / "suppressed_file.py", default_rules()
    )
    assert kept == []
    assert all(f.rule_id == "DET001" for f in dropped) and dropped


def test_missing_rationale_reports_sup001():
    kept, _ = lint_file(FIXTURES / "missing_rationale.py", default_rules())
    assert [f.rule_id for f in kept] == [SUPPRESSION_RULE_ID]
    assert all(f.severity is Severity.ERROR for f in kept)


def test_sup001_cannot_be_suppressed(tmp_path):
    victim = tmp_path / "meta.py"
    victim.write_text(
        "# repro: noqa-file[SUP001] -- nice try\n"
        "def f(device, p):\n"
        "    device.write(0, p)  # repro: noqa[PM001]\n"
    )
    kept, _ = lint_file(victim, default_rules())
    assert SUPPRESSION_RULE_ID in [f.rule_id for f in kept]


# ----------------------------------------------------------------------
# Dogfood: the committed tree is clean, breaking it fails
# ----------------------------------------------------------------------

def test_lint_src_is_clean_strict():
    result = run_paths([SRC])
    assert result.findings == [], render_text(
        result.findings, result.files_checked
    )
    assert result.exit_code(strict=True) == 0
    assert result.files_checked > 90


def test_breaking_an_invariant_fails_the_run(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "def sneak(region, payload):\n"
        "    region.write(4096, payload)\n"
    )
    result = run_paths([tmp_path])
    assert result.exit_code() == 1
    assert [f.rule_id for f in result.findings] == ["PM001"]


def test_warnings_fail_only_under_strict(tmp_path):
    wobbly = tmp_path / "wobbly.py"
    wobbly.write_text("import time\n\ndef f():\n    return time.time()\n")
    result = run_paths([tmp_path])
    assert result.exit_code(strict=False) == 0
    assert result.exit_code(strict=True) == 1


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

def test_cli_lint_bad_fixture_exits_nonzero(capsys):
    rc = main(["lint", str(FIXTURES / "pm001_bad.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "PM001" in out and "error" in out


def test_cli_lint_json_format(capsys):
    rc = main(["lint", str(FIXTURES / "pm001_bad.py"), "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 3
    assert {f["rule"] for f in payload["findings"]} == {"PM001"}


def test_cli_lint_clean_fixture_exits_zero(capsys):
    rc = main(["lint", str(FIXTURES / "pm001_good.py")])
    assert rc == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_render_json_roundtrip():
    result = run_paths([FIXTURES / "det001_bad.py"])
    flow = {"seconds": result.flow_seconds, "stats": result.flow_stats}
    payload = json.loads(
        render_json(result.findings, result.files_checked, flow)
    )
    assert payload["files_checked"] == 1
    assert payload["warnings"] == len(payload["findings"])
    assert payload["flow"]["stats"]["modules"] == 1


# ----------------------------------------------------------------------
# One trust manifest (repro.analysis.tcb) that lint, flow and tcb read
# ----------------------------------------------------------------------

def test_every_module_is_classified_exactly_once():
    """A new module must be placed on one side of the boundary map."""
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.stem != "__init__"
    }
    exempt = {m for m in modules if m.startswith("repro.bench.")}
    exempt.add("repro.__main__")
    classified = list(TRUSTED_MODULES) + list(UNTRUSTED_MODULES)
    assert sorted(classified) == sorted(modules - exempt)
    assert LintConfig().untrusted_modules is UNTRUSTED_MODULES


# ----------------------------------------------------------------------
# Caller census: every module is reachable from something that runs
# ----------------------------------------------------------------------

#: Modules nothing under the roots imports yet, each with the open item
#: that decides it.  They count as roots (so what only they import is
#: reached) and must be dropped from here once a real caller exists.
CALLER_WAIVERS = {
    "repro.core.workflow": "Fig. 5 end-to-end workflow; carries darknet.weights",
    "repro.distributed.pipeline": "ROADMAP 4c owes it a benchmark workload",
    "repro.distributed.data_parallel": "ROADMAP 4c owes it a benchmark workload",
    "repro.core.freshness": "ROADMAP 2 decides: wire on every reopen or delete",
    "repro.sgx.counters": "ROADMAP 2 decides: wire on every reopen or delete",
}

#: Scripts whose imports are callers: the wall-clock ledger and the
#: paper-figure benchmarks.
_ROOT_SCRIPTS = (
    "bench_wallclock.py", "bench_fig*.py", "bench_table1_breakdown.py",
    "bench_inference.py", "bench_recovery_time.py", "bench_tcb.py",
)


class _ImportGraph:
    """Import edges between ``repro`` modules, parsed — never imported.

    ``from pkg import Name`` resolves through the package ``__init__``
    to the submodule that defines ``Name``: a re-export is not a caller.
    """

    def __init__(self, src: Path) -> None:
        self.files = {}
        for path in (src / "repro").rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            self.files[".".join(parts)] = path
        self.modules = {m for m in self.files if not m.endswith(".__init__")}
        self._trees = {}

    def _tree(self, name: str) -> ast.AST:
        if name not in self._trees:
            self._trees[name] = ast.parse(self.files[name].read_text())
        return self._trees[name]

    def _defining_module(self, base: str, name: str):
        """The module behind ``from base import name`` (None: no module)."""
        if f"{base}.{name}" in self.modules:
            return f"{base}.{name}"
        if base in self.modules:
            return base
        init = f"{base}.__init__"
        if init not in self.files:
            return None
        for node in ast.walk(self._tree(init)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        origin = self._absolute(init, node)
                        return self._defining_module(origin, alias.name)
        return None

    @staticmethod
    def _absolute(importer: str, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        package = importer.split(".")[: -node.level]
        return ".".join(package + ([node.module] if node.module else []))

    def imports_of(self, tree: ast.AST, importer: str = "") -> set:
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(importer, node)
                found.update(
                    self._defining_module(base, a.name) for a in node.names
                )
        return found & self.modules

    def reachable(self, roots: set) -> set:
        seen, stack = set(), sorted(roots)
        while stack:
            module = stack.pop()
            if module not in seen:
                seen.add(module)
                stack.extend(self.imports_of(self._tree(module), module))
        return seen


def caller_census(repo: Path):
    """``(graph, roots)``: the import graph of ``repo`` and the modules
    its entry points name."""
    graph = _ImportGraph(repo / "src")
    roots = {"repro.cli", "repro.__main__"}
    bench = repo / "benchmarks"
    scripts = sorted((bench / "e2e").glob("*.py"))
    for pattern in _ROOT_SCRIPTS:
        scripts += sorted(bench.glob(pattern))
    for script in scripts:
        tree = ast.parse(script.read_text())
        roots |= graph.imports_of(tree)
        # The e2e tracer names the modules it patches as strings.
        roots |= graph.modules & {
            node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
        }
    return graph, roots


def test_every_module_has_a_caller():
    """No module without a caller: each one is imported, transitively,
    by the CLI, the e2e benchmark, the wall-clock ledger or a
    paper-figure script — or sits in the waiver table with its reason."""
    graph, roots = caller_census(SRC.parent)
    assert graph.modules - graph.reachable(roots | set(CALLER_WAIVERS)) == set()
    assert len(CALLER_WAIVERS) == 5
    # A waiver whose module has gained a caller is stale.
    assert not set(CALLER_WAIVERS) & graph.reachable(roots)


def test_cli_tcb_json(capsys):
    rc = main(["tcb", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    modules = {m["module"] for m in payload["modules"]}
    # obs/ and analysis/ are part of the accounting now
    assert "repro.obs.recorder" in modules
    assert "repro.analysis.lint.framework" in modules
    assert "repro.sgx.rand" in modules
    assert 0.30 < payload["reduction"] < 0.80
    sides = {m["module"]: m["side"] for m in payload["modules"]}
    assert sides["repro.sgx.rand"] == "trusted"  # the in-enclave DRNG
    assert sides["repro.obs.recorder"] == "untrusted"


# ----------------------------------------------------------------------
# Regression tests for the genuine DET001 fixes: no-arg construction
# is now deterministic (fixed-seed generator fallbacks)
# ----------------------------------------------------------------------

def test_build_mnist_cnn_default_rng_is_deterministic():
    from repro.core.models import build_mnist_cnn

    a = build_mnist_cnn(n_conv_layers=2, filters=4, batch=8)
    b = build_mnist_cnn(n_conv_layers=2, filters=4, batch=8)
    for la, lb in zip(a.layers, b.layers):
        if hasattr(la, "weights"):
            np.testing.assert_array_equal(la.weights, lb.weights)


def test_connected_layer_default_rng_is_deterministic():
    from repro.darknet.layers.connected import ConnectedLayer

    a = ConnectedLayer((16,), 8)
    b = ConnectedLayer((16,), 8)
    np.testing.assert_array_equal(a.weights, b.weights)
