"""Tests for the interprocedural flow engine (repro.analysis.flow).

Four layers of coverage:

* fixture pairs under ``tests/fixtures/lint/`` prove each flow rule
  (SEC101, DUR001, RACE001) fires on a violating example and stays
  silent on a compliant one — including the acceptance-criterion case
  where SEC101 catches a cross-module flow SEC001 provably misses;
* **mutant tests** re-introduce the three historical bugs into copies
  of the committed sources — PR 4's region format-ordering bug, PR 4's
  pm-data root-publication bug, and PR 7's flight-ring lock bug — and
  assert the static pass flags each one while the committed originals
  stay clean;
* integration tests cover the runner/CLI surface: flow findings flow
  through the suppression machinery, ``--changed-only`` restriction,
  SARIF output shape, and the CI timing budget;
* unit tests pin the engine's building blocks (call-graph resolution,
  thread-root detection, taint summaries).
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.flow import FlowEngine, flow_rule_catalog
from repro.analysis.flow.project import Project
from repro.analysis.lint import default_rules, lint_file, run_paths
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"


def flow_findings(paths):
    engine = FlowEngine.build([Path(p) for p in paths])
    return engine.analyze().findings


def flow_ids(paths):
    return [f.rule_id for f in flow_findings(paths)]


# ----------------------------------------------------------------------
# Fixture pairs: fire on bad, silent on good
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "rule, bad, good",
    [
        (
            "SEC101",
            ["sec101_bad.py", "sec101_helper.py"],
            ["sec101_good.py", "sec101_helper.py"],
        ),
        ("DUR001", ["dur001_bad.py"], ["dur001_good.py"]),
        ("RACE001", ["race001_bad.py"], ["race001_good.py"]),
    ],
)
def test_flow_rule_fires_on_bad_and_not_on_good(rule, bad, good):
    assert rule in flow_ids(FIXTURES / name for name in bad)
    assert rule not in flow_ids(FIXTURES / name for name in good)


def test_sec101_catches_what_sec001_misses():
    """The acceptance criterion: a cross-module plaintext-to-sink flow
    that the intra-function rule provably does not see."""
    kept, _ = lint_file(FIXTURES / "sec101_bad.py", default_rules())
    assert "SEC001" not in [f.rule_id for f in kept]
    ids = flow_ids([FIXTURES / "sec101_bad.py", FIXTURES / "sec101_helper.py"])
    assert ids.count("SEC101") == 2  # laundering helper + sink helper


def test_sec101_reports_the_interprocedural_chain():
    findings = [
        f
        for f in flow_findings(
            [FIXTURES / "sec101_bad.py", FIXTURES / "sec101_helper.py"]
        )
        if f.rule_id == "SEC101"
    ]
    chained = [f for f in findings if "persist_blob" in f.message]
    assert chained, "frontier finding should name the callee chain"


def test_dur001_fires_on_both_bug_shapes():
    findings = [
        f for f in flow_findings([FIXTURES / "dur001_bad.py"])
        if f.rule_id == "DUR001"
    ]
    assert len(findings) == 2
    messages = " ".join(f.message for f in findings)
    assert "magic" in messages  # interprocedural format-ordering shape
    assert "root publication" in messages  # publish-then-write shape


def test_dur001_unpublish_is_not_a_publication():
    # dur001_good.py's drop_table clears the root (writes 0) and then
    # writes scratch data — legal, and covered by the good fixture.
    assert "DUR001" not in flow_ids([FIXTURES / "dur001_good.py"])


def test_race001_held_at_entry_fixpoint():
    """race001_good's ``_append`` never takes the lock itself; only the
    caller fixpoint proves every path into it holds ``_lock``."""
    assert "RACE001" not in flow_ids([FIXTURES / "race001_good.py"])


# ----------------------------------------------------------------------
# Mutant tests: the three historical bugs, statically re-detected
# ----------------------------------------------------------------------

def _mutated_src(tmp_path, rel, replacements):
    """Copy ``src/`` and apply textual surgery to one file."""
    root = tmp_path / "src"
    shutil.copytree(SRC, root)
    target = root / rel
    text = target.read_text()
    for old, new in replacements:
        assert old in text, f"surgery pattern missing in {rel}"
        text = text.replace(old, new)
    target.write_text(text)
    return root


def _flow_rules_at(root, rel):
    wanted = str(root / rel)
    return [
        f.rule_id
        for f in flow_findings([root])
        if f.path == wanted
    ]


def test_committed_sources_are_flow_clean():
    assert flow_findings([SRC]) == []


def test_dur001_catches_pr4_region_format_mutant(tmp_path):
    """Re-introduce PR 4 bug #1: the magic-bearing header flushed
    before the allocator metadata / twin snapshot it points to."""
    good = (
        "        self.device.flush(self.main_base, len(meta),"
        " self.flush_instruction)\n"
        "        self.device.flush(self.back_base, len(meta),"
        " self.flush_instruction)\n"
        "        if self.flush_instruction.needs_fence:\n"
        "            self.fence()\n"
        "        self.device.flush(self.base, HEADER_SIZE,"
        " self.flush_instruction)\n"
        "        if self.flush_instruction.needs_fence:\n"
        "            self.fence()"
    )
    bad = (
        "        self.device.flush(self.base, HEADER_SIZE,"
        " self.flush_instruction)\n"
        "        if self.flush_instruction.needs_fence:\n"
        "            self.fence()\n"
        "        self.device.flush(self.main_base, len(meta),"
        " self.flush_instruction)\n"
        "        self.device.flush(self.back_base, len(meta),"
        " self.flush_instruction)\n"
        "        if self.flush_instruction.needs_fence:\n"
        "            self.fence()"
    )
    rel = Path("repro") / "romulus" / "region.py"
    root = _mutated_src(tmp_path, rel, [(good, bad)])
    assert "DUR001" in _flow_rules_at(root, rel)


def test_dur001_catches_pr4_pm_data_root_mutant(tmp_path):
    """Re-introduce PR 4 bug #2: the data root published in the first
    transaction, before the row payloads are durable."""
    header_write_tail = "                    int(encrypted),\n                ),\n            )\n"
    publish_early = (
        header_write_tail
        + "            tx.write_u64(self.region.root_offset(DATA_ROOT),"
        " header)\n"
    )
    publish_late = (
        "        with self.region.begin_transaction() as tx:\n"
        "            tx.write_u64(self.region.root_offset(DATA_ROOT),"
        " header)\n"
        "        return len(data) * row_stored"
    )
    no_late_publish = "        return len(data) * row_stored"
    rel = Path("repro") / "core" / "pm_data.py"
    root = _mutated_src(
        tmp_path,
        rel,
        [(header_write_tail, publish_early), (publish_late, no_late_publish)],
    )
    assert "DUR001" in _flow_rules_at(root, rel)


def test_race001_catches_pr7_flight_ring_mutant(tmp_path):
    """Re-introduce PR 7's bug: the flight-ring append in ``count``
    escapes the recorder lock."""
    good = (
        "        self.counters.add(name, value)\n"
        "        with self._lock:\n"
        '            self.flight.add("count", name, value)'
    )
    bad = (
        "        self.counters.add(name, value)\n"
        '        self.flight.add("count", name, value)'
    )
    rel = Path("repro") / "obs" / "recorder.py"
    root = _mutated_src(tmp_path, rel, [(good, bad)])
    assert "RACE001" in _flow_rules_at(root, rel)


# ----------------------------------------------------------------------
# Runner integration: suppressions, restriction, timing
# ----------------------------------------------------------------------

def test_flow_findings_respect_noqa_suppressions(tmp_path):
    bad = (FIXTURES / "sec101_bad.py").read_text()
    bad = bad.replace(
        "    tx.write(64, framed)",
        "    tx.write(64, framed)"
        "  # repro: noqa[SEC101] -- fixture exercises suppression",
    )
    bad = bad.replace(
        "    persist_blob(tx, payload)",
        "    persist_blob(tx, payload)"
        "  # repro: noqa[SEC101] -- fixture exercises suppression",
    )
    (tmp_path / "sec101_bad.py").write_text(bad)
    shutil.copy(FIXTURES / "sec101_helper.py", tmp_path)
    result = run_paths([tmp_path])
    assert "SEC101" not in [f.rule_id for f in result.findings]


def test_flow_suppression_without_rationale_reports_sup001(tmp_path):
    bad = (FIXTURES / "sec101_bad.py").read_text()
    bad = bad.replace(
        "    tx.write(64, framed)",
        "    tx.write(64, framed)  # repro: noqa[SEC101]",
    )
    (tmp_path / "sec101_bad.py").write_text(bad)
    shutil.copy(FIXTURES / "sec101_helper.py", tmp_path)
    result = run_paths([tmp_path])
    ids = [f.rule_id for f in result.findings]
    assert "SUP001" in ids  # bare directive is itself an error
    # ... but the suppression still applies: only the *other*,
    # un-annotated sink is reported.
    assert ids.count("SEC101") == 1


def test_run_paths_flow_flag_and_timing():
    result = run_paths([SRC])
    assert result.flow_enabled
    assert result.findings == []
    assert result.flow_stats["functions"] > 500
    # CI timing budget: the flow pass must stay well under 60 s.
    assert result.flow_seconds < 60.0
    off = run_paths([SRC / "repro" / "analysis"], flow=False)
    assert not off.flow_enabled
    assert off.flow_seconds == 0.0


def test_restrict_to_limits_reporting_not_analysis(tmp_path):
    shutil.copy(FIXTURES / "sec101_bad.py", tmp_path)
    shutil.copy(FIXTURES / "sec101_helper.py", tmp_path)
    # Restricted to the helper only: the cross-module SEC101 findings
    # anchor in sec101_bad.py and must be filtered out of the report.
    result = run_paths(
        [tmp_path], restrict_to=[tmp_path / "sec101_helper.py"]
    )
    assert result.files_checked == 1
    assert "SEC101" not in [f.rule_id for f in result.findings]
    # Unrestricted over the same tree, the findings are present —
    # proving the whole-program analysis saw both files either way.
    full = run_paths([tmp_path])
    assert "SEC101" in [f.rule_id for f in full.findings]


# ----------------------------------------------------------------------
# CLI + SARIF
# ----------------------------------------------------------------------

def test_cli_lint_no_flow_skips_flow_findings(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "race001_bad.py"),
            "--no-flow",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "RACE001" not in out
    assert "flow pass" not in out


def test_cli_lint_flow_reports_race001(capsys):
    rc = main(["lint", str(FIXTURES / "race001_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RACE001" in out
    assert "flow pass" in out


def test_cli_lint_json_includes_flow_timing(capsys):
    main(
        [
            "lint",
            str(FIXTURES / "race001_good.py"),
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert "flow" in payload
    assert payload["flow"]["seconds"] < 60.0
    assert payload["flow"]["stats"]["modules"] == 1


def test_sarif_document_shape(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "race001_bad.py"),
            "--format",
            "sarif",
        ]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    # Every shipped rule id is declared, flow family included.
    assert {"SEC101", "DUR001", "RACE001", "SEC001", "SUP001"} <= rule_ids
    result = next(r for r in run["results"] if r["ruleId"] == "RACE001")
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("race001_bad.py")
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1
    index = result["ruleIndex"]
    assert driver["rules"][index]["id"] == "RACE001"


def test_flow_rule_catalog_is_complete():
    catalog = flow_rule_catalog()
    assert set(catalog) == {"SEC101", "DUR001", "RACE001"}
    for title, severity in catalog.values():
        assert title and severity == "error"


# ----------------------------------------------------------------------
# Engine building blocks
# ----------------------------------------------------------------------

def test_project_resolves_methods_and_thread_roots():
    from repro.analysis.lint.config import DEFAULT_CONFIG

    project = Project.load([SRC])
    engine = FlowEngine(project, DEFAULT_CONFIG)
    # The recorder's lock and flight ring are indexed.
    recorder = project.classes["repro.obs.recorder.TraceRecorder"]
    assert "_lock" in recorder.lock_attrs
    assert "_local" in recorder.thread_local_attrs
    assert recorder.attr_types["flight"] == "repro.obs.flight.FlightRing"
    # A callback registered through ``gateway.schedule_call`` runs off
    # the registering call stack, so it is a thread root and the
    # recorder paths it reaches count as concurrent.
    assert (
        "repro.faults.workload.ServeWorkload.boot.update"
        in engine.graph.thread_roots
    )


def test_taint_summary_sees_through_helper(tmp_path):
    helper = tmp_path / "helper.py"
    helper.write_text(
        "def relabel(buf):\n"
        "    return buf\n"
        "\n"
        "def produce(net):\n"
        "    return net.save_weights()\n"
    )
    project = Project.load([tmp_path])
    from repro.analysis.flow.callgraph import CallGraph
    from repro.analysis.flow.taint import TaintAnalysis
    from repro.analysis.lint.config import DEFAULT_CONFIG

    analysis = TaintAnalysis(project, CallGraph(project), DEFAULT_CONFIG)
    relabel = analysis.summary_of("helper.relabel")
    assert relabel.taint_params == frozenset({0})
    produce = analysis.summary_of("helper.produce")
    assert produce.returns_taint
