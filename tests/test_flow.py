"""Tests for the interprocedural flow engine (repro.analysis.flow).

Three layers of coverage:

* fixture pairs under ``tests/fixtures/lint/`` prove each flow rule
  (SEC001, DUR001) fires on a violating example and stays silent on a
  compliant one — including plaintext that reaches its sink only
  through a helper in another module;
* integration tests cover the runner/CLI surface: flow findings flow
  through the suppression machinery, the removed options are argparse
  errors, SARIF output shape, and the CI timing budget;
* unit tests pin the engine's building blocks (call-graph resolution,
  type inference, taint summaries).

The historical bugs (the region format-ordering and root-publication
bugs, the flight-ring lock escape) are rows of the mutant corpus in
``tests/mutants.py``, scored by ``tests/test_kill_matrix.py``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.flow import FlowEngine, flow_rule_catalog
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import Project
from repro.analysis.lint import run_paths
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"

CROSS_BAD = ["sec001_cross_module_bad.py", "sec001_cross_module_helper.py"]
CROSS_GOOD = ["sec001_cross_module_good.py", "sec001_cross_module_helper.py"]


def flow_findings(paths):
    engine = FlowEngine.build([Path(p) for p in paths])
    return engine.analyze().findings


def flow_ids(paths):
    return [f.rule_id for f in flow_findings(paths)]


def lint_ids(names):
    return [f.rule_id for f in run_paths([FIXTURES / n for n in names]).findings]


# ----------------------------------------------------------------------
# Fixture pairs: fire on bad, silent on good
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "rule, bad, good",
    [
        ("SEC001", CROSS_BAD, CROSS_GOOD),
        ("DUR001", ["dur001_bad.py"], ["dur001_good.py"]),
        ("SEC001", ["sec001_bad.py"], ["sec001_good.py"]),
    ],
)
def test_flow_rule_fires_on_bad_and_not_on_good(rule, bad, good):
    assert rule in lint_ids(bad)
    assert rule not in lint_ids(good)


def test_sec001_catches_cross_module_flows():
    """A laundering helper and a sink helper: no single function holds
    both the source and the sink."""
    assert lint_ids(CROSS_BAD).count("SEC001") == 2


def test_sec001_reports_the_interprocedural_chain():
    findings = [
        f
        for f in flow_findings(FIXTURES / name for name in CROSS_BAD)
        if f.rule_id == "SEC001"
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


def test_committed_sources_are_flow_clean():
    assert flow_findings([SRC]) == []


# ----------------------------------------------------------------------
# Runner integration: suppressions, timing
# ----------------------------------------------------------------------

def _copy_cross_module_bad(tmp_path, replacements):
    bad = (FIXTURES / CROSS_BAD[0]).read_text()
    for old, new in replacements:
        bad = bad.replace(old, new)
    (tmp_path / CROSS_BAD[0]).write_text(bad)
    shutil.copy(FIXTURES / CROSS_BAD[1], tmp_path)


def test_flow_findings_respect_noqa_suppressions(tmp_path):
    why = "  # repro: noqa[SEC001] -- fixture exercises suppression"
    _copy_cross_module_bad(
        tmp_path,
        [
            ("    tx.write(64, framed)", "    tx.write(64, framed)" + why),
            (
                "    persist_blob(tx, payload)",
                "    persist_blob(tx, payload)" + why,
            ),
        ],
    )
    result = run_paths([tmp_path])
    assert "SEC001" not in [f.rule_id for f in result.findings]


def test_flow_suppression_without_rationale_reports_sup001(tmp_path):
    _copy_cross_module_bad(
        tmp_path,
        [
            (
                "    tx.write(64, framed)",
                "    tx.write(64, framed)  # repro: noqa[SEC001]",
            )
        ],
    )
    result = run_paths([tmp_path])
    ids = [f.rule_id for f in result.findings]
    assert "SUP001" in ids  # bare directive is itself an error
    # ... but the suppression still applies: only the *other*,
    # un-annotated flow is reported.
    assert ids.count("SEC001") == 1


def test_run_paths_flow_flag_and_timing():
    """The flow pass always runs, and reports its size and wall time."""
    result = run_paths([SRC])
    assert result.findings == []
    assert result.flow_stats["functions"] > 500
    # CI timing budget: the flow pass must stay well under 60 s.
    assert result.flow_seconds < 60.0


# ----------------------------------------------------------------------
# CLI + SARIF
# ----------------------------------------------------------------------

@pytest.mark.parametrize("option", ["--no-flow", "--flow", "--changed-only"])
def test_cli_lint_removed_options_are_errors(option):
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(FIXTURES / "dur001_good.py"), option])
    assert exc.value.code == 2


def test_cli_lint_reports_flow_findings(capsys):
    rc = main(["lint", str(FIXTURES / "dur001_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "DUR001" in out
    assert "flow pass" in out


def test_cli_lint_json_includes_flow_timing(capsys):
    main(
        [
            "lint",
            str(FIXTURES / "dur001_good.py"),
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
            str(FIXTURES / "dur001_bad.py"),
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
    assert {"SEC001", "DUR001", "SUP001"} <= rule_ids
    result = next(r for r in run["results"] if r["ruleId"] == "DUR001")
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("dur001_bad.py")
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1
    index = result["ruleIndex"]
    assert sorted(rule_ids)[index] == "DUR001"  # rules are emitted by id


def test_flow_rule_catalog_is_complete():
    catalog = flow_rule_catalog()
    assert set(catalog) == {"SEC001", "DUR001"}
    for title, severity in catalog.values():
        assert title and severity == "error"


# ----------------------------------------------------------------------
# Engine building blocks
# ----------------------------------------------------------------------

def test_project_resolves_methods_and_thread_roots():
    """Attribute types come from constructor assignments, and method
    calls resolve through them."""
    project = Project.load([SRC])
    recorder = project.classes["repro.obs.recorder.TraceRecorder"]
    assert recorder.attr_types["flight"] == "repro.obs.flight.FlightRing"
    assert recorder.attr_types["counters"] == "repro.obs.metrics.CounterRegistry"
    sites = CallGraph(project).sites_by_caller[
        "repro.obs.recorder.TraceRecorder.count"
    ]
    callees = {callee.qualname for site in sites for callee in site.callees}
    assert "repro.obs.flight.FlightRing.add" in callees


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
    from repro.analysis.flow.taint import TaintAnalysis
    from repro.analysis.lint.config import DEFAULT_CONFIG

    analysis = TaintAnalysis(project, CallGraph(project), DEFAULT_CONFIG)
    relabel = analysis.summary_of("helper.relabel")
    assert relabel.taint_params == frozenset({0})
    produce = analysis.summary_of("helper.produce")
    assert produce.returns_taint
