"""The kill matrix: every lint rule earns its place against a mutant corpus.

``tests/mutants.py`` holds the corpus of source mutants;
``fixtures/golden/kill_matrix.json`` records, per mutant, the rule ids
that fire (``static``), what the exhaustive crashtest reports
(``invariants``) and what tier-1 does (``tier1``).  The
policy (docs/static-analysis.md, "Kill matrix"): one rule per bug
class, and no rule without a kill that nothing else makes, neither
another rule nor the crash census nor tier-1.
"""

import json

import pytest

from repro.analysis.flow import flow_rule_catalog
from repro.analysis.lint import SUPPRESSION_RULE_ID, default_rules
from tests.mutants import (
    KILL_MATRIX,
    MUTANTS,
    SRC,
    StaticHarness,
    invariant_column,
    tier1_column,
)

ROWS = json.loads(KILL_MATRIX.read_text())["rows"]

#: The rows the unique-kill test counts: a rule has earned its place
#: only while tier-1 still passes on one of them.
UNIQUE_KILL_ROWS = [
    mutant
    for mutant in MUTANTS
    if len(ROWS[mutant.name]["static"]) == 1
    and ROWS[mutant.name]["invariants"]["exit"] == 0
    and ROWS[mutant.name]["tier1"]["exit"] == 0
]


def _by_name(mutant):
    return mutant.name


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    return StaticHarness(tmp_path_factory.mktemp("kill-matrix"))


def test_fixture_rows_are_the_corpus():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(ROWS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=_by_name)
def test_patch_applies_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert (SRC / mutant.path).read_text().count(mutant.old) == 1


def test_committed_tree_is_clean(harness):
    """The harness re-lints only the mutated file: exact only while the
    rest of the tree reports nothing."""
    assert harness.clean_tree() == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=_by_name)
def test_static_column_matches_fixture(harness, mutant):
    assert harness.kills(mutant) == ROWS[mutant.name]["static"]


def test_every_catalogued_rule_has_a_unique_static_kill():
    """A kill is unique when nothing else catches the mutant: the rule is
    the only one that fires, and the crash census and tier-1 both pass."""
    # The rules the SARIF report declares: per-module, flow, and SUP001.
    catalogue = {rule.rule_id for rule in default_rules()}
    catalogue |= set(flow_rule_catalog()) | {SUPPRESSION_RULE_ID}
    unique = {
        row["static"][0]
        for row in ROWS.values()
        if len(row["static"]) == 1
        and row["invariants"]["exit"] == 0
        and row["tier1"]["exit"] == 0
    }
    assert sorted(catalogue - unique) == []


@pytest.mark.crashtest
@pytest.mark.parametrize("mutant", MUTANTS, ids=_by_name)
def test_invariant_column_matches_fixture(tmp_path, mutant):
    assert invariant_column(mutant, tmp_path) == ROWS[mutant.name]["invariants"]


@pytest.mark.crashtest
@pytest.mark.parametrize("mutant", UNIQUE_KILL_ROWS, ids=_by_name)
def test_tier1_column_matches_fixture(tmp_path, mutant):
    """A full tier-1 run per row (CI runs these in their own job)."""
    assert tier1_column(mutant, tmp_path) == ROWS[mutant.name]["tier1"]
