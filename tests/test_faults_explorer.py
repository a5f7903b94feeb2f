"""The crash-schedule explorer: enumeration, replay, self-validation.

The unmarked tests keep tier-1 honest with small sampled explorations;
the ``crashtest``-marked test runs the exhaustive schedule space and is
executed by the dedicated CI job / ``pytest -m crashtest``, next to the
kill matrix's invariant column (``tests/test_kill_matrix.py``), which
runs the same exhaustive exploration on every source mutant.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults.explorer import (
    ExploreConfig,
    enumerate_points,
    explore,
    _sample_points,
    _strided_hits,
)
from repro.faults.plan import CountingPlan, FaultSpec, installed
from repro.faults.registry import CRASH, SITES, UnknownSiteError
from repro.faults.workload import WORKLOADS, make_workload
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus import RomulusRegion
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM
from tests.mutants import MUTANTS, mutated_copy


class TestEnumeration:
    def test_strided_hits_keep_boundaries(self):
        assert _strided_hits(3, 6) == [1, 2, 3]
        picks = _strided_hits(120, 6)
        assert len(picks) <= 6
        assert picks[0] == 1 and picks[-1] == 120
        assert _strided_hits(0, 6) == []

    def test_enumerate_covers_every_hit_site(self):
        golden = make_workload("train").golden()
        assert not golden.violations
        specs = enumerate_points(golden)
        sites = {s.site for s in specs}
        assert sites == set(golden.hits)
        # The acceptance floor: well over 50 distinct crash schedules.
        crash = [s for s in specs if s.kind == CRASH]
        assert len({(s.site, s.hit) for s in crash}) >= 50

    def test_census_hits_exactly_the_registered_sites(self):
        """A misspelt site, at a call or in the registry, fails here: its
        name is hit but unregistered, or a registered site goes unhit."""
        hit = set()
        for name in WORKLOADS:
            golden = make_workload(name).golden()
            assert not golden.violations
            assert set(golden.hits) <= set(SITES), name
            hit |= set(golden.hits)
        # No census workload aborts a transaction: one directed abort.
        plan = CountingPlan()
        with installed(plan):
            device = PersistentMemoryDevice(16384, SimClock(), EMLSGX_PM.pm)
            region = RomulusRegion(device, 4096).format()
            tx = region.begin_transaction()
            tx.write(0, b"aborted")
            tx.abort()
        assert set(plan.hits) <= set(SITES)
        assert plan.hits["romulus.tx.abort"] == 1
        assert hit | {"romulus.tx.abort"} == set(SITES)
        # The census fails closed on a hit the registry does not know.
        typo = dataclasses.replace(golden, hits={**golden.hits, "pm.stroe": 1})
        with pytest.raises(UnknownSiteError):
            enumerate_points(typo)

    def test_sampling_is_stratified_and_seeded(self):
        golden = make_workload("train").golden()
        config = ExploreConfig(exhaustive=False, samples=24, seed=5)
        sample = _sample_points(enumerate_points(golden), config)
        strata = {(s.site, s.kind) for s in sample}
        full = {
            (s.site, s.kind)
            for s in enumerate_points(golden)
        }
        assert strata == full  # every (site, kind) represented
        again = _sample_points(enumerate_points(golden), config)
        assert sample == again  # same seed, same sample


class TestReplaySmoke:
    def test_single_crash_replay_recovers_clean(self):
        workload = make_workload("train")
        outcome = workload.replay(FaultSpec("romulus.tx.write", 5))
        assert outcome.fired
        assert outcome.ok, outcome.violations

    def test_link_drop_is_retried(self):
        workload = make_workload("link")
        outcome = workload.replay(FaultSpec("link.send", 2, "drop"))
        assert outcome.fired
        assert outcome.ok, outcome.violations

    def test_unfired_spec_is_a_violation(self):
        workload = make_workload("train")
        hits = workload.golden().hits["pm.store"]
        outcome = workload.replay(FaultSpec("pm.store", hits + 1000))
        assert not outcome.fired
        assert not outcome.ok


class TestClusterCoverage:
    """The substrate's fault coordinates reach all four workloads."""

    CLUSTER_SITES = (
        "cluster.host_kill",
        "cluster.partition",
        "cluster.deliver",
    )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_golden_census_includes_cluster_sites(self, name):
        golden = make_workload(name).golden()
        assert not golden.violations
        for site in self.CLUSTER_SITES:
            assert golden.hits.get(site, 0) > 0, (
                f"{name} golden run never reached {site}"
            )

    def test_host_kill_mid_step_recovers_clean(self):
        outcome = make_workload("link").replay(
            FaultSpec("cluster.host_kill", 2, "crash")
        )
        assert outcome.fired
        assert outcome.reboots == 1
        assert outcome.ok, outcome.violations

    def test_partition_is_routed_around(self):
        outcome = make_workload("serve").replay(
            FaultSpec("cluster.partition", 1, "drop")
        )
        assert outcome.fired
        assert outcome.ok, outcome.violations

    def test_dropped_completion_is_redispatched(self):
        outcome = make_workload("serve").replay(
            FaultSpec("cluster.deliver", 1, "drop")
        )
        assert outcome.fired
        assert outcome.ok, outcome.violations

    def test_train_dataset_fetch_survives_wire_drop(self):
        outcome = make_workload("train").replay(
            FaultSpec("cluster.deliver", 1, "drop")
        )
        assert outcome.fired
        assert outcome.reboots == 0
        assert outcome.ok, outcome.violations


class TestFederatedCoverage:
    """The federated workload's own coordinates and recovery path."""

    FED_SITES = ("fed.submit", "fed.aggregate", "fed.commit")

    def test_golden_census_includes_fed_sites(self):
        golden = make_workload("federated").golden()
        assert not golden.violations
        for site in self.FED_SITES:
            assert golden.hits.get(site, 0) > 0, (
                f"federated golden run never reached {site}"
            )

    def test_commit_crash_resumes_bit_identical(self):
        outcome = make_workload("federated").replay(
            FaultSpec("fed.commit", 1, "crash")
        )
        assert outcome.fired
        assert outcome.reboots == 1
        assert outcome.ok, outcome.violations

    def test_submission_drop_is_retransmitted(self):
        outcome = make_workload("federated").replay(
            FaultSpec("fed.submit", 1, "drop")
        )
        assert outcome.fired
        assert outcome.reboots == 0
        assert outcome.ok, outcome.violations

    def test_aggregate_crash_recovers_clean(self):
        outcome = make_workload("federated").replay(
            FaultSpec("fed.aggregate", 2, "crash")
        )
        assert outcome.fired
        assert outcome.ok, outcome.violations


class TestSampledExploration:
    def test_sampled_exploration_holds_all_invariants(self):
        report = explore(
            ExploreConfig(exhaustive=False, samples=12, seed=1,
                          workloads=("train",))
        )
        assert report.ok, report.render_text()
        assert report.points_explored >= 12
        assert "all hold" in report.render_text()
        data = report.to_dict()
        assert data["ok"] is True
        assert data["mode"] == "sampled"

    def test_explorer_detects_a_broken_recovery(self, tmp_path):
        # Self-validation: on a copy of src/ whose recovery restores
        # nothing, the same sampled exploration must fail.
        mutant = next(m for m in MUTANTS if m.name == "recovery-skip-restore")
        src = mutated_copy(mutant, tmp_path / "src")
        flight_dir = tmp_path / "flight"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "crashtest", "--samples", "12",
             "--seed", "1", "--workload", "train", "--format", "json",
             "--flight-dir", str(flight_dir)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 1, proc.stderr
        violations = json.loads(proc.stdout)["violations"]
        assert violations
        # Every violation carries its flight-recorder snapshot, also
        # written as a standalone crash artifact.
        assert all(v["flight"] for v in violations)
        dumps = sorted(flight_dir.glob("flight-train-*.json"))
        assert len(dumps) == len(violations)
        for dump in dumps:
            doc = json.loads(dump.read_text())
            assert doc["workload"] == "train"
            assert doc["flight"]["events"], "flight dump has no event tail"


@pytest.mark.crashtest
class TestExhaustiveAcceptance:
    """The ISSUE acceptance matrix — run via ``pytest -m crashtest``."""

    def test_exhaustive_exploration_is_clean(self):
        report = explore(ExploreConfig(exhaustive=True, seed=0))
        assert report.ok, report.render_text()
        assert report.crash_points >= 50
        assert [w.name for w in report.workloads] == list(WORKLOADS)
        # The CLI's JSON document, byte for byte (CI `cmp`s the same).
        census = Path(__file__).parent / "fixtures/golden/crash_census.json"
        assert report.to_json() + "\n" == census.read_text()
