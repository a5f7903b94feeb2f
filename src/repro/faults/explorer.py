"""The crash-schedule explorer: enumerate, replay, check, shrink.

The explorer first runs each workload fault-free under a
:class:`~repro.faults.plan.CountingPlan` (the **golden** run) to learn
how many times every fault point is hit.  That hit census defines the
crash schedule space: one candidate replay per ``(site, hit, kind)``
coordinate a site supports.  A golden hit at a name the registry lacks
raises :class:`~repro.faults.registry.UnknownSiteError`: a misspelt
site fails the census instead of leaving a hole in it.  Exhaustive
mode replays a strided cap of every site's hits (always including the
first and last arrival — the boundary schedules where ordering bugs
hide); sampling mode draws a seeded, stratified subset that still
covers every ``(site, kind)`` pair at least once.

Each replay injects exactly one fault, drives the workload's recovery,
and records any invariant violations (catalogue in
:mod:`repro.faults.invariants`).  Violating schedules are *shrunk*: the
explorer retries earlier hits at the same site to report the minimal
failing schedule, which is almost always the easiest one to debug.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultSpec
from repro.faults.registry import (
    ABORT,
    CRASH,
    DROP,
    FLIP,
    TORN,
    UNFENCED,
    require_site,
)
from repro.faults.workload import (
    WORKLOADS,
    GoldenRun,
    ReplayOutcome,
    make_workload,
)

#: Bit positions for FLIP points.  ``flip_bit`` reduces the position
#: modulo the record length, so the large prime lands at an effectively
#: arbitrary spot in ciphertext/IV/MAC across record sizes.
FLIP_BITS: Tuple[int, ...] = (0, 100_003)

#: Crash points per site (torn, abort, drop and flip take at most 3).
PER_SITE_CAP = 6

#: Persistence policies an UNFENCED point is replayed under.
UNFENCED_POLICIES: Tuple[str, ...] = ("none", "all", "newest", "subset:1")

#: Replay budget for shrinking one violation.
SHRINK_BUDGET = 6


@dataclass(frozen=True)
class ExploreConfig:
    """Knobs for one exploration run."""

    exhaustive: bool = True
    samples: int = 32
    seed: int = 0
    workloads: Tuple[str, ...] = tuple(WORKLOADS)
    #: When set, every violation's flight-recorder snapshot is written
    #: to ``<flight_dir>/flight-<workload>-<n>.json`` as a standalone
    #: crash artifact (what the CI job uploads on failure).
    flight_dir: Optional[str] = None


@dataclass
class Violation:
    """One schedule that broke an invariant (after shrinking)."""

    workload: str
    spec: Optional[FaultSpec]  # None: the golden run itself violated
    messages: List[str]
    shrunk_from: Optional[FaultSpec] = None
    #: Flight-recorder snapshot of the violating replay — the bounded
    #: tail of spans/counters/fault events leading up to the bad state,
    #: including the ``fault`` entry naming the injected coordinate.
    flight: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "spec": self.spec.describe() if self.spec else "golden",
            "messages": list(self.messages),
            "shrunk_from": (
                self.shrunk_from.describe() if self.shrunk_from else None
            ),
            "flight": self.flight,
        }


@dataclass
class WorkloadReport:
    """Exploration summary for one workload."""

    name: str
    golden_hits: Dict[str, int]
    points: int = 0
    crash_points: int = 0
    points_by_kind: Dict[str, int] = field(default_factory=dict)
    replays: int = 0


@dataclass
class ExplorationReport:
    """Everything one ``explore()`` call learned."""

    config: ExploreConfig
    workloads: List[WorkloadReport] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def points_explored(self) -> int:
        return sum(w.points for w in self.workloads)

    @property
    def crash_points(self) -> int:
        """Distinct (workload, site, hit) crash schedules replayed."""
        return sum(w.crash_points for w in self.workloads)

    def to_dict(self) -> dict:
        return {
            "mode": "exhaustive" if self.config.exhaustive else "sampled",
            "seed": self.config.seed,
            "points_explored": self.points_explored,
            "crash_points": self.crash_points,
            "ok": self.ok,
            "workloads": [
                {
                    "name": w.name,
                    "points": w.points,
                    "crash_points": w.crash_points,
                    "points_by_kind": dict(w.points_by_kind),
                    "replays": w.replays,
                    "golden_hits": dict(sorted(w.golden_hits.items())),
                }
                for w in self.workloads
            ],
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines = [
            f"crash-schedule exploration "
            f"({'exhaustive' if self.config.exhaustive else 'sampled'}, "
            f"seed {self.config.seed})",
            f"  points explored : {self.points_explored} "
            f"({self.crash_points} crash schedules)",
        ]
        for w in self.workloads:
            kinds = ", ".join(
                f"{k}={n}" for k, n in sorted(w.points_by_kind.items())
            )
            lines.append(
                f"  workload {w.name:<6}: {w.points} points over "
                f"{len(w.golden_hits)} sites ({kinds})"
            )
        if self.ok:
            lines.append("  invariants      : all hold (0 violations)")
        else:
            lines.append(
                f"  VIOLATIONS      : {len(self.violations)} schedule(s) "
                "broke an invariant"
            )
            for v in self.violations:
                spec = v.spec.describe() if v.spec else "golden run"
                lines.append(f"    [{v.workload}] {spec}")
                if v.shrunk_from is not None:
                    lines.append(
                        f"      (shrunk from {v.shrunk_from.describe()})"
                    )
                for msg in v.messages:
                    lines.append(f"      - {msg}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _strided_hits(total: int, cap: int) -> List[int]:
    """Up to ``cap`` hit indices in [1, total], always keeping 1 and
    ``total`` (the boundary schedules)."""
    if total <= 0:
        return []
    if total <= cap:
        return list(range(1, total + 1))
    picks = {
        1 + round(i * (total - 1) / (cap - 1)) for i in range(cap)
    }
    return sorted(picks)


def _specs_for_site(site_name: str, total_hits: int) -> List[FaultSpec]:
    """Every candidate spec for one site under the per-site caps."""
    site = require_site(site_name)  # a typo'd site fails the census closed
    cap = PER_SITE_CAP
    out: List[FaultSpec] = []
    if site.supports(CRASH):
        for hit in _strided_hits(total_hits, cap):
            out.append(FaultSpec(site_name, hit, CRASH))
    if site.supports(TORN):
        for hit in _strided_hits(total_hits, min(cap, 3)):
            for fraction in (0.0, 0.5):
                out.append(
                    FaultSpec(site_name, hit, TORN, fraction=fraction)
                )
    if site.supports(ABORT):
        for hit in _strided_hits(total_hits, min(cap, 3)):
            out.append(FaultSpec(site_name, hit, ABORT))
    if site.supports(DROP):
        for hit in _strided_hits(total_hits, min(cap, 3)):
            out.append(FaultSpec(site_name, hit, DROP))
    if site.supports(FLIP):
        for hit in _strided_hits(total_hits, min(cap, 3)):
            for bit in FLIP_BITS:
                out.append(FaultSpec(site_name, hit, FLIP, bit=bit))
    if site.supports(UNFENCED):
        # Every fence: which lines are pending differs at each one.
        for hit in range(1, total_hits + 1):
            for landed in UNFENCED_POLICIES:
                out.append(
                    FaultSpec(site_name, hit, UNFENCED, landed=landed)
                )
    return out


def enumerate_points(golden: GoldenRun) -> List[FaultSpec]:
    """All candidate fault specs for one workload's golden hit census."""
    specs: List[FaultSpec] = []
    for site_name, total in sorted(golden.hits.items()):
        specs.extend(_specs_for_site(site_name, total))
    return specs


def _sample_points(
    specs: Sequence[FaultSpec], config: ExploreConfig
) -> List[FaultSpec]:
    """Seeded stratified sample: ≥1 point per (site, kind), then fill."""
    import numpy as np

    rng = np.random.default_rng(config.seed)
    by_stratum: Dict[Tuple[str, str], List[FaultSpec]] = {}
    for spec in specs:
        by_stratum.setdefault((spec.site, spec.kind), []).append(spec)
    chosen: List[FaultSpec] = []
    for key in sorted(by_stratum):
        bucket = by_stratum[key]
        chosen.append(bucket[int(rng.integers(0, len(bucket)))])
    remaining = [s for s in specs if s not in chosen]
    extra = max(0, config.samples - len(chosen))
    if extra and remaining:
        idx = rng.choice(
            len(remaining), size=min(extra, len(remaining)), replace=False
        )
        chosen.extend(remaining[int(i)] for i in sorted(idx))
    return chosen


def _shrink(
    workload, spec: FaultSpec
) -> Tuple[FaultSpec, ReplayOutcome, Optional[FaultSpec]]:
    """Find an earlier failing hit at the same site (bounded replays)."""
    candidates = sorted(
        {
            h
            for h in (
                1,
                2,
                spec.hit // 8,
                spec.hit // 4,
                spec.hit // 2,
                (3 * spec.hit) // 4,
            )
            if 1 <= h < spec.hit
        }
    )[:SHRINK_BUDGET]
    for hit in candidates:
        smaller = dataclasses.replace(spec, hit=hit)
        outcome = workload.replay(smaller)
        if outcome.violations:
            return smaller, outcome, spec
    return spec, workload.replay(spec), None


def _dump_flight(
    report: ExplorationReport, violation: Violation, flight_dir: Optional[str]
) -> None:
    """Write one violation's flight snapshot as a standalone artifact."""
    if flight_dir is None or violation.flight is None:
        return
    import os

    os.makedirs(flight_dir, exist_ok=True)
    index = len(report.violations)  # violation already appended: 1-based
    path = os.path.join(
        flight_dir, f"flight-{violation.workload}-{index}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(violation.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
def explore(config: ExploreConfig) -> ExplorationReport:
    """Run the full golden → enumerate → replay → check → shrink loop."""
    report = ExplorationReport(config=config)
    for name in config.workloads:
        workload = make_workload(name)
        golden = workload.golden()
        wreport = WorkloadReport(name=name, golden_hits=dict(golden.hits))
        report.workloads.append(wreport)
        if golden.violations:
            report.violations.append(
                Violation(
                    workload=name,
                    spec=None,
                    messages=list(golden.violations),
                    flight=golden.flight,
                )
            )
            _dump_flight(report, report.violations[-1], config.flight_dir)
            continue  # a broken golden run invalidates every replay
        specs = enumerate_points(golden)
        if not config.exhaustive:
            specs = _sample_points(specs, config)
        for spec in specs:
            wreport.points += 1
            wreport.points_by_kind[spec.kind] = (
                wreport.points_by_kind.get(spec.kind, 0) + 1
            )
            if spec.kind == CRASH:
                wreport.crash_points += 1
            outcome = workload.replay(spec)
            wreport.replays += 1
            if not outcome.violations:
                continue
            shrunk_from: Optional[FaultSpec] = None
            if spec.hit > 1:
                spec, outcome, shrunk_from = _shrink(workload, spec)
                wreport.replays += 1 + (
                    0 if shrunk_from is None else 1
                )
            report.violations.append(
                Violation(
                    workload=name,
                    spec=spec,
                    messages=list(outcome.violations),
                    shrunk_from=shrunk_from,
                    flight=outcome.flight,
                )
            )
            _dump_flight(report, report.violations[-1], config.flight_dir)
    return report
