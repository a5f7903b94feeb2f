"""Frozen replay outcomes: what every crash replay *computes*.

``crash_census.json`` (the ``crashtest --exhaustive --format json``
document) pins which coordinates exist and that no invariant broke; it
would not notice a refactor that changed a digest without tripping an
invariant.  ``crash_outcomes.json`` therefore freezes, for every
workload, the golden run and every exhaustive single-fault replay::

    [workload, coordinate, fired, completed, reboots,
     integrity_rejections, final_iteration, stored_iteration,
     params_digest[:16], sha256(losses)[:16], len(violations)]

The two digest columns go through the host's BLAS, so they are compared
only where ``blas_probe`` (a fixed float32 matmul) reproduces; on any
other host the structural columns still are.

Regenerate both fixtures when a fault site or kind is added or moved::

    PYTHONPATH=src python -m tests.test_faults_outcomes \
        > tests/fixtures/golden/crash_outcomes.json
    PYTHONPATH=src python -m repro crashtest --exhaustive --format json \
        > tests/fixtures/golden/crash_census.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.explorer import enumerate_points
from repro.faults.workload import WORKLOADS, make_workload

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"
OUTCOMES = GOLDEN_DIR / "crash_outcomes.json"

#: Replays per workload the tier-1 test spot-checks.
TIER1_REPLAYS = 8
#: Row columns that depend on the host's float arithmetic.
DIGEST_COLUMNS = (8, 9)


def _blas_probe() -> str:
    rng = np.random.default_rng(0)
    a = rng.random((64, 200), dtype=np.float32)
    b = rng.random((200, 48), dtype=np.float32)
    return hashlib.sha256((a @ b).tobytes()).hexdigest()[:16]


def _losses_sha(losses: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(losses):
        value = losses[key]
        if not isinstance(value, bytes):  # serve stores sealed responses
            value = float(value).hex().encode()
        h.update(b"%d:" % key + value)
    return h.hexdigest()[:16]


def _row(name: str, label: str, outcome) -> list:
    return [
        name,
        label,
        outcome.fired,
        outcome.completed,
        outcome.reboots,
        outcome.integrity_rejections,
        outcome.final_iteration,
        outcome.stored_iteration,
        outcome.params_digest[:16],
        _losses_sha(outcome.losses),
        len(outcome.violations),
    ]


def _rows(name: str, every: bool) -> list:
    workload = make_workload(name)
    specs = enumerate_points(workload.golden())
    if not every:
        picks = np.linspace(0, len(specs) - 1, TIER1_REPLAYS).round()
        specs = [specs[int(i)] for i in picks]
    rows = [_row(name, "golden", workload.golden().outcome)]
    for spec in specs:
        rows.append(_row(name, spec.describe(), workload.replay(spec)))
    return rows


def _check(rows: list) -> None:
    fixture = json.loads(OUTCOMES.read_text())
    frozen = {(r[0], r[1]): r for r in fixture["rows"]}
    same_host = fixture["blas_probe"] == _blas_probe()
    for row in rows:
        want = frozen[row[0], row[1]]
        if not same_host:
            row = [c for i, c in enumerate(row) if i not in DIGEST_COLUMNS]
            want = [c for i, c in enumerate(want) if i not in DIGEST_COLUMNS]
        assert row == want


@pytest.mark.parametrize("name", WORKLOADS)
def test_golden_and_strided_replays_match_the_frozen_outcomes(name):
    rows = _rows(name, every=False)
    assert len(rows) == 1 + TIER1_REPLAYS
    _check(rows)


@pytest.mark.crashtest
def test_every_replay_outcome_matches_the_frozen_matrix():
    rows = [row for name in WORKLOADS for row in _rows(name, every=True)]
    assert len(rows) == len(json.loads(OUTCOMES.read_text())["rows"])
    _check(rows)


if __name__ == "__main__":
    body = ",\n".join(
        "  " + json.dumps(row)
        for name in WORKLOADS
        for row in _rows(name, every=True)
    )
    print(
        '{\n "blas_probe": "%s",\n "rows": [\n%s\n ]\n}'
        % (_blas_probe(), body)
    )
