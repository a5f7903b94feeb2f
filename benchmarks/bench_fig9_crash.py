"""Fig. 9 — crash resilience: 9 random kills over 500 iterations.

(a) Crash-resilient: the loss curve tracks the uninterrupted baseline
    with no breaks at crash/resume points (the PM mirror restores the
    exact learned parameters).
(b) Non-resilient: every restart begins from fresh random weights; the
    combined iteration count needed to finish exceeds 1000.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.bench import run_fig9

ITERATIONS = 500
CRASHES = 9


def test_fig9_crash_resilience(benchmark):
    result = run_once(
        benchmark,
        run_fig9,
        server="emlSGX-PM",
        iterations=ITERATIONS,
        n_crashes=CRASHES,
        filters=8,
        batch=32,
        n_rows=2048,
    )

    print(f"\nFig. 9 — crash resilience ({CRASHES} random kills)")
    print(f"crash points (iterations): {result.crash_points}")
    print(
        "resilient:     "
        f"{result.resilient_total_iterations} total iterations, "
        f"final loss {result.resilient.final_loss:.4f}"
    )
    print(
        "baseline:      "
        f"{len(result.baseline.losses)} iterations, "
        f"final loss {result.baseline.final_loss:.4f}"
    )
    print(
        "non-resilient: "
        f"{result.non_resilient_total_iterations} total iterations, "
        f"final loss {result.non_resilient.final_loss:.4f}"
    )

    # (a) resilient run: exactly the target, same iteration axis as the
    # baseline, loss converged to the same level.
    assert result.resilient_total_iterations == ITERATIONS
    assert result.resilient.iterations == result.baseline.iterations
    res_tail = float(np.mean(result.resilient.losses[-25:]))
    base_tail = float(np.mean(result.baseline.losses[-25:]))
    assert abs(res_tail - base_tail) < 0.25
    # Continuity at crash points: no untrained-level spike right after.
    losses = result.resilient.losses
    initial = losses[0]
    for point in result.crash_points:
        if point + 3 < len(losses) and point > 25:
            after = np.mean(losses[point : point + 3])
            assert after < 0.8 * initial, f"loss break at crash {point}"

    # (b) non-resilient: roughly last-crash-point + 500 combined
    # iterations — the paper reports "over 1000" for its schedule.
    expected_min = result.crash_points[-1] + ITERATIONS
    assert result.non_resilient_total_iterations >= expected_min
    assert result.non_resilient_total_iterations > 1.8 * ITERATIONS

    benchmark.extra_info["resilient_total"] = result.resilient_total_iterations
    benchmark.extra_info["non_resilient_total"] = (
        result.non_resilient_total_iterations
    )
    benchmark.extra_info["final_loss_gap"] = round(abs(res_tail - base_tail), 4)
