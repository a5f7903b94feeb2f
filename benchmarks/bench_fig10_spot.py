"""Fig. 10 — model training on AWS EC2 spot instances.

A 12-LReLU-conv model trains for 500 iterations while the spot market
(5-minute price trace, max bid 0.0955) kills and revives the instance —
two interruptions with the default trace.  Panels: (a) resilient loss,
(b) instance state curve, (c) non-resilient loss (combined iterations
inflated by restarts).
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import run_fig10

TARGET = 500


def test_fig10_spot_training(benchmark):
    result = run_once(
        benchmark,
        run_fig10,
        server="emlSGX-PM",
        target_iterations=TARGET,
        n_conv_layers=12,
        iterations_per_interval=8,
        n_rows=2048,
    )

    res, non = result.resilient, result.non_resilient
    print("\nFig. 10 — spot-instance training (bid 0.0955)")
    print(
        f"(a) resilient: {res.total_iterations} iterations, "
        f"final loss {res.log.final_loss:.4f}, "
        f"{res.interruptions} interruptions, {res.restarts} restarts"
    )
    state = "".join(str(s) for s in res.state_curve)
    print(f"(b) state curve: {state}")
    print(
        f"(c) non-resilient: {non.total_iterations} combined iterations "
        f"(target {TARGET}), final loss {non.log.final_loss:.4f}"
    )

    # Two interruptions, as in the paper with this bid.
    assert result.trace.interruptions(result.max_bid) == 2
    assert res.interruptions == 2
    # Resilient run does exactly the target amount of work.
    assert res.total_iterations == TARGET
    assert res.reached_target
    # Non-resilient redoes work after each interruption.
    assert non.total_iterations > TARGET
    assert non.reached_target

    benchmark.extra_info["interruptions"] = res.interruptions
    benchmark.extra_info["resilient_total"] = res.total_iterations
    benchmark.extra_info["non_resilient_total"] = non.total_iterations
