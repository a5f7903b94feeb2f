"""Fig. 10 — model training on AWS EC2 spot instances.

A 12-LReLU-conv model is trained for 500 iterations while a spot-price
trace (5-minute market samples, maximum bid 0.0955) kills and revives
the instance.  Panels: (a) the crash-resilient loss curve, (b) the
instance state curve (1 = running, 0 = stopped; two interruptions with
the paper's parameters), (c) the non-resilient loss curve whose
combined iteration count exceeds the target because every interruption
restarts training from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import PliniusSystem
from repro.data import synthetic_mnist, to_data_matrix
from repro.spot.simulator import SpotRunResult, SpotSimulator
from repro.spot.traces import SpotTrace, synthetic_trace

#: The paper's maximum spot bid ($/h).
MAX_BID = 0.0955
#: Seeds the dataset, the system and every draw of this harness.
SEED = 7


@dataclass
class Fig10Result:
    """Both spot runs plus the trace that drove them."""

    trace: SpotTrace
    max_bid: float
    resilient: SpotRunResult
    non_resilient: SpotRunResult


def run_fig10(
    server: str = "emlSGX-PM",
    target_iterations: int = 500,
    n_conv_layers: int = 12,
    iterations_per_interval: int = 8,
    n_rows: int = 2048,
    trace: SpotTrace = None,
) -> Fig10Result:
    """Run the spot experiment (resilient + non-resilient) with a
    4-filter model at batch 32 and the paper's bid."""
    if trace is None:
        trace = synthetic_trace()
    images, labels, _, _ = synthetic_mnist(n_rows, 1, seed=SEED)
    data = to_data_matrix(images, labels)

    def run(crash_resilient: bool) -> SpotRunResult:
        system = PliniusSystem.create(
            server=server, seed=SEED, pm_size=96 << 20
        )
        simulator = SpotSimulator(
            system,
            data,
            max_bid=MAX_BID,
            n_conv_layers=n_conv_layers,
            iterations_per_interval=iterations_per_interval,
            crash_resilient=crash_resilient,
        )
        return simulator.run(trace, target_iterations=target_iterations)

    return Fig10Result(
        trace=trace,
        max_bid=MAX_BID,
        resilient=run(True),
        non_resilient=run(False),
    )
