"""AWS EC2 spot-instance simulation (paper Fig. 10).

The paper uses EC2 spot-price traces from Wang et al. [38]: market
prices at 5-minute intervals.  A fixed maximum bid is compared against
the market price at every timestamp; the training process runs while
``max_bid > market_price`` and is killed otherwise.  With the paper's
bid of 0.0955 the trace yields two interruptions over the training run.

:mod:`repro.spot.traces` provides a deterministic synthetic generator
shaped like the paper's trace (the real traces are not redistributable
here); :mod:`repro.spot.simulator` drives a
:class:`~repro.core.PliniusSystem` through the kill/resume schedule the
trace induces.
"""

from repro.spot.traces import SpotTrace, synthetic_trace
from repro.spot.simulator import SpotRunResult, SpotSimulator

__all__ = [
    "SpotTrace",
    "synthetic_trace",
    "SpotSimulator",
    "SpotRunResult",
]
