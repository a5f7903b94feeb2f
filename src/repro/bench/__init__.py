"""Experiment harnesses — one runner per table/figure of the paper.

Every harness is deterministic, parameterized (so tests can smoke-run
it at reduced scale), and returns structured records; the scripts in
``benchmarks/`` and ``examples/`` print the paper-style tables from
them.  ``EXPERIMENTS.md`` records paper-vs-measured for each.
"""

from repro.bench.fig2 import run_fig2_table
from repro.bench.fig6 import Fig6Point, run_fig6
from repro.bench.fig7 import Fig7Record, run_fig7
from repro.bench.table1 import Table1, compute_table1
from repro.bench.fig8 import Fig8Point, run_fig8
from repro.bench.fig9 import Fig9Result, run_fig9
from repro.bench.fig10 import Fig10Result, run_fig10
from repro.bench.federated import FederatedBenchReport, run_federated
from repro.bench.inference import InferenceResult, run_inference
from repro.bench.results import format_table
from repro.bench.serving_load import (
    ConfigResult,
    ServingLoadReport,
    run_serving_load,
)
from repro.bench.wallclock import (
    MirrorWallclock,
    WallclockReport,
    load_baseline,
    run_wallclock,
    write_baseline,
)

__all__ = [
    "run_fig2_table",
    "run_fig6",
    "Fig6Point",
    "run_fig7",
    "Fig7Record",
    "compute_table1",
    "Table1",
    "run_fig8",
    "Fig8Point",
    "run_fig9",
    "Fig9Result",
    "run_fig10",
    "Fig10Result",
    "run_federated",
    "FederatedBenchReport",
    "run_inference",
    "InferenceResult",
    "format_table",
    "run_serving_load",
    "ServingLoadReport",
    "ConfigResult",
    "run_wallclock",
    "write_baseline",
    "load_baseline",
    "WallclockReport",
    "MirrorWallclock",
]
