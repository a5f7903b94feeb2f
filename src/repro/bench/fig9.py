"""Fig. 9 — crash resilience under random kills.

The paper trains a 5-LReLU-conv CNN on MNIST for 500 iterations while
"randomly killing and restarting the training process every 10 to 15
minutes" (9 crashes total):

* (a) **crash-resilient** — the loss curve "follows closely (no breaks
  at crash and resume points) the one obtained without crashes";
* (b) **non-crash-resilient** — every restart begins from fresh random
  weights, so reaching a trained state takes the full 500 iterations
  *after the last crash*, pushing the combined iteration count past
  1000.

Wall-clock kill times are mapped to iteration indices (training speed
is constant, so "every 10-15 minutes" is a uniform iteration gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.system import PliniusSystem
from repro.darknet.data import DataMatrix
from repro.darknet.train import TrainingLog
from repro.data import synthetic_mnist, to_data_matrix

#: Seeds the dataset, the system and every draw of this harness.
SEED = 7


@dataclass
class Fig9Result:
    """The three curves of the experiment."""

    baseline: TrainingLog  # no crashes
    resilient: TrainingLog  # crashes + PM mirror resume
    non_resilient: TrainingLog  # crashes, restart from scratch
    crash_points: List[int]
    resilient_total_iterations: int
    non_resilient_total_iterations: int


def _crash_schedule(iterations: int, n_crashes: int) -> List[int]:
    """Kill iterations, uniformly spread with jitter (the 10-15 min gap)."""
    rng = np.random.default_rng(SEED)
    gap = iterations / (n_crashes + 1)
    points = []
    for k in range(1, n_crashes + 1):
        jitter = rng.uniform(-0.2, 0.2) * gap
        points.append(int(np.clip(k * gap + jitter, 1, iterations - 1)))
    return sorted(set(points))


def _make_system(server: str, data: DataMatrix) -> PliniusSystem:
    system = PliniusSystem.create(server=server, seed=SEED, pm_size=96 << 20)
    system.load_data(data)
    return system


def run_fig9(
    server: str = "emlSGX-PM",
    iterations: int = 500,
    n_crashes: int = 9,
    filters: int = 8,
    batch: int = 32,
    n_rows: int = 2048,
) -> Fig9Result:
    """Run all three Fig. 9 curves (5 LReLU-conv layers); fully
    deterministic."""
    images, labels, _, _ = synthetic_mnist(n_rows, 1, seed=SEED)
    data = to_data_matrix(images, labels)
    crash_points = _crash_schedule(iterations, n_crashes)

    def build(system: PliniusSystem):
        return system.build_model(
            n_conv_layers=5, filters=filters, batch=batch
        )

    # Baseline: uninterrupted.
    system = _make_system(server, data)
    baseline = system.train(build(system), iterations=iterations).log

    # Crash-resilient: kill at each crash point, resume through the mirror.
    system = _make_system(server, data)
    resilient = TrainingLog()
    network = build(system)
    resilient_total = 0
    for kill_at in crash_points + [None]:
        hook = (
            (lambda it, k=kill_at: it >= k) if kill_at is not None else None
        )
        run = system.train(network, iterations=iterations, kill_hook=hook)
        for it, loss in zip(run.log.iterations, run.log.losses):
            resilient.record(it, loss)
        resilient_total += run.iterations_run
        if run.completed:
            break
        system.kill()
        system.resume()
        network = build(system)  # fresh weights; mirror_in overwrites them

    # Non-resilient: same kill schedule, but every restart begins at 0.
    system = _make_system(server, data)
    non_resilient = TrainingLog()
    non_total = 0
    network = build(system)
    previous_kill = 0
    for kill_at in crash_points + [None]:
        segment = (
            iterations if kill_at is None else max(1, kill_at - previous_kill)
        )
        run = system.train(
            network,
            iterations=min(segment, iterations),
            crash_resilient=False,
        )
        for loss in run.log.losses:
            non_total += 1
            non_resilient.record(non_total, loss)
        if kill_at is None:
            break
        previous_kill = kill_at
        system.kill()
        system.resume()
        network = build(system)  # restart from scratch

    return Fig9Result(
        baseline=baseline,
        resilient=resilient,
        non_resilient=non_resilient,
        crash_points=crash_points,
        resilient_total_iterations=resilient_total,
        non_resilient_total_iterations=non_total,
    )
