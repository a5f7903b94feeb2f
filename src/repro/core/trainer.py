"""The Plinius trainer — Algorithm 2, with crash/resume support.

``train_model(config)`` in the paper:

1. build the enclave model from the (untrusted-parsed) config;
2. load training data into PM if absent;
3. if a PM mirror exists, ``mirror_in`` and resume from its iteration,
   else ``alloc_mirror_model``;
4. loop: decrypt a batch from PM, train one iteration, ``mirror_out``.

The trainer can be *killed* at any iteration boundary (spot-instance
eviction, random crash injection): the enclave is destroyed, DRAM
content is lost, and the PM device experiences a power-failure (all
unflushed stores dropped).  A subsequent trainer constructed over the
same PM device recovers via Romulus and resumes exactly where the last
mirrored iteration left off.

Batches are drawn with a per-iteration derived seed, so an interrupted
+ resumed run sees the same batch sequence as an uninterrupted one —
which is what makes the Fig. 9a "loss curve follows closely the one
obtained without crashes" claim checkable bit-for-bit here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.mirror import MirrorModule, MirrorTiming
from repro.core.pm_data import PmDataModule
from repro.darknet.network import Network
from repro.darknet.train import TrainingLog
from repro.sgx.enclave import Enclave
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile


@dataclass
class IterationTiming:
    """Simulated per-iteration cost breakdown (Fig. 8's metric)."""

    fetch_seconds: float
    compute_seconds: float
    mirror_seconds: float

    @property
    def total(self) -> float:
        return self.fetch_seconds + self.compute_seconds + self.mirror_seconds


@dataclass
class TrainResult:
    """Outcome of one (possibly interrupted) training run."""

    log: TrainingLog
    completed: bool
    iterations_run: int
    final_iteration: int
    sim_seconds: float
    resumed_from: int = 0
    mirror_timings: List[MirrorTiming] = field(default_factory=list)
    iteration_timings: List[IterationTiming] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.log.final_loss


class PliniusTrainer:
    """Drives secure training with PM-mirrored fault tolerance."""

    def __init__(
        self,
        network: Network,
        mirror: MirrorModule,
        pm_data: PmDataModule,
        enclave: Enclave,
        profile: ServerProfile,
        clock: SimClock,
        input_shape: tuple = (1, 28, 28),
        mirror_every: int = 1,
        batch_seed: int = 20210409,
        crash_resilient: bool = True,
    ) -> None:
        if mirror_every < 1:
            raise ValueError(f"mirror_every must be >= 1, got {mirror_every}")
        self.network = network
        self.mirror = mirror
        self.pm_data = pm_data
        self.enclave = enclave
        self.profile = profile
        self.clock = clock
        self.input_shape = input_shape
        self.mirror_every = mirror_every
        self.batch_seed = batch_seed
        self.crash_resilient = crash_resilient
        # Track the model's EPC residency for paging accounting.
        self.enclave.malloc("model", network.param_bytes)

    # ------------------------------------------------------------------
    def _batch_rng(self, iteration: int) -> np.random.Generator:
        """Deterministic per-iteration batch sampler."""
        return np.random.default_rng((self.batch_seed, iteration))

    def train(
        self,
        max_iterations: int,
        log: Optional[TrainingLog] = None,
        kill_hook: Optional[Callable[[int], bool]] = None,
    ) -> TrainResult:
        """Run Algorithm 2 until ``max_iterations`` or a kill.

        ``kill_hook(iteration)`` is consulted *before* each iteration;
        returning True simulates the process being killed at that point
        (the caller is then responsible for crashing devices and
        constructing a fresh trainer to resume).
        """
        if not self.pm_data.exists():
            raise RuntimeError(
                "training data is not in PM; load it via PmDataModule.load "
                "(ocall_load_data_in_pm)"
            )
        log = log if log is not None else TrainingLog()
        compute = self.profile.compute
        batch = self.network.batch

        # Mirror-in or allocate (Algorithm 2, lines 7-12).
        resumed_from = 0
        mirror_timings: List[MirrorTiming] = []
        if self.crash_resilient:
            if self.mirror.has_snapshot() and self.network.iteration == 0:
                # Fresh process over an existing mirror: restore and
                # resume where training left off.  (A warm model that is
                # already ahead of the mirror is never rewound.)
                timing = self.mirror.mirror_in(self.network)
                mirror_timings.append(timing)
                resumed_from = self.network.iteration
            elif not self.mirror.exists():
                self.mirror.alloc_mirror_model(self.network)
        # A non-resilient trainer never touches the mirror: after a kill
        # its model restarts from scratch because nothing restored it.

        start_time = self.clock.now()
        iteration_timings: List[IterationTiming] = []
        completed = True
        iterations_run = 0
        flops = self.network.flops(batch)

        recorder = self.clock.recorder
        while self.network.iteration < max_iterations:
            iteration = self.network.iteration
            if kill_hook is not None and kill_hook(iteration):
                completed = False
                break

            outer = (
                recorder.begin(
                    "train.iteration",
                    self.clock.now(),
                    category="train",
                    args={"iteration": iteration},
                )
                if recorder.enabled
                else None
            )
            try:
                with self.clock.stopwatch("train.fetch") as fetch_span:
                    x, y = self.pm_data.random_batch(
                        batch, self._batch_rng(iteration)
                    )
                    x = x.reshape((len(x),) + tuple(self.input_shape))

                with self.clock.stopwatch("train.compute") as compute_span:
                    self.clock.advance(compute.iteration_time(flops))
                    loss = self.network.train_batch(x, y)

                mirror_seconds = 0.0
                if (
                    self.crash_resilient
                    and self.network.iteration % self.mirror_every == 0
                ):
                    timing = self.mirror.mirror_out(
                        self.network, self.network.iteration
                    )
                    mirror_timings.append(timing)
                    mirror_seconds = timing.total
            finally:
                if outer is not None:
                    recorder.end(outer, self.clock.now())

            log.record(self.network.iteration, loss)
            iteration_timings.append(
                IterationTiming(
                    fetch_seconds=fetch_span.elapsed,
                    compute_seconds=compute_span.elapsed,
                    mirror_seconds=mirror_seconds,
                )
            )
            iterations_run += 1

        return TrainResult(
            log=log,
            completed=completed,
            iterations_run=iterations_run,
            final_iteration=self.network.iteration,
            sim_seconds=self.clock.now() - start_time,
            resumed_from=resumed_from,
            mirror_timings=mirror_timings,
            iteration_timings=iteration_timings,
        )
