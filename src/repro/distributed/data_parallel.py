"""Data-parallel Plinius: replicas + sealed gradient averaging.

Each worker holds a full model replica in its own enclave with its own
PM region, mirror, and shard of the training data (row-sealed in PM).
A step trains every replica on its shard-batch, seals the gradients,
averages them (secure allreduce through the coordinator), applies the
averaged step everywhere, and mirrors every replica.

With equal shards, averaging shard-mean gradients equals the full-batch
gradient, so — for batchnorm-free models and zero momentum — W workers
at batch B/W are *bit-identical* to one worker at batch B (checked in
the tests).  Simulated wall time per step is the slowest worker plus the
sealed allreduce, so compute scales ~1/W while communication grows with
model size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.host import Host
from repro.cluster.network import NIC_BANDWIDTH, NIC_LATENCY
from repro.core.models import MNIST_INPUT_SHAPE
from repro.core.pm_data import PmDataModule
from repro.darknet.data import DataMatrix
from repro.darknet.network import Network
from repro.darknet.train import TrainingLog
from repro.distributed.link import SecureLink
from repro.distributed.worker import JOB_KEY, StageWorker
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile, get_profile


@dataclass
class DataParallelResult:
    """Outcome of a data-parallel training run."""

    log: TrainingLog
    iterations_run: int
    final_iteration: int
    sim_seconds: float
    compute_seconds: float
    comm_seconds: float
    resumed_from: int = 0
    worker_losses: List[float] = field(default_factory=list)


class DataParallelPlinius:
    """Coordinator for replica training with sealed gradient averaging."""

    def __init__(
        self,
        data: DataMatrix,
        n_workers: int = 2,
        builder: Optional[Callable[[np.random.Generator], Network]] = None,
        n_conv_layers: int = 5,
        filters: int = 8,
        batch: int = 32,
        seed: int = 7,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if batch % n_workers != 0:
            raise ValueError(
                f"global batch {batch} must divide evenly across "
                f"{n_workers} workers"
            )
        self.profile: ServerProfile = get_profile("emlSGX-PM")
        self.n_workers = n_workers
        self.global_batch = batch
        self.shard_batch = batch // n_workers
        self.seed = seed
        self.clock = SimClock()  # global (wall) simulated time
        self.compute_seconds = 0.0
        self.comm_seconds = 0.0

        if builder is None:
            from repro.core.models import build_mnist_cnn

            def builder(rng: np.random.Generator) -> Network:
                return build_mnist_cnn(
                    n_conv_layers=n_conv_layers,
                    filters=filters,
                    batch=self.shard_batch,
                    rng=rng,
                )

        self._builder = builder
        self._nonces = [0] * n_workers

        # Workers run concurrently: each host gets its own clock.
        self.workers: List[StageWorker] = []
        self.links: List[SecureLink] = []
        self.pm_data: List[PmDataModule] = []
        shards = _split_shards(data, n_workers)
        for idx in range(n_workers):
            host = Host(f"replica-{idx}", SimClock(), self.profile)
            worker = StageWorker(
                host, self._worker_builder(idx), JOB_KEY, seed
            )
            self.workers.append(worker)
            self.links.append(SecureLink(worker.engine, worker.clock))
            module = PmDataModule(
                worker.region,
                worker.heap,
                worker.engine,
                worker.enclave,
                self.profile,
            )
            module.load(shards[idx])
            self.pm_data.append(module)
        self.iteration = 0

    # ------------------------------------------------------------------
    def _worker_builder(self, idx: int) -> Callable[[], Network]:
        def build() -> Network:
            # All replicas start identical (nonce 0); later rebuilds give
            # fresh weights until mirror_in restores them.
            self._nonces[idx] += 1
            rng = np.random.default_rng((self.seed, self._nonces[idx]))
            return self._builder(rng)

        return build

    def _batch_rng(self, worker: int, iteration: int) -> np.random.Generator:
        return np.random.default_rng((20210409, worker, iteration))

    # ------------------------------------------------------------------
    def train_step(self) -> float:
        """One synchronous data-parallel step; returns the mean loss."""
        deltas: List[float] = []
        losses: List[float] = []
        all_gradients: List[list] = []
        comm_bytes = 0

        for idx, worker in enumerate(self.workers):
            t0 = worker.clock.now()
            x, y = self.pm_data[idx].random_batch(
                self.shard_batch, self._batch_rng(idx, self.iteration)
            )
            x = x.reshape((len(x),) + MNIST_INPUT_SHAPE)
            worker.forward(x)
            loss, _ = worker.loss_and_backward(y)
            losses.append(loss)
            gradients = worker.collect_gradients()
            all_gradients.append(gradients)
            comm_bytes += sum(g.nbytes for g in gradients)
            deltas.append(worker.clock.now() - t0)

        # Sealed allreduce: every worker ships its gradients and receives
        # the average (cost modelled as one full gradient transfer each
        # way per worker, overlapped across workers).
        averaged = [
            np.mean([grads[i] for grads in all_gradients], axis=0)
            for i in range(len(all_gradients[0]))
        ]
        per_worker_bytes = comm_bytes // self.n_workers
        comm_time = 2 * (
            NIC_LATENCY + per_worker_bytes / NIC_BANDWIDTH
        ) + self.profile.crypto.encrypt_time(per_worker_bytes) + (
            self.profile.crypto.decrypt_time(per_worker_bytes)
        )

        self.iteration += 1
        for idx, worker in enumerate(self.workers):
            t0 = worker.clock.now()
            worker.apply_gradients([g.copy() for g in averaged])
            worker.network.iteration = self.iteration
            worker.mirror_out(self.iteration)
            deltas[idx] += worker.clock.now() - t0

        step_compute = max(deltas)
        self.compute_seconds += step_compute
        self.comm_seconds += comm_time
        self.clock.advance(step_compute + comm_time)
        self._last_losses = losses
        return float(np.mean(losses))

    def train(
        self,
        iterations: int,
        log: Optional[TrainingLog] = None,
        kill_hook: Optional[Callable[[int], bool]] = None,
    ) -> DataParallelResult:
        """Train until ``iterations`` (absolute) or a kill."""
        log = log if log is not None else TrainingLog()
        start = self.clock.now()
        compute0, comm0 = self.compute_seconds, self.comm_seconds
        resumed_from = self.iteration
        ran = 0
        self._last_losses = []
        while self.iteration < iterations:
            if kill_hook is not None and kill_hook(self.iteration):
                break
            loss = self.train_step()
            log.record(self.iteration, loss)
            ran += 1
        return DataParallelResult(
            log=log,
            iterations_run=ran,
            final_iteration=self.iteration,
            sim_seconds=self.clock.now() - start,
            compute_seconds=self.compute_seconds - compute0,
            comm_seconds=self.comm_seconds - comm0,
            resumed_from=resumed_from,
            worker_losses=list(self._last_losses),
        )

    # ------------------------------------------------------------------
    def kill_workers(self, indices: Sequence[int]) -> None:
        """Crash a subset of replicas."""
        for idx in indices:
            self.workers[idx].kill()

    def resume_workers(self, indices: Sequence[int]) -> None:
        """Recover crashed replicas from their own PM mirrors."""
        for idx in indices:
            restored = self.workers[idx].resume()
            worker = self.workers[idx]
            self.links[idx] = SecureLink(worker.engine, worker.clock)
            self.pm_data[idx] = PmDataModule(
                worker.region,
                worker.heap,
                worker.engine,
                worker.enclave,
                self.profile,
            )
            if restored != self.iteration:
                raise RuntimeError(
                    f"replica {idx} mirror at iteration {restored}, "
                    f"coordinator at {self.iteration}"
                )


def _split_shards(data: DataMatrix, n: int) -> List[DataMatrix]:
    """Round-robin split into ``n`` equal-size shards (drops remainders)."""
    per = len(data) // n
    return [
        DataMatrix(
            x=data.x[i::n][:per].copy(), y=data.y[i::n][:per].copy()
        )
        for i in range(n)
    ]
