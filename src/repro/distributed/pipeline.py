"""Pipeline (model-sharded) Plinius: beat the EPC limit with N enclaves.

The model's layer stack is partitioned into contiguous stages, each
hosted by a :class:`StageWorker` on its own :class:`Host` (own enclave,
own PM region, own encrypted mirror).  A training iteration runs the
batch forward stage by stage — activations crossing between enclaves as
AES-GCM-sealed messages — computes the loss in the last stage, and
back-propagates sealed deltas in reverse.  Every stage mirrors every
iteration, so killing *any subset of workers* at an iteration boundary
is recoverable.

The EPC argument (paper Section VI, "Training larger models"): a model
of M bytes in one enclave pages heavily once M + footprint exceeds
93.5 MB; split across S enclaves each holds ~M/S and stays below the
limit.  ``benchmarks/bench_ext_distributed.py`` quantifies the
crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.host import Host
from repro.core.models import MNIST_INPUT_SHAPE, cnn_cfg
from repro.core.pm_data import PmDataModule
from repro.darknet.cfg import build_network, parse_cfg
from repro.darknet.data import DataMatrix
from repro.darknet.network import Network
from repro.darknet.train import TrainingLog
from repro.distributed.link import SecureLink
from repro.distributed.worker import JOB_KEY, StageWorker
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile, get_profile


def split_layer_counts(n_layers: int, n_stages: int) -> List[int]:
    """Split ``n_layers`` into ``n_stages`` near-equal contiguous counts."""
    if n_stages < 1 or n_stages > n_layers:
        raise ValueError(
            f"cannot split {n_layers} layers into {n_stages} stages"
        )
    base, extra = divmod(n_layers, n_stages)
    return [base + (1 if i < extra else 0) for i in range(n_stages)]


@dataclass
class PipelineResult:
    """Outcome of a pipeline training run."""

    log: TrainingLog
    iterations_run: int
    final_iteration: int
    sim_seconds: float
    resumed_from: int = 0
    stage_over_epc: List[bool] = field(default_factory=list)


class PipelinePlinius:
    """Coordinator for model-sharded secure training."""

    def __init__(
        self,
        data: DataMatrix,
        n_conv_layers: int = 12,
        n_stages: int = 2,
        filters: int = 16,
        batch: int = 32,
        seed: int = 7,
        input_shape: tuple = MNIST_INPUT_SHAPE,
        cfg_text: Optional[str] = None,
    ) -> None:
        self.profile: ServerProfile = get_profile("sgx-emlPM")
        self.clock = SimClock()  # stages execute sequentially: one clock
        self.batch = batch
        self.input_shape = input_shape
        self.seed = seed
        # Per-stage build generations: every stage's initial build must
        # draw from the same full-model rng stream so the slices of a
        # 2-stage job equal the layers of a 1-stage job bit-for-bit.
        self._nonces = None  # set after the stage count is known

        # Stage boundaries over the full layer list (conv + pools + head).
        self._nonces = [0] * n_stages
        self._cfg_text = cfg_text if cfg_text is not None else cnn_cfg(
            n_conv_layers=n_conv_layers,
            filters=filters,
            batch=batch,
        )
        full = self._build_full(nonce=0)
        counts = split_layer_counts(len(full.layers), n_stages)
        bounds = np.cumsum([0] + counts)
        self._stage_slices = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(n_stages)
        ]

        # Stage 0 also hosts the (row-sealed) training data in its PM.
        from repro.crypto.engine import SEAL_OVERHEAD

        data_bytes = data.nbytes + len(data) * SEAL_OVERHEAD
        self.workers: List[StageWorker] = []
        for idx in range(n_stages):
            builder = self._stage_builder(idx)
            stage_params = sum(
                full.layers[j].param_bytes
                for j in range(*self._stage_slices[idx])
            )
            extra = data_bytes if idx == 0 else 0
            pm_size = 2 * (2 * stage_params + extra + (4 << 20)) + 8192
            host = Host(f"stage-{idx}", self.clock, self.profile, pm_size)
            self.workers.append(StageWorker(host, builder, JOB_KEY, seed))
        # Stage 0 additionally hosts the training data in its PM.
        w0 = self.workers[0]
        self.pm_data = PmDataModule(
            w0.region, w0.heap, w0.engine, w0.enclave, self.profile
        )
        self.pm_data.load(data)
        # Sealed links between consecutive stages.
        self.links = [
            SecureLink(self.workers[i].engine, self.clock)
            for i in range(n_stages - 1)
        ]
        self.iteration = 0

    # ------------------------------------------------------------------
    def _build_full(self, nonce: int) -> Network:
        cfg = parse_cfg(self._cfg_text)
        rng = np.random.default_rng((self.seed, nonce))
        return build_network(cfg, rng)

    def _stage_builder(self, idx: int) -> Callable[[], Network]:
        def build() -> Network:
            full = self._build_full(nonce=self._nonces[idx])
            self._nonces[idx] += 1
            start, end = self._stage_slices[idx]
            return Network(
                full.layers[start:end],
                learning_rate=full.learning_rate,
                momentum=full.momentum,
                decay=full.decay,
                batch=self.batch,
            )

        return build

    # ------------------------------------------------------------------
    def _batch_rng(self, iteration: int) -> np.random.Generator:
        return np.random.default_rng((20210409, iteration))

    def train_step(self) -> float:
        """One pipelined iteration over all stages; returns the loss."""
        x, y = self.pm_data.random_batch(self.batch, self._batch_rng(self.iteration))
        activation = x.reshape((len(x),) + tuple(self.input_shape))

        # Forward: stage by stage, sealing activations between enclaves.
        for idx, worker in enumerate(self.workers):
            if idx > 0:
                activation = self.links[idx - 1].transfer(activation)
            activation = worker.forward(activation)

        # Loss + backward in the last stage, sealed deltas flowing back.
        loss, delta = self.workers[-1].loss_and_backward(y)
        for idx in range(len(self.workers) - 2, -1, -1):
            delta = self.links[idx].transfer(delta)
            delta = self.workers[idx].backward_from(delta)

        for worker in self.workers:
            worker.update()
        self.iteration += 1
        for worker in self.workers:
            worker.network.iteration = self.iteration
            worker.mirror_out(self.iteration)
        return loss

    def train(
        self,
        iterations: int,
        log: Optional[TrainingLog] = None,
        kill_hook: Optional[Callable[[int], bool]] = None,
    ) -> PipelineResult:
        """Train until ``iterations`` (absolute) or a kill."""
        log = log if log is not None else TrainingLog()
        start = self.clock.now()
        resumed_from = self.iteration
        ran = 0
        while self.iteration < iterations:
            if kill_hook is not None and kill_hook(self.iteration):
                break
            loss = self.train_step()
            log.record(self.iteration, loss)
            ran += 1
        return PipelineResult(
            log=log,
            iterations_run=ran,
            final_iteration=self.iteration,
            sim_seconds=self.clock.now() - start,
            resumed_from=resumed_from,
            stage_over_epc=[w.over_epc for w in self.workers],
        )

    # ------------------------------------------------------------------
    def kill_workers(self, indices: Sequence[int]) -> None:
        """Crash a subset of the stage machines."""
        for idx in indices:
            self.workers[idx].kill()

    def resume_workers(self, indices: Sequence[int]) -> None:
        """Recover crashed stages from their own PM mirrors."""
        iterations = set()
        for idx in indices:
            iterations.add(self.workers[idx].resume())
            if idx == 0:
                # Re-bind the PM-data module to the recovered region.
                w0 = self.workers[0]
                self.pm_data = PmDataModule(
                    w0.region, w0.heap, w0.engine, w0.enclave, self.profile
                )
                self.links[0] = SecureLink(w0.engine, self.clock)
        if iterations and iterations != {self.iteration}:
            raise RuntimeError(
                f"stage mirrors at {sorted(iterations)} do not match the "
                f"coordinator iteration {self.iteration}"
            )

    @property
    def total_param_bytes(self) -> int:
        return sum(w.network.param_bytes for w in self.workers)
