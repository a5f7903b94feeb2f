"""A stage worker: one enclave + one PM region + one encrypted mirror.

Both distributed modes are built from these.  A worker owns a slice of
the model (a whole replica in data-parallel mode, a contiguous run of
layers in pipeline mode) wrapped in a :class:`~repro.darknet.Network`
and lives on a :class:`~repro.cluster.host.Host`: the PM device is the
host's (durable across host death), the enclave is spawned on the host
(dies with it), and the Romulus region holding the slice's
:class:`~repro.core.MirrorModule` is attached through the host's
``format_region`` / ``open_region`` entry points — the recovery seam
the ``host-reboot-skip-recovery`` mutant breaks.

Workers are individually killable: :meth:`kill` power-fails the host
(which is what the ``cluster.host_kill`` fault coordinate injects);
:meth:`resume` boots it, recovers the region, rebuilds the stage with
fresh random weights and restores them from the mirror.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.host import Host
from repro.core.mirror import MirrorModule
from repro.crypto.engine import EncryptionEngine
from repro.faults import plan as faultplan
from repro.darknet.network import Network
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import HEADER_SIZE
from repro.sgx.rand import SgxRandom

ModelBuilder = Callable[[], Network]

#: The job key both distributed modes provision on every worker.
JOB_KEY = b"J" * 16


def sized_worker_pm(param_bytes: int) -> int:
    """PM bytes a stage worker needs: two mirror snapshots + heap slack."""
    return 2 * (2 * param_bytes + (4 << 20)) + 8192


class StageWorker:
    """One secure machine participating in a distributed training job."""

    def __init__(
        self,
        host: Host,
        build_model: ModelBuilder,
        job_key: bytes,
        seed: int = 7,
    ) -> None:
        self.host = host
        self.name = host.name
        self.profile = host.profile
        self.clock = host.clock
        self.build_model = build_model
        self.job_key = job_key
        self.rand = SgxRandom(host.name.encode() + seed.to_bytes(4, "big"))
        self.network = build_model()
        # A host built without PM gets a device sized for this slice.
        self.pm = host.ensure_pm(sized_worker_pm(self.network.param_bytes))
        self._attach(fresh=True)
        self.mirror.alloc_mirror_model(self.network)

    def _attach(self, fresh: bool) -> None:
        self.enclave = self.host.spawn_enclave()
        self.enclave.malloc("stage", self.network.param_bytes)
        self.engine = EncryptionEngine(self.job_key, rand=self.rand)
        if fresh:
            self.region = self.host.format_region(
                (self.pm.size - HEADER_SIZE) // 2
            )
        else:
            self.region = self.host.open_region()
        self.heap = PersistentHeap(self.region)
        self.mirror = MirrorModule(
            self.region, self.heap, self.engine, self.enclave, self.profile
        )

    # ------------------------------------------------------------------
    # Compute (charges simulated time on this worker's clock)
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stage forward; charges compute + paging."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("distributed.worker.step")
        self._charge_compute(x.shape[0], fraction=1 / 3)
        self.enclave.touch(self.network.param_bytes)
        return self.network.forward(x)

    def backward_from(self, delta: np.ndarray) -> np.ndarray:
        """Back-propagate an incoming delta through the stage."""
        self._charge_compute(delta.shape[0], fraction=2 / 3)
        self.enclave.touch(2 * self.network.param_bytes)
        return self.network.backward_from(delta)

    def loss_and_backward(self, y: np.ndarray) -> tuple:
        """For a stage ending in softmax: compute the loss against ``y``
        and back-propagate; returns ``(loss, input delta)``."""
        net = self.network
        loss = net.softmax.loss(y)
        delta = net.softmax.backward()
        self._charge_compute(y.shape[0], fraction=2 / 3)
        self.enclave.touch(2 * net.param_bytes)
        for layer in reversed(net.layers[:-1]):
            delta = layer.backward(delta)
        return loss, delta

    def update(self) -> None:
        """Apply the stage's accumulated gradients."""
        self.network.update()

    def collect_gradients(self) -> list:
        """Copies of the accumulated (parameter, gradient) gradients."""
        return [
            grad.copy()
            for layer in self.network.layers
            for _, grad in layer.trainable()
        ]

    def apply_gradients(self, gradients: list) -> None:
        """Overwrite the accumulated gradients (post-allreduce) and step."""
        pairs = [
            grad
            for layer in self.network.layers
            for _, grad in layer.trainable()
        ]
        if len(pairs) != len(gradients):
            raise ValueError(
                f"{len(gradients)} gradients for {len(pairs)} parameters"
            )
        for target, value in zip(pairs, gradients):
            target[...] = value
        self.network.update()

    def _charge_compute(self, batch: int, fraction: float) -> None:
        flops = self.network.flops(batch) * fraction
        self.clock.advance(self.profile.compute.iteration_time(flops))

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def mirror_out(self, iteration: int) -> None:
        """Persist the stage's encrypted mirror."""
        active = faultplan.ACTIVE
        if active.enabled:
            active.check("distributed.worker.mirror")
        self.mirror.mirror_out(self.network, iteration)

    def kill(self) -> None:
        """The worker's host dies: enclave destroyed, PM power-fails."""
        self.host.power_fail()

    def resume(self) -> int:
        """Host reboot: fresh enclave + fresh weights, restored from PM.

        Returns the iteration recorded in the mirror.
        """
        self.host.boot()
        self.network = self.build_model()  # fresh random weights
        self._attach(fresh=False)
        self.mirror.mirror_in(self.network)
        return self.network.iteration

    @property
    def over_epc(self) -> bool:
        """Whether this worker's slice exceeds its usable EPC."""
        return self.enclave.over_epc
