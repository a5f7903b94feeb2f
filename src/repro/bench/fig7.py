"""Fig. 7 — PM mirroring vs. SSD checkpointing across model sizes.

The paper grows CNNs "by increasing the total number of convolutional
layers" and measures, on both servers, the time to save (encrypt +
write) and restore (read + decrypt) a model with (a) Plinius' PM
mirroring and (b) the SSD checkpointing baseline.  All data points are
averages of several runs; Table I is computed from the same sweep.

The EPC knee: on sgx-emlPM the usable EPC (93.5 MB) is exhausted at
model size ~78 MB ("due to the presence of other data structures in
enclave memory"), after which the SGX driver's page swaps dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.mirror import MirrorTiming
from repro.core.models import build_sized_cnn
from repro.core.system import PliniusSystem
from repro.crypto.engine import SEAL_OVERHEAD

#: Seeds the model weights and the system of every sweep point.
SEED = 7


@dataclass(frozen=True)
class Fig7Record:
    """Save/restore timings for one (server, model size) point."""

    server: str
    model_bytes: int
    over_epc: bool
    pm_save: MirrorTiming
    pm_restore: MirrorTiming
    ssd_save: MirrorTiming
    ssd_restore: MirrorTiming

    @property
    def model_mb(self) -> float:
        return self.model_bytes / (1 << 20)

    @property
    def save_speedup(self) -> float:
        """SSD save time over PM mirror-out time (Table Ib "Total")."""
        return self.ssd_save.total / self.pm_save.total

    @property
    def restore_speedup(self) -> float:
        return self.ssd_restore.total / self.pm_restore.total

    @property
    def write_speedup(self) -> float:
        """SSD write phase over PM write phase (Table Ib "Write")."""
        return self.ssd_save.storage_seconds / self.pm_save.storage_seconds

    @property
    def read_speedup(self) -> float:
        return self.ssd_restore.storage_seconds / self.pm_restore.storage_seconds


def measure_model_size(
    server: str,
    layer_count: int,
    filters: int = 512,
    recorder=None,
) -> Fig7Record:
    """Measure one save and one cold restore, on PM and on SSD, for
    one model size on one server.

    ``recorder`` optionally attaches a
    :class:`~repro.obs.recorder.TraceRecorder` to the system so the
    sweep's ``mirror.*``/``ckpt.*`` spans can be analyzed afterwards
    (e.g. reproducing Table I from the trace alone).
    """
    rng = np.random.default_rng((SEED, layer_count))
    per_layer = 4 * (filters * filters * 9 + 4 * filters)
    network = build_sized_cnn(layer_count * per_layer, rng=rng, filters=filters)
    model_bytes = network.param_bytes

    n_buffers = len(network.parameter_buffers())
    sealed_footprint = model_bytes + n_buffers * SEAL_OVERHEAD
    pm_size = 2 * (sealed_footprint + (2 << 20)) + 8192
    system = PliniusSystem.create(
        server=server, seed=SEED, pm_size=pm_size, recorder=recorder
    )
    system.enclave.malloc("model", model_bytes)
    system.mirror.alloc_mirror_model(network)

    pm_save = system.mirror.mirror_out(network, 1)
    # Restores model a cold cache (as after the crash it exists for).
    system.pm.drop_caches()
    pm_restore = system.mirror.mirror_in(network)
    ssd_save = system.checkpoint.save(network, 1)
    _, ssd_restore = system.checkpoint.restore(network)

    return Fig7Record(
        server=server,
        model_bytes=model_bytes,
        over_epc=system.enclave.over_epc,
        pm_save=pm_save,
        pm_restore=pm_restore,
        ssd_save=ssd_save,
        ssd_restore=ssd_restore,
    )


DEFAULT_LAYER_COUNTS = (1, 3, 5, 7, 9, 11, 13, 15)


def run_fig7(
    server: str = "sgx-emlPM",
    layer_counts: Sequence[int] = DEFAULT_LAYER_COUNTS,
    filters: int = 512,
) -> List[Fig7Record]:
    """Sweep model sizes on one server (paper runs both servers)."""
    return [measure_model_size(server, n, filters=filters) for n in layer_counts]
