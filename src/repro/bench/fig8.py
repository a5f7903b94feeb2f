"""Fig. 8 — iteration time vs. batch size, encrypted vs. plaintext data.

"We proceed by comparing the iteration times with different batch sizes
for a model being trained via the Plinius mechanism, to a model trained
with batches of unencrypted data on PM.  All models have 5
LReLU-convolutional layers."  Expected shape: encrypted-batch
iterations ~1.2x slower on average on both systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.system import PliniusSystem
from repro.data import synthetic_mnist, to_data_matrix

DEFAULT_BATCH_SIZES = (16, 32, 64, 128, 256, 512)
#: Seeds the dataset, the system and every draw of this harness.
SEED = 7


@dataclass(frozen=True)
class Fig8Point:
    """Mean iteration time at one batch size, both data modes."""

    server: str
    batch_size: int
    encrypted_seconds: float
    plaintext_seconds: float

    @property
    def overhead(self) -> float:
        """Encrypted / plaintext iteration-time ratio (paper: ~1.2x)."""
        return self.encrypted_seconds / self.plaintext_seconds


def _mean_iteration_time(
    server: str,
    batch_size: int,
    encrypted: bool,
    iterations: int,
    n_rows: int,
) -> float:
    images, labels, _, _ = synthetic_mnist(n_rows, 1, seed=SEED)
    data = to_data_matrix(images, labels)
    system = PliniusSystem.create(server=server, seed=SEED, pm_size=96 << 20)
    system.load_data(data, encrypted=encrypted)
    network = system.build_model(n_conv_layers=5, filters=8, batch=batch_size)
    result = system.train(network, iterations=iterations)
    return float(np.mean([t.total for t in result.iteration_timings]))


def run_fig8(
    server: str = "emlSGX-PM",
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    iterations: int = 5,
    n_rows: int = 1024,
) -> List[Fig8Point]:
    """Sweep batch sizes in both data modes on one server (5 LReLU-conv
    layers of 8 filters, as in the paper)."""
    points: List[Fig8Point] = []
    for batch_size in batch_sizes:
        enc = _mean_iteration_time(
            server, batch_size, True, iterations, n_rows
        )
        plain = _mean_iteration_time(
            server, batch_size, False, iterations, n_rows
        )
        points.append(
            Fig8Point(
                server=server,
                batch_size=batch_size,
                encrypted_seconds=enc,
                plaintext_seconds=plain,
            )
        )
    return points
