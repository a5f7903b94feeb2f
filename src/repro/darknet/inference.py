"""Inference utilities: test-set accuracy.

Used for the paper's secure-inference experiment (Section VI): a
trained 12-layer CNN classifying the 10,000-image MNIST test set.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.darknet.arena import TensorArena
from repro.darknet.data import DataMatrix
from repro.darknet.network import Network


def accuracy(
    network: Network,
    data: DataMatrix,
    input_shape: Optional[Tuple[int, ...]] = None,
) -> float:
    """Top-1 accuracy over a full dataset, 256 samples per
    :meth:`Network.infer` on one arena."""
    truth = data.labels()
    arena = TensorArena()
    correct = 0
    offset = 0
    for x, _ in data.sequential_batches(256):
        if input_shape is not None:
            x = x.reshape((len(x),) + tuple(input_shape))
        preds = network.infer(x, arena).argmax(axis=1)
        correct += int((preds == truth[offset : offset + len(x)]).sum())
        offset += len(x)
    return correct / len(data)
