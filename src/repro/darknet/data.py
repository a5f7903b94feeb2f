"""Darknet's data matrix: the in-memory form of a training set.

"Darknet training algorithms process input data as multidimensional
arrays or matrices" (Section V).  A :class:`DataMatrix` holds the images
as rows of a 2-D float32 matrix plus one-hot labels; this is the
structure the PM-data module serializes (row-encrypted) into persistent
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


@dataclass
class DataMatrix:
    """Row-major samples with one-hot labels.

    ``x`` has shape (n, features); ``y`` has shape (n, classes).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError(
                f"DataMatrix needs 2-D x and y, got {self.x.shape}, {self.y.shape}"
            )
        if len(self.x) != len(self.y):
            raise ValueError(
                f"x has {len(self.x)} rows but y has {len(self.y)}"
            )
        self.x = np.ascontiguousarray(self.x, dtype=np.float32)
        self.y = np.ascontiguousarray(self.y, dtype=np.float32)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def features(self) -> int:
        return self.x.shape[1]

    @property
    def classes(self) -> int:
        return self.y.shape[1]

    @property
    def nbytes(self) -> int:
        return self.x.nbytes + self.y.nbytes

    def sequential_batches(
        self, batch_size: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Full-epoch iteration in order (used for evaluation)."""
        for start in range(0, len(self), batch_size):
            yield self.x[start : start + batch_size], self.y[
                start : start + batch_size
            ]

    def labels(self) -> np.ndarray:
        """Integer class labels."""
        return self.y.argmax(axis=1)
