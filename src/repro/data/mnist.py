"""MNIST: IDX-format loading and a synthetic offline substitute.

``load_idx_images``/``load_idx_labels`` read Yann LeCun's original IDX
format, so real MNIST drops in where available.  ``synthetic_mnist``
generates a deterministic MNIST-shaped dataset from 7x5 digit glyphs
with per-sample affine jitter (shift, scale, shear), stroke-thickness
variation and pixel noise — preserving the learning-task shape (10-way
classification of 28x28 grayscale digits) without network access.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.darknet.data import DataMatrix

IMAGE_SIZE = 28
NUM_CLASSES = 10

_IDX_IMAGE_MAGIC = 2051
_IDX_LABEL_MAGIC = 2049

# 7x5 glyph bitmaps for digits 0-9 (classic font-ROM style).
_GLYPHS = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],
    3: ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}


def _open_maybe_gzip(path: Union[str, Path]):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx_images(path: Union[str, Path]) -> np.ndarray:
    """Load an IDX image file; returns float32 images in [0, 1]."""
    with _open_maybe_gzip(path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", f.read(16))
        if magic != _IDX_IMAGE_MAGIC:
            raise ValueError(f"not an IDX image file (magic {magic})")
        raw = f.read(count * rows * cols)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    return images.astype(np.float32) / 255.0


def load_idx_labels(path: Union[str, Path]) -> np.ndarray:
    """Load an IDX label file; returns int labels."""
    with _open_maybe_gzip(path) as f:
        magic, count = struct.unpack(">II", f.read(8))
        if magic != _IDX_LABEL_MAGIC:
            raise ValueError(f"not an IDX label file (magic {magic})")
        raw = f.read(count)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Parsed once: every render reads these, none writes them.
_GLYPH_ARRAYS = tuple(
    _frozen(np.array(
        [[float(ch) for ch in row] for row in _GLYPHS[digit]],
        dtype=np.float32,
    ))
    for digit in range(NUM_CLASSES)
)
_YS, _XS = (
    _frozen(grid)
    for grid in np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float32)
)


def _zero_bordered(a: np.ndarray) -> np.ndarray:
    """``np.pad(a, 1)`` for a 2-D array: a copy inside a zero border."""
    out = np.zeros((a.shape[0] + 2, a.shape[1] + 2), dtype=a.dtype)
    out[1:-1, 1:-1] = a
    return out


def _render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """Render one jittered 28x28 digit image."""
    glyph = _GLYPH_ARRAYS[digit]
    # Thicken strokes stochastically (dilate with probability).
    if rng.random() < 0.5:
        padded = _zero_bordered(glyph)
        shifted = padded[1:-1, 1:-1]
        for dy, dx in ((0, 1), (1, 0)):
            shifted = np.maximum(
                shifted, padded[1 + dy : 8 + dy, 1 + dx : 6 + dx] * 0.8
            )
        glyph = shifted

    # Upscale to ~20x14 with random scale and shear via coordinate map.
    scale_y = rng.uniform(2.4, 3.0)
    scale_x = rng.uniform(2.4, 3.2)
    shear = rng.uniform(-0.15, 0.15)
    out_h, out_w = IMAGE_SIZE, IMAGE_SIZE
    # Random placement of the glyph center.
    cy = IMAGE_SIZE / 2 + rng.uniform(-2.5, 2.5)
    cx = IMAGE_SIZE / 2 + rng.uniform(-2.5, 2.5)
    gy = (_YS - cy) / scale_y + 3.5
    gx = (_XS - cx) / scale_x + shear * (_YS - cy) + 2.5
    iy = np.clip(np.round(gy).astype(int), -1, 7)
    ix = np.clip(np.round(gx).astype(int), -1, 5)
    valid = (iy >= 0) & (iy < 7) & (ix >= 0) & (ix < 5)
    image = np.zeros((out_h, out_w), dtype=np.float32)
    image[valid] = glyph[iy[valid], ix[valid]]

    # Soften edges (3x3 box blur) and add noise, like scanned digits.
    padded = _zero_bordered(image)
    blurred = sum(
        padded[dy : dy + out_h, dx : dx + out_w]
        for dy in range(3)
        for dx in range(3)
    ) / 9.0
    image = 0.6 * image + 0.4 * blurred
    image += rng.normal(0, 0.04, size=image.shape).astype(np.float32)
    return np.clip(image, 0.0, 1.0)


def synthetic_mnist(
    n_train: int = 6000, n_test: int = 1000, seed: int = 1234
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic MNIST-shaped dataset.

    Returns ``(train_images, train_labels, test_images, test_labels)``
    with images shaped (n, 28, 28) in [0, 1] and integer labels.  The
    paper uses the real 60k/10k split; defaults here are smaller so the
    functional experiments run in laptop-scale minutes — pass the full
    sizes for a faithful run.
    """
    rng = np.random.default_rng(seed)
    total = n_train + n_test
    labels = rng.integers(0, NUM_CLASSES, size=total)
    images = np.stack([_render_digit(int(d), rng) for d in labels])
    return (
        images[:n_train].astype(np.float32),
        labels[:n_train],
        images[n_train:].astype(np.float32),
        labels[n_train:],
    )


def to_data_matrix(images: np.ndarray, labels: np.ndarray) -> DataMatrix:
    """Flatten images and one-hot labels into a Darknet data matrix."""
    if len(images) != len(labels):
        raise ValueError(
            f"{len(images)} images but {len(labels)} labels"
        )
    x = images.reshape(len(images), -1).astype(np.float32)
    y = np.zeros((len(labels), NUM_CLASSES), dtype=np.float32)
    y[np.arange(len(labels)), labels] = 1.0
    return DataMatrix(x=x, y=y)
