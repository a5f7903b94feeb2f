"""MNIST: synthetic generator properties and IDX-format round-trips."""

from __future__ import annotations

import gzip
import hashlib
import struct

import numpy as np
import pytest

from repro.data import (
    load_idx_images,
    load_idx_labels,
    synthetic_mnist,
    to_data_matrix,
)
from repro.data.mnist import IMAGE_SIZE, NUM_CLASSES


class TestSynthetic:
    def test_shapes_and_ranges(self):
        tri, trl, tei, tel = synthetic_mnist(100, 20, seed=1)
        assert tri.shape == (100, 28, 28)
        assert tei.shape == (20, 28, 28)
        assert tri.dtype == np.float32
        assert tri.min() >= 0.0 and tri.max() <= 1.0
        assert set(trl) <= set(range(10))
        assert len(tel) == 20

    def test_deterministic(self):
        a = synthetic_mnist(50, 10, seed=42)
        b = synthetic_mnist(50, 10, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_seed_changes_data(self):
        a, _, _, _ = synthetic_mnist(50, 10, seed=1)
        b, _, _, _ = synthetic_mnist(50, 10, seed=2)
        assert not np.array_equal(a, b)

    def test_images_nontrivial(self):
        images, _, _, _ = synthetic_mnist(50, 1, seed=3)
        # Every image has visible ink and visible background.
        assert (images.reshape(50, -1).max(axis=1) > 0.5).all()
        assert (images.reshape(50, -1).mean(axis=1) < 0.5).all()

    def test_same_digit_varies(self):
        """Affine jitter: two renders of one class are not identical."""
        images, labels, _, _ = synthetic_mnist(200, 1, seed=4)
        for digit in range(10):
            idx = np.where(labels == digit)[0]
            if len(idx) >= 2:
                assert not np.array_equal(images[idx[0]], images[idx[1]])

    @pytest.mark.parametrize("seed, expected", [
        (0, "a4c5512c21c416011bd89d210b55360bc72a60467d145a39b21974c3d9b62326"),
        (1234, "3f404f48f89683bd870d7abe762926114a649a145b2194319dce1df17480a446"),
        (99, "523cd97fd9092513b8b70d2eceeae8aa2bbbfc500de5506500d218846ad300fb"),
    ])
    def test_bytes_pinned(self, seed, expected):
        """SHA-256 over the four returned arrays, captured before the
        renderer hoisted its glyphs and grid: rendering speed-ups must
        not move a byte (fault-workload fixtures train on this data)."""
        h = hashlib.sha256()
        for array in synthetic_mnist(64, 16, seed=seed):
            h.update(np.ascontiguousarray(array).tobytes())
        assert h.hexdigest() == expected

    def test_all_classes_present(self):
        _, labels, _, _ = synthetic_mnist(500, 1, seed=5)
        assert set(labels) == set(range(NUM_CLASSES))

    def test_learnable_by_simple_model(self):
        """The task shape holds: a linear softmax model learns it."""
        from repro.darknet import DataMatrix, Network, train
        from repro.darknet.inference import accuracy
        from repro.darknet.layers import ConnectedLayer, SoftmaxLayer

        tri, trl, tei, tel = synthetic_mnist(800, 200, seed=6)
        dtr, dte = to_data_matrix(tri, trl), to_data_matrix(tei, tel)
        net = Network(
            [
                ConnectedLayer((784,), outputs=10, activation="linear",
                               rng=np.random.default_rng(0)),
                SoftmaxLayer((10,)),
            ],
            learning_rate=0.5, momentum=0.9, decay=0.0, batch=64,
        )
        train(net, dtr, iterations=300, rng=np.random.default_rng(1))
        assert accuracy(net, dte) > 0.8


class TestDataMatrixConversion:
    def test_one_hot_encoding(self):
        images, labels, _, _ = synthetic_mnist(30, 1, seed=7)
        data = to_data_matrix(images, labels)
        assert data.x.shape == (30, 784)
        assert data.y.shape == (30, 10)
        np.testing.assert_array_equal(data.y.sum(axis=1), 1.0)
        np.testing.assert_array_equal(data.labels(), labels)

    def test_length_mismatch_rejected(self):
        images, labels, _, _ = synthetic_mnist(10, 1, seed=8)
        with pytest.raises(ValueError, match="images but"):
            to_data_matrix(images, labels[:5])


def _write_idx_images(path, images: np.ndarray) -> None:
    n, h, w = images.shape
    raw = struct.pack(">IIII", 2051, n, h, w)
    raw += (images * 255).astype(np.uint8).tobytes()
    path.write_bytes(raw)


def _write_idx_labels(path, labels: np.ndarray) -> None:
    raw = struct.pack(">II", 2049, len(labels))
    raw += labels.astype(np.uint8).tobytes()
    path.write_bytes(raw)


class TestIdx:
    def test_image_roundtrip(self, tmp_path):
        images, _, _, _ = synthetic_mnist(12, 1, seed=9)
        path = tmp_path / "imgs.idx"
        _write_idx_images(path, images)
        loaded = load_idx_images(path)
        assert loaded.shape == (12, IMAGE_SIZE, IMAGE_SIZE)
        np.testing.assert_allclose(loaded, images, atol=1 / 255)

    def test_label_roundtrip(self, tmp_path):
        _, labels, _, _ = synthetic_mnist(12, 1, seed=10)
        path = tmp_path / "labels.idx"
        _write_idx_labels(path, labels)
        np.testing.assert_array_equal(load_idx_labels(path), labels)

    def test_gzip_transparently_handled(self, tmp_path):
        _, labels, _, _ = synthetic_mnist(5, 1, seed=11)
        path = tmp_path / "labels.idx.gz"
        raw = struct.pack(">II", 2049, len(labels))
        raw += labels.astype(np.uint8).tobytes()
        with gzip.open(path, "wb") as f:
            f.write(raw)
        np.testing.assert_array_equal(load_idx_labels(path), labels)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 1234, 0, 0, 0))
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(path)
        path.write_bytes(struct.pack(">II", 1234, 0))
        with pytest.raises(ValueError, match="magic"):
            load_idx_labels(path)
