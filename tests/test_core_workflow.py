"""The end-to-end Fig. 5 workflow."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.workflow import DataOwner, run_full_workflow
from repro.crypto.backend import IntegrityError
from repro.darknet.weights import load_weights
from repro.data import synthetic_mnist, to_data_matrix


@pytest.fixture(scope="module")
def artifacts():
    images, labels, _, _ = synthetic_mnist(128, 1, seed=21)
    data = to_data_matrix(images, labels)
    return run_full_workflow(data), data


class TestWorkflow:
    def test_training_completed(self, artifacts):
        art, _ = artifacts
        assert art.result.completed
        assert art.result.final_iteration == 30

    def test_key_provisioned_over_channel(self, artifacts):
        art, _ = artifacts
        assert len(art.provisioned_key) == 16
        assert art.system.key == art.provisioned_key

    def test_dataset_on_disk_is_ciphertext(self, artifacts):
        art, data = artifacts
        uploaded = art.system.ssd.read_all("dataset.enc")
        assert data.x[0].tobytes()[:24] not in uploaded

    def test_dataset_in_pm_matches_original(self, artifacts):
        art, data = artifacts
        x, y = art.system.pm_data.fetch_batch(np.arange(8))
        np.testing.assert_array_equal(x, data.x[:8])
        np.testing.assert_array_equal(y, data.y[:8])

    def test_owner_can_open_final_model(self, artifacts):
        art, _ = artifacts
        # Reconstruct the owner (same seed) to get the same key.
        owner = DataOwner(seed=3)
        blob = owner.open_model(art.sealed_model)
        # The blob is a valid weights file for the same architecture.
        fresh = art.system.build_model(n_conv_layers=3, filters=8, batch=32)
        seen = load_weights(fresh, blob)
        assert seen == 30

    def test_stranger_cannot_open_final_model(self, artifacts):
        art, _ = artifacts
        from repro.crypto.backend import IntegrityError

        stranger = DataOwner(seed=999)
        with pytest.raises(IntegrityError):
            stranger.open_model(art.sealed_model)

    def test_mirror_left_in_pm(self, artifacts):
        art, _ = artifacts
        assert art.system.mirror.exists()
        assert art.system.mirror.stored_iteration() == 30


@pytest.mark.parametrize(
    "forge", [lambda rows: 1 << 40, lambda rows: rows + 1],
    ids=["rows-2^40", "one-extra-row"],
)
def test_a_forged_upload_header_fails_closed(monkeypatch, forge):
    """The upload's ``rows`` field is untrusted SSD bytes: unless the
    header accounts for exactly the upload, the enclave refuses it
    before allocating anything."""
    images, labels, _, _ = synthetic_mnist(16, 1, seed=5)
    honest = DataOwner.encrypt_dataset

    def forged(owner, data):
        blob = bytearray(honest(owner, data))
        (rows,) = struct.unpack_from("<Q", blob, 0)
        struct.pack_into("<Q", blob, 0, forge(rows))
        return bytes(blob)

    monkeypatch.setattr(DataOwner, "encrypt_dataset", forged)
    with pytest.raises(IntegrityError):
        run_full_workflow(to_data_matrix(images, labels))
