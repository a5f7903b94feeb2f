"""Secure inference serving: attested, sealed, correct."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import InferenceClient, SecureInferenceService
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import SEAL_OVERHEAD
from repro.data import synthetic_mnist, to_data_matrix
from repro.sgx.attestation import AttestationError, QuotingEnclave
from repro.sgx.enclave import Enclave
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM
from tests.conftest import train_in_dram
from tests.reference_kernels import reference_predict


@pytest.fixture(scope="module")
def trained_setup():
    """A trained model + enclave + quoting enclave + test data."""
    from repro.core.models import build_mnist_cnn

    images, labels, test_images, test_labels = synthetic_mnist(
        1200, 200, seed=19
    )
    net = build_mnist_cnn(
        n_conv_layers=3, filters=8, batch=32, rng=np.random.default_rng(0)
    )
    train_in_dram(
        net,
        to_data_matrix(images, labels),
        iterations=120,
        rng=np.random.default_rng(1),
        input_shape=(1, 28, 28),
    )
    enclave = Enclave(SimClock(), EMLSGX_PM.sgx)
    qe = QuotingEnclave(b"serving-platform")
    return net, enclave, qe, test_images, test_labels


def make_service(trained_setup):
    net, enclave, qe, _, _ = trained_setup
    return SecureInferenceService(net, enclave, qe)


def connect(service, enclave, seed, session_id=1):
    client = InferenceClient(enclave.measurement, seed=seed)
    service.open_session(client, session_id)
    return client


def classify(service, client, images):
    """Round trip: seal, submit as a batch of one, unseal."""
    seq, sealed = client.seal_request_seq(images)
    (reply,) = service.handle_batch([(client.session_id, seq, sealed)])
    return client.open_response_seq(seq, reply)


class TestService:
    def test_end_to_end_classification(self, trained_setup):
        net, enclave, qe, test_images, test_labels = trained_setup
        service = make_service(trained_setup)
        client = connect(service, enclave, seed=2)
        preds = classify(service, client, test_images[:64])
        accuracy = float((preds == test_labels[:64]).mean())
        assert accuracy > 0.8

    def test_requests_are_sealed_on_the_wire(self, trained_setup):
        net, enclave, qe, test_images, _ = trained_setup
        service = make_service(trained_setup)
        client = connect(service, enclave, seed=3)
        _, wire = client.seal_request_seq(test_images[:4])
        assert test_images[0].astype(np.float32).tobytes()[:24] not in wire

    def test_responses_are_sealed(self, trained_setup):
        net, enclave, qe, test_images, _ = trained_setup
        service = make_service(trained_setup)
        client = connect(service, enclave, seed=4)
        seq, wire = client.seal_request_seq(test_images[:4])
        (sealed,) = service.handle_batch([(client.session_id, seq, wire)])
        preds = client.open_response_seq(seq, sealed)
        assert preds.tobytes() not in sealed  # still sealed going out
        assert preds.shape == (4,)

    def test_tampered_request_rejected(self, trained_setup):
        net, enclave, qe, test_images, _ = trained_setup
        service = make_service(trained_setup)
        client = connect(service, enclave, seed=5)
        seq, wire = client.seal_request_seq(test_images[:2])
        wire = bytearray(wire)
        wire[20] ^= 0xFF
        # Refused alone, with its typed error: handle_batch returns it in
        # the request's slot instead of raising for the whole batch.
        (refused,) = service.handle_batch([(client.session_id, seq, bytes(wire))])
        assert isinstance(refused, IntegrityError)

    def test_wrong_measurement_aborts_connection(self, trained_setup):
        service = make_service(trained_setup)
        impostor_client = InferenceClient(b"\x00" * 32, seed=6)
        with pytest.raises(AttestationError):
            service.open_session(impostor_client, 1)

    def test_feature_mismatch_rejected(self, trained_setup):
        net, enclave, qe, _, _ = trained_setup
        service = make_service(trained_setup)
        client = connect(service, enclave, seed=7)
        # Not a whole number of 784-feature samples: refused by size,
        # before any decryption.
        seq, wire = client.seal_request_seq(np.zeros((2, 10, 10), np.float32))
        (refused,) = service.handle_batch([(client.session_id, seq, wire)])
        with pytest.raises(ValueError, match="784-feature samples"):
            raise refused
        # Four 196-feature samples fill one 784-feature slot exactly:
        # refused by the sealed header.
        seq, wire = client.seal_request_seq(np.zeros((4, 14, 14), np.float32))
        (refused,) = service.handle_batch([(client.session_id, seq, wire)])
        with pytest.raises(ValueError, match="196 features"):
            raise refused

    def test_requires_connection(self, trained_setup):
        service = make_service(trained_setup)
        one_sample = b"x" * (SEAL_OVERHEAD + 16 + 4 * 28 * 28)
        (refused,) = service.handle_batch([(1, 0, one_sample)])
        with pytest.raises(KeyError, match="no session 1"):
            raise refused
        client = InferenceClient(b"\x00" * 32)
        with pytest.raises(RuntimeError, match="no multiplexed session"):
            client.seal_request_seq(np.zeros((1, 28, 28), np.float32))

    def test_stats_tracked(self, trained_setup):
        net, enclave, qe, test_images, _ = trained_setup
        service = make_service(trained_setup)
        client = connect(service, enclave, seed=8)
        classify(service, client, test_images[:8])
        classify(service, client, test_images[:16])
        assert service.stats.requests == 2
        assert service.stats.samples == 24
        assert service.stats.batches == 2

    def test_from_mirror_serves_the_mirrored_model(self, trained_setup):
        """The deployment story: the served model comes straight from
        the encrypted PM mirror."""
        from repro.core.mirror import MirrorModule
        from repro.core.models import build_mnist_cnn
        from repro.crypto.engine import EncryptionEngine
        from repro.hw.pmem import PersistentMemoryDevice
        from repro.romulus.alloc import PersistentHeap
        from repro.romulus.region import RomulusRegion
        from repro.sgx.rand import SgxRandom

        net, enclave, qe, test_images, test_labels = trained_setup
        clock = SimClock()
        device = PersistentMemoryDevice(16 << 20, clock, EMLSGX_PM.pm)
        region = RomulusRegion(device, ((16 << 20) - 4096) // 2).format()
        mirror = MirrorModule(
            region,
            PersistentHeap(region),
            EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv")),
            Enclave(clock, EMLSGX_PM.sgx),
            EMLSGX_PM,
        )
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, net.iteration)

        fresh = build_mnist_cnn(
            n_conv_layers=3, filters=8, batch=32,
            rng=np.random.default_rng(123),
        )
        service = SecureInferenceService.from_mirror(
            mirror, fresh, enclave, qe
        )
        client = connect(service, enclave, seed=9)
        preds = classify(service, client, test_images[:32])
        expected = reference_predict(
            net,
            test_images[:32].reshape(-1, 1, 28, 28)
        ).argmax(axis=1)
        np.testing.assert_array_equal(preds, expected)
