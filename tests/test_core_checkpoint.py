"""The SSD checkpointing baseline."""

from __future__ import annotations

import struct
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointError, SsdCheckpoint
from repro.core.models import build_mnist_cnn
from repro.crypto.backend import CryptographyBackend, IntegrityError
from repro.crypto.engine import SEAL_OVERHEAD, EncryptionEngine
from repro.darknet.weights import save_weights
from repro.hw.ssd import BlockDevice
from repro.sgx.ecall import EnclaveRuntime
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import SGX_EMLPM
from tests.reference_checkpoint import ReferenceSsdCheckpoint
from tests.reference_ssd import ReferenceBlockDevice


def make_checkpoint():
    clock = SimClock()
    ssd = BlockDevice(clock, SGX_EMLPM.ssd)
    enclave = Enclave(clock, SGX_EMLPM.sgx)
    runtime = EnclaveRuntime(enclave)
    engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv"))
    return ssd, SsdCheckpoint(ssd, engine, enclave, runtime, SGX_EMLPM)


def make_model(seed: int = 0):
    return build_mnist_cnn(
        n_conv_layers=2, filters=4, batch=8, rng=np.random.default_rng(seed)
    )


class TestCheckpoint:
    def test_save_restore_roundtrip(self):
        _, ckpt = make_checkpoint()
        net = make_model(seed=1)
        ckpt.save(net, iteration=9)
        expected = save_weights(net)

        other = make_model(seed=2)
        iteration, _ = ckpt.restore(other)
        assert iteration == 9
        other.iteration = net.iteration
        assert save_weights(other) == expected

    def test_exists(self):
        _, ckpt = make_checkpoint()
        assert not ckpt.exists()
        ckpt.save(make_model(), 1)
        assert ckpt.exists()

    def test_restore_missing_raises(self):
        _, ckpt = make_checkpoint()
        with pytest.raises(CheckpointError, match="no checkpoint"):
            ckpt.restore(make_model())

    def test_architecture_mismatch_detected(self):
        _, ckpt = make_checkpoint()
        ckpt.save(make_model(), 1)
        bigger = build_mnist_cnn(
            n_conv_layers=3, filters=4, batch=8, rng=np.random.default_rng(0)
        )
        with pytest.raises(CheckpointError, match="mismatch"):
            ckpt.restore(bigger)

    def test_fsync_per_buffer(self):
        """Paper: 'After each call to fwrite ... issue an fsync'."""
        ssd, ckpt = make_checkpoint()
        net = make_model()
        ckpt.save(net, 1)
        n_buffers = len(net.parameter_buffers())
        assert ssd.stats["fsyncs"] == n_buffers + 1  # + header fsync

    def test_checkpoint_is_ciphertext_on_disk(self):
        ssd, ckpt = make_checkpoint()
        net = make_model(seed=3)
        ckpt.save(net, 1)
        on_disk = ssd.read_all(ckpt.path)
        weights = net.layers[0].weights.tobytes()
        assert weights[:24] not in on_disk

    def test_unsynced_data_would_be_lost_but_save_syncs(self):
        ssd, ckpt = make_checkpoint()
        net = make_model(seed=4)
        ckpt.save(net, 1)
        ssd.crash()
        other = make_model(seed=5)
        iteration, _ = ckpt.restore(other)
        assert iteration == 1

    def test_ocalls_charged(self):
        _, ckpt = make_checkpoint()
        net = make_model()
        ckpt.save(net, 1)
        assert ckpt.runtime.stats["ocalls"] > 0
        assert ckpt.enclave.clock.now() > 0

    def test_timings_phases_positive(self):
        _, ckpt = make_checkpoint()
        net = make_model()
        save = ckpt.save(net, 1)
        assert save.crypto_seconds > 0 and save.storage_seconds > 0
        _, restore = ckpt.restore(net)
        assert restore.crypto_seconds > 0 and restore.storage_seconds > 0

    def test_overwriting_checkpoint(self):
        _, ckpt = make_checkpoint()
        net = make_model(seed=6)
        ckpt.save(net, 1)
        for _, (name, buf) in net.parameter_buffers():
            buf += 0.5
        ckpt.save(net, 2)
        expected = save_weights(net)
        other = make_model(seed=7)
        iteration, _ = ckpt.restore(other)
        assert iteration == 2
        other.iteration = net.iteration
        assert save_weights(other) == expected


def make_reference_checkpoint():
    clock = SimClock()
    ssd = ReferenceBlockDevice(clock, SGX_EMLPM.ssd)
    enclave = Enclave(clock, SGX_EMLPM.sgx)
    runtime = EnclaveRuntime(enclave)
    engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv"))
    return ssd, ReferenceSsdCheckpoint(ssd, engine, enclave, runtime, SGX_EMLPM)


def make_wide_model(seed: int):
    """22 buffers, three of 0.9 MiB: records straddle the 1 MiB fread
    chunks, and the largest is under a third of the file."""
    return build_mnist_cnn(
        n_conv_layers=4, filters=160, batch=8, rng=np.random.default_rng(seed)
    )


def parameters(net):
    return [arr.copy() for _, (_, arr) in net.parameter_buffers()]


def record_spans(net):
    """(offset, length) of each record's sealed bytes in the file."""
    offset, spans = 16, []
    for _, (_, arr) in net.parameter_buffers():
        offset += 8
        spans.append((offset, arr.nbytes + SEAL_OVERHEAD))
        offset += arr.nbytes + SEAL_OVERHEAD
    return spans


class TestRecordAtATime:
    """The save seals and writes one record at a time and the restore
    unseals each record from a view of the file; the simulated phases
    are booked as the two-phase code booked them."""

    def test_file_bytes_and_phase_times_equal_the_two_phase_reference(self):
        ssd, ckpt = make_checkpoint()
        ref_ssd, ref = make_reference_checkpoint()
        net = make_wide_model(seed=1)
        assert ckpt.save(net, 5) == ref.save(net, 5)
        assert ssd.read_all(ckpt.path) == ref_ssd.read_all(ref.path)
        ours, theirs = make_wide_model(seed=2), make_wide_model(seed=2)
        assert ckpt.restore(ours) == ref.restore(theirs)
        for got, want in zip(parameters(ours), parameters(theirs)):
            assert got.tobytes() == want.tobytes()
        assert ckpt.runtime.stats == ref.runtime.stats
        assert ckpt.engine.stats == ref.engine.stats

    def test_save_and_restore_hold_one_file_image_and_two_records(self):
        """The file image, the reusable record buffer and one joined
        record that straddles two fread chunks; the two-phase code
        also held the whole sealed model, a second durable image and
        the whole file read back twice."""
        pytest.importorskip("cryptography")
        ssd, ckpt = make_checkpoint()
        ckpt.engine = EncryptionEngine(
            b"k" * 16, rand=SgxRandom(b"iv"), backend=CryptographyBackend()
        )
        net = make_wide_model(seed=3)
        largest = max(arr.nbytes for _, (_, arr) in net.parameter_buffers())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ckpt.save(net, 1)
            ckpt.restore(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        image = sys.getsizeof(ssd._files[ckpt.path].data)
        assert peak - before <= image + 2 * (8 + largest + SEAL_OVERHEAD)

    def test_a_tampered_record_raises_and_leaves_the_buffers_after_it(self):
        """A failed restore leaves the parameters garbage, as a failed
        ``mirror_in`` does: buffers before the bad record hold the
        checkpoint's values, the bad record's own buffer may hold
        unauthenticated plaintext, and the buffers after it are
        untouched."""
        ssd, ckpt = make_checkpoint()
        saved = make_wide_model(seed=4)
        ckpt.save(saved, 1)
        bad = 10  # layer 4's weights: a 0.9 MiB record
        offset, _ = record_spans(saved)[bad]
        blob = bytearray(ssd.read(ckpt.path, offset + 1000, 1))
        blob[0] ^= 0x01
        ssd.write(ckpt.path, offset + 1000, bytes(blob))
        ssd.fsync(ckpt.path)

        target = make_wide_model(seed=5)
        untouched = parameters(target)
        with pytest.raises(IntegrityError):
            ckpt.restore(target)
        got = parameters(target)
        want = parameters(saved)
        for i in range(bad):
            assert got[i].tobytes() == want[i].tobytes()
        for i in range(bad + 1, len(got)):
            assert got[i].tobytes() == untouched[i].tobytes()
        assert target.iteration != 1


def test_a_file_shorter_than_its_header_fails_closed():
    """A checkpoint file cut to 8 bytes cannot hold the 16-byte file
    header: the restore raises the typed integrity error a short record
    header raises, not a bare ``struct.error``."""
    ssd, ckpt = make_checkpoint()
    ckpt.save(make_model(seed=1), 1)
    head = ssd.read(ckpt.path, 0, 8)
    ssd.delete(ckpt.path)
    ssd.write(ckpt.path, 0, head)
    ssd.fsync(ckpt.path)
    assert ssd.file_size(ckpt.path) == 8
    with pytest.raises(IntegrityError, match="header"):
        ckpt.restore(make_model(seed=2))


class TestForgedRecordLength:
    """A record's length header is untrusted file bytes: one too short
    to hold a sealed record, or one that runs past the file, fails
    closed before the record is charged."""

    FORGED = 3  # the fourth record

    def _restore(self, length: int):
        """Save, rewrite the forged record's length header with
        ``length`` and restore: (simulated seconds, timing or error)."""
        ssd, ckpt = make_checkpoint()
        net = make_model(seed=1)
        ckpt.save(net, 1)
        offset, _ = record_spans(net)[self.FORGED]
        ssd.write(ckpt.path, offset - 8, struct.pack("<Q", length))
        ssd.fsync(ckpt.path)
        start = ckpt.clock.now()
        try:
            _, outcome = ckpt.restore(make_model(seed=2))
        except IntegrityError as exc:
            outcome = exc
        return ckpt.clock.now() - start, outcome

    @pytest.mark.parametrize("length", [4, 1 << 40])
    def test_forged_length_fails_closed_before_the_charge(self, length):
        elapsed, error = self._restore(length)
        assert isinstance(error, IntegrityError)
        # The same file with the true length: its read phase and the
        # records before the forged one are all a forged restore charges.
        net = make_model(seed=1)
        _, true_length = record_spans(net)[self.FORGED]
        _, timing = self._restore(true_length)
        charged = timing.storage_seconds
        for _, (_, arr) in net.parameter_buffers()[: self.FORGED]:
            charged += SGX_EMLPM.crypto.decrypt_time(arr.nbytes)
        assert elapsed == pytest.approx(charged, rel=1e-12)
