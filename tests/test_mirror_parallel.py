"""The sealing pipeline: determinism across thread counts, the sealed
format pinned against the reference ``seal``, simulated-time fidelity,
crash atomicity with threads, and the makespan cost model."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.mirror import MirrorModule
from repro.core.models import build_mnist_cnn
from repro.crypto.engine import EncryptionEngine
from repro.crypto.parallel import shutdown_executors
from repro.darknet.weights import save_weights
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM

THREADS = [1, 3]

#: Sim totals recorded from the deleted copy path at commit 2944023
#: (regenerate: ``python -m tests.test_cluster_equivalence``).
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden" / "twins.json").read_text()
)


def make_mirror(crypto_threads: int = 1, pm_size=16 << 20):
    clock = SimClock()
    device = PersistentMemoryDevice(pm_size, clock, EMLSGX_PM.pm)
    region = RomulusRegion(device, (pm_size - 4096) // 2).format()
    heap = PersistentHeap(region)
    engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv"))
    enclave = Enclave(clock, EMLSGX_PM.sgx)
    mirror = MirrorModule(
        region,
        heap,
        engine,
        enclave,
        EMLSGX_PM,
        crypto_threads=crypto_threads,
    )
    return device, region, mirror


def make_model(seed: int = 0):
    return build_mnist_cnn(
        n_conv_layers=2, filters=4, batch=8, rng=np.random.default_rng(seed)
    )


@pytest.fixture(autouse=True, scope="module")
def _teardown_pools():
    yield
    shutdown_executors()


def pm_digest(device: PersistentMemoryDevice) -> str:
    return hashlib.sha256(bytes(device._data)).hexdigest()


def mirror_sim_totals(threads: int) -> dict:
    """Sim-plane observations of one save + restore (the fixture row)."""
    _, _, mirror = make_mirror(threads)
    net = make_model(seed=12)
    mirror.alloc_mirror_model(net)
    out = mirror.mirror_out(net, 1)
    back = mirror.mirror_in(make_model(seed=99))
    return {
        "out": [out.crypto_seconds, out.storage_seconds],
        "in": [back.crypto_seconds, back.storage_seconds],
        "now": mirror.clock.now(),
    }


class TestDeterminism:
    def test_mirror_bytes_identical_across_configs(self):
        """Sealed PM images (including IVs) must not depend on the number
        of crypto threads."""
        digests = {}
        for threads in THREADS:
            device, _, mirror = make_mirror(threads)
            net = make_model(seed=12)
            mirror.alloc_mirror_model(net)
            mirror.mirror_out(net, 5)
            digests[threads] = pm_digest(device)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("threads", THREADS)
    def test_slots_hold_reference_seal_of_each_buffer(self, threads):
        """The format, pinned from the paper rather than from a twin:
        every PM slot is ``seal(buffer bytes, aad=buffer name)`` with the
        IVs drawn in layer/buffer order (the engine draws none elsewhere).

        The mirror's engine binds one keyed AEAD context at construction
        and every pool worker seals through it, so at ``threads`` 3 this
        also proves that one context is safe to share across the pool:
        a context with per-call state would interleave and miss the
        oracle's bytes."""
        _, region, mirror = make_mirror(threads)
        net = make_model(seed=12)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 5)
        oracle = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv"))
        _, _, layout = mirror._mirror_layout(region.root(0))
        rows = [
            layer.parameter_buffers()
            for layer in net.layers
            if layer.parameter_buffers()
        ]
        assert len(layout) == len(rows)
        for refs, buffers in zip(layout, rows):
            assert len(refs) == len(buffers)
            for (size, offset), (name, arr) in zip(refs, buffers):
                expected = oracle.seal(arr.tobytes(), aad=name.encode())
                assert region.read(offset, size) == expected

    def test_sim_time_identical_at_one_thread(self):
        """Phase timings and the final clock at ``crypto_threads=1`` are
        float-exact against the totals the allocate-and-copy path gave
        before it was deleted."""
        assert mirror_sim_totals(1) == GOLDEN["mirror"]["1"]

    def test_sim_time_identical_at_three_threads(self):
        """Same, for the makespan-charged fan-out."""
        assert mirror_sim_totals(3) == GOLDEN["mirror"]["3"]

    def test_parallel_crypto_time_is_makespan(self):
        """Threads overlap encryption in simulated time too: the crypto
        span shrinks but storage (single PM channel) does not."""
        results = {}
        for threads in (1, 3):
            _, _, mirror = make_mirror(threads)
            net = make_model(seed=12)
            mirror.alloc_mirror_model(net)
            results[threads] = mirror.mirror_out(net, 1)
        assert results[3].crypto_seconds < results[1].crypto_seconds
        # Storage work is unchanged; the span starts from a different
        # clock base, so allow last-ulp float noise.
        assert results[3].storage_seconds == pytest.approx(
            results[1].storage_seconds, rel=1e-12
        )

    def test_parallel_mirror_in_bit_identical_to_serial(self):
        weights = {}
        for threads in THREADS:
            _, _, mirror = make_mirror(threads)
            net = make_model(seed=21)
            mirror.alloc_mirror_model(net)
            mirror.mirror_out(net, 3)
            restored = make_model(seed=77)  # different random init
            mirror.mirror_in(restored)
            restored.iteration = 0
            weights[threads] = save_weights(restored)[16:]
        assert len(set(weights.values())) == 1
        source = save_weights(make_model(seed=21))[16:]
        assert next(iter(weights.values())) == source


class TestCrashAtomicity:
    def test_crash_mid_parallel_mirror_out_keeps_old_mirror(self):
        """A crash inside the write transaction with ``crypto_threads>1``
        must recover to the pre-transaction mirror, exactly like serial."""
        device, region, mirror = make_mirror(3)
        net = make_model(seed=5)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        old = save_weights(net)

        for layer in net.layers:
            for _, buf in layer.parameter_buffers():
                buf += 1.0

        class Crash(Exception):
            pass

        count = {"n": 0}

        def hook(op):
            count["n"] += 1
            if count["n"] > 25:  # somewhere inside the write transaction
                raise Crash

        device.fault_hook = hook
        with pytest.raises(Crash):
            mirror.mirror_out(net, 2)
        device.fault_hook = None
        device.crash()
        region.recover()

        restored = make_model(seed=6)
        mirror.mirror_in(restored)
        assert mirror.stored_iteration() in (1, 2)
        restored.iteration = 0
        if mirror.stored_iteration() == 1:
            assert save_weights(restored)[16:] == old[16:]

    def test_tamper_detected_on_zero_copy_restore(self):
        device, _, mirror = make_mirror(3)
        net = make_model(seed=8)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        # Flip one bit inside the main-copy heap area.
        main_lo = mirror.region.main_base
        for off in range(main_lo + 4096, main_lo + 4096 + 64):
            device._data[off] ^= 0xFF
            device._durable[off] ^= 0xFF
        from repro.crypto.backend import IntegrityError
        from repro.core.mirror import MirrorError

        with pytest.raises((IntegrityError, MirrorError)):
            mirror.mirror_in(make_model(seed=9))


class TestRealInputFallbacks:
    """Inputs the in-place fast path cannot take still behave."""

    @pytest.mark.parametrize("threads", THREADS)
    def test_slot_size_mismatch_raises_and_keeps_old_mirror(self, threads):
        from repro.core.mirror import MirrorError

        _, _, mirror = make_mirror(threads)
        net = make_model(seed=5)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        wider = build_mnist_cnn(
            n_conv_layers=2, filters=5, batch=8, rng=np.random.default_rng(5)
        )
        with pytest.raises(MirrorError, match="PM slot holds"):
            mirror.mirror_out(wider, 2)
        restored = make_model(seed=6)
        mirror.mirror_in(restored)
        assert restored.iteration == 1
        restored.iteration = 0
        assert save_weights(restored)[16:] == save_weights(net)[16:]

    @pytest.mark.parametrize("threads", THREADS)
    def test_restore_into_non_contiguous_parameter(self, threads):
        _, _, mirror = make_mirror(threads)
        net = make_model(seed=5)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        restored = make_model(seed=6)
        conv = next(l for l in restored.layers if l.parameter_buffers())
        # A Fortran-ordered weight tensor cannot be decrypted into in
        # place; it goes through unseal + set_parameter.
        conv.weights = np.asfortranarray(conv.weights)
        assert not conv.weights.flags.c_contiguous
        mirror.mirror_in(restored)
        source = next(l for l in net.layers if l.parameter_buffers())
        np.testing.assert_array_equal(conv.weights, source.weights)


class TestCostModel:
    def test_serial_sum_at_one_thread(self):
        crypto = EMLSGX_PM.crypto
        sizes = [1000, 2000, 30_000, 4]
        expected = sum(crypto.encrypt_time(n) for n in sizes)
        assert crypto.parallel_encrypt_seconds(sizes, 1) == expected

    def test_makespan_bounds(self):
        crypto = EMLSGX_PM.crypto
        sizes = [10_000, 20_000, 30_000, 40_000, 50_000]
        serial = sum(crypto.encrypt_time(n) for n in sizes)
        longest = max(crypto.encrypt_time(n) for n in sizes)
        for threads in (2, 3, 5, 8):
            span = crypto.parallel_encrypt_seconds(sizes, threads)
            assert longest <= span <= serial
        # More workers never makes the makespan longer on this greedy
        # assignment with identical per-byte costs.
        assert crypto.parallel_encrypt_seconds(
            sizes, 5
        ) <= crypto.parallel_encrypt_seconds(sizes, 2)

    def test_decrypt_variant(self):
        crypto = EMLSGX_PM.crypto
        sizes = [1024] * 6
        assert crypto.parallel_decrypt_seconds(sizes, 1) == sum(
            crypto.decrypt_time(n) for n in sizes
        )
        assert (
            crypto.parallel_decrypt_seconds(sizes, 3)
            == 2 * crypto.decrypt_time(1024)
        )

    def test_empty(self):
        crypto = EMLSGX_PM.crypto
        assert crypto.parallel_encrypt_seconds([], 4) == 0.0


class TestConfigValidation:
    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            make_mirror(crypto_threads=0)

    def test_trains_same_result_any_config(self):
        """End-to-end: a mirrored training iteration restores identically
        regardless of pipeline configuration."""
        outs = set()
        for threads in THREADS:
            _, _, mirror = make_mirror(threads)
            net = make_model(seed=31)
            mirror.alloc_mirror_model(net)
            x = np.random.default_rng(1).normal(
                size=(8, 1, 28, 28)
            ).astype(np.float32)
            truth = np.zeros((8, 10), dtype=np.float32)
            truth[np.arange(8), np.arange(8) % 10] = 1.0
            net.train_batch(x, truth)
            mirror.mirror_out(net, 1)
            restored = make_model(seed=32)
            mirror.mirror_in(restored)
            restored.iteration = 0
            outs.add(save_weights(restored)[16:])
        assert len(outs) == 1
