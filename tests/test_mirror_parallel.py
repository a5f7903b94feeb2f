"""The sealing pipeline: the sealed format pinned against the reference
``seal``, simulated-time fidelity against the frozen totals, crash
atomicity of in-place sealing, and the inputs the in-place fast path
cannot take."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.mirror import MirrorModule
from repro.core.models import build_mnist_cnn
from repro.crypto.engine import EncryptionEngine
from repro.darknet.weights import save_weights
from repro.faults import plan as faultplan
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM

from tests.conftest import PmOpPlan

#: Sim totals recorded from the deleted copy path at commit 2944023
#: (regenerate: ``python -m tests.test_cluster_equivalence``).
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden" / "twins.json").read_text()
)


def make_mirror(pm_size=16 << 20):
    clock = SimClock()
    device = PersistentMemoryDevice(pm_size, clock, EMLSGX_PM.pm)
    region = RomulusRegion(device, (pm_size - 4096) // 2).format()
    heap = PersistentHeap(region)
    engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv"))
    enclave = Enclave(clock, EMLSGX_PM.sgx)
    mirror = MirrorModule(region, heap, engine, enclave, EMLSGX_PM)
    return device, region, mirror


def make_model(seed: int = 0):
    return build_mnist_cnn(
        n_conv_layers=2, filters=4, batch=8, rng=np.random.default_rng(seed)
    )


def mirror_sim_totals() -> dict:
    """Sim-plane observations of one save + restore (the fixture row)."""
    _, _, mirror = make_mirror()
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
    def test_slots_hold_reference_seal_of_each_buffer(self):
        """The format, pinned from the paper rather than from a twin:
        every PM slot is ``seal(buffer bytes, aad=buffer name)`` with the
        IVs drawn in layer/buffer order (the engine draws none elsewhere)."""
        _, region, mirror = make_mirror()
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
        """Phase timings and the final clock are float-exact against the
        totals the allocate-and-copy path gave before it was deleted."""
        assert mirror_sim_totals() == GOLDEN["mirror"]["1"]


class TestCrashAtomicity:
    def test_crash_mid_parallel_mirror_out_keeps_old_mirror(self):
        """A crash inside the write transaction must recover to the
        pre-transaction mirror: slots sealed in place are volatile until
        the transaction flushes them."""
        device, region, mirror = make_mirror()
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

        with pytest.raises(Crash), faultplan.installed(PmOpPlan(hook)):
            mirror.mirror_out(net, 2)
        device.crash()
        region.recover()

        restored = make_model(seed=6)
        mirror.mirror_in(restored)
        assert mirror.stored_iteration() in (1, 2)
        restored.iteration = 0
        if mirror.stored_iteration() == 1:
            assert save_weights(restored)[16:] == old[16:]

    def test_tamper_detected_on_zero_copy_restore(self):
        device, _, mirror = make_mirror()
        net = make_model(seed=8)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        # A privileged adversary rewrites the PM image: flip a line of
        # the main-copy heap area and present the image back.
        main_lo = mirror.region.main_base
        image = bytearray(device.snapshot())
        for off in range(main_lo + 4096, main_lo + 4096 + 64):
            image[off] ^= 0xFF
        device.load_image(bytes(image))
        from repro.crypto.backend import IntegrityError
        from repro.core.mirror import MirrorError

        with pytest.raises((IntegrityError, MirrorError)):
            mirror.mirror_in(make_model(seed=9))


class TestRealInputFallbacks:
    """Inputs the in-place fast path cannot take still behave."""

    def test_slot_size_mismatch_raises_and_keeps_old_mirror(self):
        from repro.core.mirror import MirrorError

        _, _, mirror = make_mirror()
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

    def test_restore_into_non_contiguous_parameter(self):
        _, _, mirror = make_mirror()
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
