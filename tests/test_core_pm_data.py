"""The PM-data module: encrypted training data in persistent memory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pm_data import PmDataError, PmDataModule
from repro.crypto.engine import EncryptionEngine, SEAL_OVERHEAD
from repro.darknet.data import DataMatrix
from repro.hw.pmem import PersistentMemoryDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import RomulusRegion
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM


def make_module(pm_size: int = 8 << 20):
    clock = SimClock()
    device = PersistentMemoryDevice(pm_size, clock, EMLSGX_PM.pm)
    region = RomulusRegion(device, (pm_size - 4096) // 2).format()
    module = PmDataModule(
        region,
        PersistentHeap(region),
        EncryptionEngine(b"k" * 16, rand=SgxRandom(b"iv")),
        Enclave(clock, EMLSGX_PM.sgx),
        EMLSGX_PM,
    )
    return device, region, module


def small_matrix(n: int = 40, features: int = 32, classes: int = 4):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, features)).astype(np.float32)
    y = np.zeros((n, classes), dtype=np.float32)
    y[np.arange(n), rng.integers(0, classes, n)] = 1.0
    return DataMatrix(x=x, y=y)


class TestLoad:
    def test_exists_lifecycle(self):
        _, _, module = make_module()
        assert not module.exists()
        module.load(small_matrix())
        assert module.exists()

    def test_double_load_rejected(self):
        _, _, module = make_module()
        module.load(small_matrix())
        with pytest.raises(PmDataError, match="already"):
            module.load(small_matrix())

    def test_header_shape(self):
        _, _, module = make_module()
        module.load(small_matrix(40, 32, 4))
        assert module.shape == (40, 32, 4)
        assert module.num_rows == 40
        assert module.encrypted

    def test_bytes_used_includes_seal_overhead(self):
        _, _, module = make_module()
        data = small_matrix(40, 32, 4)
        used = module.load(data)
        assert used == 40 * ((32 + 4) * 4 + SEAL_OVERHEAD)

    def test_plaintext_mode(self):
        _, _, module = make_module()
        data = small_matrix()
        used = module.load(data, encrypted=False)
        assert used == data.nbytes
        assert not module.encrypted

    def test_fetch_before_load_raises(self):
        _, _, module = make_module()
        with pytest.raises(PmDataError, match="no training data"):
            module.fetch_batch(np.array([0]))


class TestFetch:
    def test_roundtrip_exact(self):
        _, _, module = make_module()
        data = small_matrix()
        module.load(data)
        idx = np.array([0, 7, 39, 7])
        x, y = module.fetch_batch(idx)
        np.testing.assert_array_equal(x, data.x[idx])
        np.testing.assert_array_equal(y, data.y[idx])

    def test_plaintext_roundtrip(self):
        _, _, module = make_module()
        data = small_matrix()
        module.load(data, encrypted=False)
        x, y = module.fetch_batch(np.arange(10))
        np.testing.assert_array_equal(x, data.x[:10])

    def test_out_of_range_rejected(self):
        _, _, module = make_module()
        module.load(small_matrix(10))
        with pytest.raises(IndexError):
            module.fetch_batch(np.array([10]))

    def test_random_batch_deterministic(self):
        _, _, module = make_module()
        module.load(small_matrix())
        a = module.random_batch(8, np.random.default_rng(3))
        b = module.random_batch(8, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])

    def test_survives_crash(self):
        device, region, module = make_module()
        data = small_matrix()
        module.load(data)
        device.crash()
        region.recover()
        x, _ = module.fetch_batch(np.arange(5))
        np.testing.assert_array_equal(x, data.x[:5])

    def test_encrypted_fetch_costs_more_than_plaintext(self):
        dev_e, _, enc_mod = make_module()
        dev_p, _, plain_mod = make_module()
        data = small_matrix()
        enc_mod.load(data)
        plain_mod.load(data, encrypted=False)
        dev_e.drop_caches()
        dev_p.drop_caches()
        t0 = dev_e.clock.now()
        enc_mod.fetch_batch(np.arange(32))
        enc_cost = dev_e.clock.now() - t0
        t0 = dev_p.clock.now()
        plain_mod.fetch_batch(np.arange(32))
        plain_cost = dev_p.clock.now() - t0
        assert enc_cost > plain_cost


class TestSecurity:
    def test_rows_are_ciphertext_on_pm(self):
        device, _, module = make_module()
        data = small_matrix()
        module.load(data)
        pm_image = device.snapshot()
        for i in range(5):
            window = data.x[i].tobytes()[:24]
            assert window not in pm_image

    def test_plaintext_mode_rows_visible(self):
        """The Fig. 8 baseline really does store plaintext (that is the
        point of the comparison)."""
        device, _, module = make_module()
        data = small_matrix()
        module.load(data, encrypted=False)
        assert data.x[0].tobytes() in device.snapshot()

    def test_tampered_row_fails_decryption(self):
        device, region, module = make_module()
        module.load(small_matrix())
        from repro.crypto.backend import IntegrityError

        stored = module.stored_row(3)
        # Corrupt that row on the device via region offsets.
        header_off = region.root(1)
        import struct

        (_, _, _, _, row_stored, rows_offset, _) = struct.unpack(
            "<QQQQQQQ", region.read(header_off, 56)
        )
        target = region.main_base + rows_offset + 3 * row_stored + 5
        byte = device.read(target, 1)
        device.write(target, bytes([byte[0] ^ 0x55]))
        with pytest.raises(IntegrityError):
            module.fetch_batch(np.array([3]))
        # Other rows still fine.
        module.fetch_batch(np.array([2, 4]))
        assert stored != module.stored_row(3)
