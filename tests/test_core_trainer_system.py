"""PliniusTrainer + PliniusSystem: Algorithm 2, kill/resume, facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.system import PliniusSystem
from repro.darknet.weights import save_weights
from tests.conftest import make_system


def build_small(system: PliniusSystem, momentum: float = 0.9):
    net = system.build_model(n_conv_layers=2, filters=4, batch=16)
    net.momentum = momentum
    return net


class TestTrainer:
    def test_requires_pm_data(self):
        system = make_system()
        net = build_small(system)
        with pytest.raises(RuntimeError, match="not in PM"):
            system.train(net, iterations=1)

    def test_trains_and_logs(self, system):
        net = build_small(system)
        result = system.train(net, iterations=5)
        assert result.completed
        assert result.iterations_run == 5
        assert result.final_iteration == 5
        assert len(result.log.losses) == 5
        assert result.sim_seconds > 0

    def test_mirror_every_iteration_by_default(self, system):
        net = build_small(system)
        result = system.train(net, iterations=4)
        # alloc (no timing) + 4 mirror-outs.
        assert len(result.mirror_timings) == 4
        assert system.mirror.stored_iteration() == 4

    def test_mirror_frequency_configurable(self, system):
        """Section VI, 'Mirroring frequency'."""
        net = build_small(system)
        result = system.train(net, iterations=6, mirror_every=3)
        assert len(result.mirror_timings) == 2
        assert system.mirror.stored_iteration() == 6

    def test_invalid_mirror_every(self, system):
        net = build_small(system)
        with pytest.raises(ValueError):
            system.trainer(net, mirror_every=0)

    def test_kill_hook_stops_at_boundary(self, system):
        net = build_small(system)
        result = system.train(
            net, iterations=10, kill_hook=lambda it: it >= 4
        )
        assert not result.completed
        assert result.final_iteration == 4

    def test_iteration_timings_recorded(self, system):
        net = build_small(system)
        result = system.train(net, iterations=3)
        assert len(result.iteration_timings) == 3
        for t in result.iteration_timings:
            assert t.fetch_seconds > 0
            assert t.compute_seconds > 0
            assert t.mirror_seconds > 0
            assert t.total == pytest.approx(
                t.fetch_seconds + t.compute_seconds + t.mirror_seconds
            )

    def test_non_resilient_never_touches_mirror(self, system):
        net = build_small(system)
        system.train(net, iterations=3, crash_resilient=False)
        assert not system.mirror.exists()

    def test_warm_model_not_rewound_by_stale_mirror(self, system):
        net = build_small(system)
        system.train(net, iterations=4, mirror_every=4)
        # Continue training; the mirror (at iteration 4) must not rewind
        # the in-memory model when training continues warm.
        result = system.train(net, iterations=6, mirror_every=4)
        assert result.resumed_from == 0
        assert net.iteration == 6


class TestKillResume:
    def test_resume_restores_exact_weights(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        net = build_small(system)
        system.train(net, iterations=6)
        pre_kill = save_weights(net)

        system.kill()
        assert system.enclave.destroyed
        system.resume()
        net2 = build_small(system)
        assert save_weights(net2) != pre_kill  # fresh random weights
        result = system.train(net2, iterations=6)  # mirror_in, 0 new iters
        assert result.resumed_from == 6
        assert result.iterations_run == 0
        assert save_weights(net2) == pre_kill

    def test_momentum_free_resume_equals_uninterrupted(self, tiny_dataset):
        def fresh():
            s = make_system()
            s.load_data(tiny_dataset)
            return s

        ref_system = fresh()
        ref_net = build_small(ref_system, momentum=0.0)
        ref_system.train(ref_net, iterations=12)

        system = fresh()
        net = build_small(system, momentum=0.0)
        system.train(net, iterations=5)
        system.kill()
        system.resume()
        net2 = build_small(system, momentum=0.0)
        system.train(net2, iterations=12)
        assert save_weights(net2) == save_weights(ref_net)

    def test_multiple_kill_resume_cycles(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        net = build_small(system)
        for stop in (3, 7, 11):
            system.train(net, iterations=stop)
            system.kill()
            system.resume()
            net = build_small(system)
        result = system.train(net, iterations=15)
        assert result.resumed_from == 11
        assert result.final_iteration == 15

    def test_data_survives_kill_without_reload(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        system.kill()
        system.resume()
        assert system.pm_data.exists()
        x, _ = system.pm_data.fetch_batch(np.arange(4))
        np.testing.assert_array_equal(x, tiny_dataset.x[:4])

    def test_non_resilient_restarts_from_scratch(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        net = build_small(system)
        r1 = system.train(net, iterations=5, crash_resilient=False)
        assert r1.final_iteration == 5
        system.kill()
        system.resume()
        net2 = build_small(system)
        r2 = system.train(net2, iterations=5, crash_resilient=False)
        assert r2.resumed_from == 0
        assert r2.iterations_run == 5  # had to redo all 5


class TestSystemFacade:
    def test_create_by_server_name(self, server_name):
        system = PliniusSystem.create(server=server_name, pm_size=32 << 20)
        assert system.profile.name == server_name

    def test_unknown_server_rejected(self):
        with pytest.raises(KeyError):
            PliniusSystem.create(server="bogus")

    def test_build_model_fresh_weights_each_call(self):
        system = make_system()
        a = system.build_model(n_conv_layers=2, filters=4)
        b = system.build_model(n_conv_layers=2, filters=4)
        assert save_weights(a) != save_weights(b)

    def test_same_seed_same_model_sequence(self):
        a = make_system(seed=5).build_model(n_conv_layers=2, filters=4)
        b = make_system(seed=5).build_model(n_conv_layers=2, filters=4)
        assert save_weights(a) == save_weights(b)

    def test_kill_crashes_all_devices(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        system.kill()
        assert system.pm.crash_count == 1
        assert system.ssd.crash_count == 1

    def test_checkpoint_baseline_available(self, system):
        net = build_small(system)
        system.checkpoint.save(net, 3)
        iteration, _ = system.checkpoint.restore(net)
        assert iteration == 3


class TestKeySealing:
    """The provisioned key survives restarts only via sealing."""

    def test_resume_recovers_key_by_unsealing(self, tiny_dataset):
        system = make_system()
        system.load_data(tiny_dataset)
        original_key = system.key
        system.kill()
        system.resume()
        assert system.key == original_key
        # And the recovered engine actually decrypts the PM data.
        x, _ = system.pm_data.fetch_batch(np.arange(2))
        np.testing.assert_array_equal(x, tiny_dataset.x[:2])

    def test_tampered_sealed_key_blocks_resume(self, tiny_dataset):
        from repro.crypto.backend import IntegrityError

        system = make_system()
        system.load_data(tiny_dataset)
        blob = bytearray(system.ssd.read_all("sealed_key.bin"))
        blob[40] ^= 0xFF
        system.ssd.write("sealed_key.bin", 0, bytes(blob))
        system.ssd.fsync("sealed_key.bin")
        system.kill()
        with pytest.raises(IntegrityError):
            system.resume()

    def test_modified_binary_cannot_unseal(self):
        """A different enclave build (measurement) must not get the key."""
        from repro.crypto.backend import IntegrityError
        from repro.sgx.enclave import Enclave
        from repro.sgx.sealing import SealedBlob, unseal_data

        system = make_system()
        payload = system.ssd.read_all("sealed_key.bin")
        blob = SealedBlob(measurement=payload[:32], sealed=payload[32:])
        evil = Enclave(
            system.clock, system.profile.sgx, code_identity=b"evil-build"
        )
        with pytest.raises(IntegrityError):
            unseal_data(evil, blob, system._device_key)

    def test_provision_key_reseals(self, tiny_dataset):
        system = make_system()
        new_key = b"N" * 16
        system.provision_key(new_key)
        system.load_data(tiny_dataset)
        system.kill()
        system.resume()
        assert system.key == new_key
