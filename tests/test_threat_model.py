"""Systematic threat-model walkthrough (paper Section III).

The adversary has "physical access to the hardware and full control of
the entire software stack including the OS and hypervisor" and "seeks
sensitive information inside the enclave, on DRAM or PM".  The paper's
three goals: confidentiality + integrity of (1) the model being trained,
(2) its PM replica, (3) the training data in PM.

These tests sweep every untrusted persistent/wire surface for every
secret at every phase of the Fig. 5 workflow, and exercise active
attacks (tamper, swap, replay, key theft) against each mechanism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.workflow import DataOwner, run_full_workflow
from repro.crypto.backend import IntegrityError
from repro.darknet import save_weights
from repro.data import synthetic_mnist, to_data_matrix


@pytest.fixture(scope="module")
def deployment():
    """A completed Fig. 5 run plus the secrets an attacker wants."""
    images, labels, _, _ = synthetic_mnist(96, 1, seed=41)
    data = to_data_matrix(images, labels)
    artifacts = run_full_workflow(data)
    secrets = {
        "data-key": artifacts.provisioned_key,
    }
    for i in range(3):
        secrets[f"training-row-{i}"] = data.x[i].tobytes()[:24]
    for layer in artifacts.network.layers:
        for name, buf in layer.parameter_buffers():
            raw = np.ascontiguousarray(buf, np.float32).tobytes()
            if len(raw) >= 16 and any(raw):
                secrets[f"model-{layer.kind}-{name}"] = raw[:24]
                break  # one distinctive buffer per layer suffices
    return artifacts, secrets


def _surfaces(system):
    """Every byte store an OS-level attacker can dump."""
    out = {"pm-image": system.pm.snapshot()}
    for name, f in system.ssd._files.items():
        out[f"ssd:{name}"] = bytes(f.data)
    for name, buf in system.dram._buffers.items():
        out[f"dram:{name}"] = bytes(buf)
    return out


class TestConfidentiality:
    def test_no_secret_on_any_untrusted_surface(self, deployment):
        artifacts, secrets = deployment
        surfaces = _surfaces(artifacts.system)
        assert "pm-image" in surfaces and any(
            k.startswith("ssd:") for k in surfaces
        )
        for surface_name, blob in surfaces.items():
            for secret_name, secret in secrets.items():
                assert secret not in blob, (
                    f"{secret_name} leaked onto {surface_name}"
                )

    def test_final_model_export_is_opaque(self, deployment):
        artifacts, secrets = deployment
        for secret_name, secret in secrets.items():
            if secret_name.startswith("model-"):
                assert secret not in artifacts.sealed_model

    def test_wire_messages_are_opaque(self, deployment):
        """The key-provisioning message never carries the key in clear."""
        artifacts, _ = deployment
        owner = DataOwner(seed=41)
        # Re-derive the protected message deterministically is not
        # possible (fresh DH), so check the mechanism directly.
        from repro.sgx.attestation import establish_channel
        from repro.sgx.rand import SgxRandom

        system = artifacts.system
        oc, ec = establish_channel(
            system.enclave,
            system.quoting_enclave,
            system.enclave.measurement,
            SgxRandom(b"e2"),
            SgxRandom(b"o2"),
        )
        wire = oc.send(owner.key)
        assert owner.key not in wire
        assert ec.receive(wire) == owner.key


class TestIntegrity:
    def test_bitflip_anywhere_in_mirror_payload_detected(self, deployment):
        """Flip bytes at several points of the PM user area: restore
        either fails the MAC or (for untouched metadata) still restores
        the correct values — never silently wrong weights."""
        images, labels, _, _ = synthetic_mnist(64, 1, seed=43)
        data = to_data_matrix(images, labels)
        from tests.conftest import make_system
        from repro.darknet.weights import save_weights

        system = make_system(seed=43)
        system.load_data(data)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net, iterations=2)
        good = save_weights(net)

        region = system.region
        heap_used = system.heap.bump
        rng = np.random.default_rng(1)
        for _ in range(6):
            target = int(rng.integers(96, heap_used))
            addr = region.main_base + target
            original = system.pm.read(addr, 1)
            system.pm.write(addr, bytes([original[0] ^ 0x40]))
            fresh = system.build_model(n_conv_layers=2, filters=4, batch=16)
            try:
                system.mirror.mirror_in(fresh)
            except Exception:
                pass  # detected (MAC failure or structural rejection)
            else:
                fresh.iteration = net.iteration
                assert save_weights(fresh) == good, (
                    f"silent corruption at main+{target}"
                )
            system.pm.write(addr, original)  # undo for the next round

    def test_checkpoint_bitflip_detected(self, deployment):
        from tests.conftest import make_system

        system = make_system(seed=44)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.checkpoint.save(net, 1)
        blob = bytearray(system.ssd.read_all(system.checkpoint.path))
        blob[len(blob) // 2] ^= 0x01
        system.ssd.write(system.checkpoint.path, 0, bytes(blob))
        with pytest.raises(IntegrityError):
            system.checkpoint.restore(net)

    def test_cross_deployment_mirror_rejected(self, deployment):
        """A mirror written under another deployment's key is garbage to
        this enclave (stolen-PM-DIMM scenario)."""
        images, labels, _, _ = synthetic_mnist(64, 1, seed=45)
        data = to_data_matrix(images, labels)
        from tests.conftest import make_system

        victim = make_system(seed=45)
        victim.load_data(data)
        net = victim.build_model(n_conv_layers=2, filters=4, batch=16)
        victim.train(net, iterations=2)

        thief = make_system(seed=46)  # different provisioned key
        thief.pm.load_image(victim.pm.snapshot())
        thief.region.recover()
        stolen_into = thief.build_model(n_conv_layers=2, filters=4, batch=16)
        with pytest.raises(IntegrityError):
            thief.mirror.mirror_in(stolen_into)


class TestAvailabilityBoundary:
    """What the design does NOT protect (and must fail loudly about)."""

    def test_wiped_pm_means_training_restarts(self, deployment):
        """DoS is out of scope: zeroing PM loses the mirror, but the
        system detects it rather than restoring junk."""
        images, labels, _, _ = synthetic_mnist(64, 1, seed=47)
        data = to_data_matrix(images, labels)
        from tests.conftest import make_system

        system = make_system(seed=47)
        system.load_data(data)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net, iterations=2)
        system.pm.load_image(bytes(system.pm.size))
        with pytest.raises(ValueError, match="bad magic"):
            system.resume()

    def test_replayed_pm_image_restores_older_iteration(self):
        """Rollback is out of scope, as in the paper (Section III; see
        ``docs/architecture.md``): every sealed buffer of an older PM
        image is still authentic, so replaying one restores that older
        iteration without any error."""
        images, labels, _, _ = synthetic_mnist(64, 1, seed=48)
        data = to_data_matrix(images, labels)
        from tests.conftest import make_system

        system = make_system(seed=48)
        system.load_data(data)
        net = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.train(net, iterations=2)
        snapshot = system.pm.snapshot()
        weights_at_2 = save_weights(net)
        system.train(net, iterations=4)
        assert net.iteration == 4

        system.kill()
        system.pm.load_image(snapshot)
        system.resume()
        restored = system.build_model(n_conv_layers=2, filters=4, batch=16)
        system.mirror.mirror_in(restored)
        assert restored.iteration == 2
        assert save_weights(restored) == weights_at_2
