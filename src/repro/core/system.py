"""The PliniusSystem facade: one object wiring every component together.

Owns the simulated machine (clock, PM and SSD devices, enclave,
ecall/ocall runtime), the crypto engine, the Romulus region and the
Plinius modules (mirroring, PM data, SSD-checkpoint baseline), and
exposes the workflow of Fig. 5 as plain method calls:

    system = PliniusSystem.create(server="emlSGX-PM", seed=7)
    system.load_data(train_matrix)
    model = system.build_model(n_conv_layers=5)
    result = system.train(model, iterations=500)

    system.kill()                  # spot eviction / power failure
    system.resume()
    model = system.build_model(n_conv_layers=5)   # fresh random weights
    result = system.train(model, iterations=500)  # resumes via mirror_in
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.checkpoint import SsdCheckpoint
from repro.core.mirror import MirrorModule
from repro.core.models import MNIST_INPUT_SHAPE, build_mnist_cnn
from repro.core.pm_data import PmDataModule
from repro.core.trainer import PliniusTrainer, TrainResult
from repro.crypto.engine import EncryptionEngine
from repro.darknet.data import DataMatrix
from repro.darknet.network import Network
from repro.hw.pmem import PersistentMemoryDevice
from repro.hw.ssd import BlockDevice
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import HEADER_SIZE, RomulusRegion
from repro.sgx.attestation import QuotingEnclave
from repro.sgx.ecall import EnclaveRuntime
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom  # repro: noqa[SEC002] -- facade wires both sides of the boundary; the DRNG handle is passed into the enclave, never sampled here
from repro.sgx.sealing import SealedBlob, seal_data, unseal_data  # repro: noqa[SEC002] -- facade wires both sides of the boundary; sealing runs only in enclave-owned call paths
from repro.simtime.clock import SimClock
from repro.simtime.profiles import ServerProfile, get_profile

__all__ = ["PliniusSystem", "TrainResult"]

_DEFAULT_PM_SIZE = 192 << 20


class PliniusSystem:
    """A complete simulated Plinius deployment on one server."""

    def __init__(
        self,
        profile: ServerProfile,
        clock: SimClock,
        pm: PersistentMemoryDevice,
        ssd: BlockDevice,
        rand: SgxRandom,
        key: bytes,
        seed: int,
    ) -> None:
        self.profile = profile
        self.clock = clock
        # One recorder observes the whole deployment: the clock's, which
        # every component reads as ``clock.recorder``.
        self.recorder = clock.recorder
        self.pm = pm
        self.ssd = ssd
        self.rand = rand
        self.key = key
        self.seed = seed
        self._model_nonce = 0
        self.quoting_enclave = QuotingEnclave(
            b"platform-key-" + profile.name.encode()
        )
        # Per-platform fused secret backing the sealing-key derivation.
        self._device_key = b"device-fuse-" + profile.name.encode()
        self._attach_enclave()
        self._attach_region(fresh=True)
        self._seal_key_to_disk()

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        server: str = "emlSGX-PM",
        seed: int = 7,
        pm_size: int = _DEFAULT_PM_SIZE,
        recorder=None,
    ) -> "PliniusSystem":
        """Stand up a fresh deployment on the named server profile.

        ``recorder`` attaches a :class:`~repro.obs.recorder.TraceRecorder`
        to the deployment; ``None`` uses the process default (the null
        recorder unless the ``--trace`` CLI flag or a test installed one
        via :func:`repro.obs.install_default_recorder`).
        """
        profile = get_profile(server)
        clock = SimClock()
        if recorder is not None:
            # Before any device is built: each registers its stats with it.
            clock.recorder = recorder
        rand = SgxRandom(seed.to_bytes(8, "big"))
        pm = PersistentMemoryDevice(
            pm_size,
            clock,
            profile.pm,
            clflush_cost=profile.clflush_cost,
            clflushopt_cost=profile.clflushopt_cost,
            sfence_cost=profile.sfence_cost,
            store_cost=profile.store_cost,
            load_cost=profile.load_cost,
        )
        ssd = BlockDevice(clock, profile.ssd)
        key = EncryptionEngine.generate_key(rand)
        return cls(profile, clock, pm, ssd, rand, key, seed)

    def _attach_enclave(self) -> None:
        self.enclave = Enclave(self.clock, self.profile.sgx)
        self.runtime = EnclaveRuntime(self.enclave)
        if self.key:
            self.engine = EncryptionEngine(
                self.key, rand=self.rand, observer=self.recorder
            )

    def _attach_region(self, fresh: bool) -> None:
        main_size = (self.pm.size - HEADER_SIZE) // 2
        if fresh:
            self.region = RomulusRegion(self.pm, main_size).format()
        else:
            self.region = RomulusRegion.open(self.pm)
        self.heap = PersistentHeap(self.region)
        self.mirror = MirrorModule(
            self.region, self.heap, self.engine, self.enclave, self.profile
        )
        self.pm_data = PmDataModule(
            self.region, self.heap, self.engine, self.enclave, self.profile
        )
        self.checkpoint = SsdCheckpoint(
            self.ssd, self.engine, self.enclave, self.runtime, self.profile
        )

    def kill(self) -> None:
        """Simulate process kill / power failure.

        The enclave and all DRAM state die; the PM device loses every
        unflushed store; the SSD loses unsynced writes.
        """
        self.enclave.destroy()
        self.pm.crash()
        self.ssd.crash()

    def resume(self) -> "PliniusSystem":
        """Restart after a kill: fresh enclave, recovered Romulus region.

        The data key is *not* carried over in volatile state: the fresh
        enclave recovers it by unsealing the blob persisted at
        provisioning time (Section IV: "The encryption key, once
        generated or provisioned, can be securely sealed by the enclave
        for future use").  An enclave with a different measurement, or
        one on a different platform, cannot unseal it.
        """
        self.key = b""  # volatile copy died with the old enclave
        self._attach_enclave()
        self.key = self._unseal_key_from_disk()
        self.engine = EncryptionEngine(
            self.key, rand=self.rand, observer=self.recorder
        )
        self._attach_region(fresh=False)
        return self

    # ------------------------------------------------------------------
    # Key persistence (sealing)
    # ------------------------------------------------------------------
    _SEALED_KEY_FILE = "sealed_key.bin"

    def _seal_key_to_disk(self) -> None:
        blob = seal_data(self.enclave, self.key, self._device_key, self.rand)
        payload = blob.measurement + blob.sealed
        self.ssd.write(self._SEALED_KEY_FILE, 0, payload)
        self.ssd.fsync(self._SEALED_KEY_FILE)

    def _unseal_key_from_disk(self) -> bytes:
        if not self.ssd.exists(self._SEALED_KEY_FILE):
            raise RuntimeError(
                "no sealed key on disk — was the key ever provisioned?"
            )
        payload = self.ssd.read_all(self._SEALED_KEY_FILE)
        blob = SealedBlob(measurement=payload[:32], sealed=payload[32:])
        return unseal_data(self.enclave, blob, self._device_key)

    def provision_key(self, key: bytes) -> None:
        """Install a key received over the attested channel (Fig. 5 step
        3), seal it for future restarts, and rebind the crypto engine.

        PM is reformatted: anything sealed under the old key is
        unreadable anyway.
        """
        self.key = key
        self.engine = EncryptionEngine(
            self.key, rand=self.rand, observer=self.recorder
        )
        self._attach_region(fresh=True)
        self._seal_key_to_disk()

    # ------------------------------------------------------------------
    # Workflow steps
    # ------------------------------------------------------------------
    def build_model(
        self,
        n_conv_layers: int = 5,
        filters: int = 16,
        batch: int = 128,
    ) -> Network:
        """Construct an enclave model with fresh random weights.

        Each call uses a new derived seed: after a non-resilient
        restart, "the model begins the learning process with initial
        randomized weights" (Section VI, crash resilience).
        """
        self._model_nonce += 1
        rng = np.random.default_rng((self.seed, self._model_nonce))
        return build_mnist_cnn(
            n_conv_layers=n_conv_layers,
            filters=filters,
            batch=batch,
            rng=rng,
        )

    def load_data(self, data: DataMatrix, encrypted: bool = True) -> int:
        """Load the training set into PM (once per deployment)."""
        return self.pm_data.load(data, encrypted=encrypted)

    def trainer(
        self,
        network: Network,
        mirror_every: int = 1,
        crash_resilient: bool = True,
        input_shape: tuple = MNIST_INPUT_SHAPE,
    ) -> PliniusTrainer:
        """Construct a trainer bound to this system's current enclave."""
        return PliniusTrainer(
            network=network,
            mirror=self.mirror,
            pm_data=self.pm_data,
            enclave=self.enclave,
            profile=self.profile,
            clock=self.clock,
            input_shape=input_shape,
            mirror_every=mirror_every,
            crash_resilient=crash_resilient,
        )

    def train(
        self,
        network: Network,
        iterations: int,
        mirror_every: int = 1,
        crash_resilient: bool = True,
        kill_hook: Optional[Callable[[int], bool]] = None,
        input_shape: tuple = MNIST_INPUT_SHAPE,
    ) -> TrainResult:
        """Run (or resume) training per Algorithm 2."""
        trainer = self.trainer(
            network,
            mirror_every=mirror_every,
            crash_resilient=crash_resilient,
            input_shape=input_shape,
        )
        return trainer.train(iterations, kill_hook=kill_hook)
