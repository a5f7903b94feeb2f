"""The crash-replayable scenarios, on the one workload protocol.

:mod:`repro.faults.protocol` owns the golden run, the single-fault
replay and the reboot loop; each scenario here supplies only its
build / boot / on-fault / observe / compare hooks.  Four workloads cover
the whole instrumented surface:

* :class:`TrainWorkload` — the single-machine Plinius stack: sealed-key
  provisioning over SSD + sgx sealing ecalls, Romulus region format/
  open, encrypted dataset load into PM, and mirrored SGD training.
  Exercises the ``pm.*``, ``ssd.*``, ``romulus.*``, ``sgx.*`` and
  ``crypto.*`` sites.
* :class:`LinkWorkload` — one stage worker training against a secure
  inter-enclave link, with per-step mirroring and kill/resume recovery.
  Exercises the ``link.*`` and ``distributed.worker.*`` sites.
* :class:`ServeWorkload` — the replicated inference gateway serving
  sealed requests across a mid-run hot model reload.  Exercises the
  ``serve.*`` sites (plus the ``crypto.*``/``pm.*``/``romulus.*`` hits
  of in-band sealing and the generation-2 mirror commit).
* :class:`FederatedWorkload` — attested clients training FedAvg rounds
  whose Merkle roots and sealed merged parameters commit to the
  aggregator's PM.  Exercises the ``fed.*`` sites.

All four machines are deployments on the shared simulated-cluster
substrate (:mod:`repro.cluster`): durable hardware lives on named
:class:`~repro.cluster.host.Host` members, region attach goes through
the hosts' ``open_region``/``format_region`` recovery entry points (the
seam the ``host-reboot-skip-recovery`` mutant breaks), datasets and
tensors cross :class:`~repro.cluster.network.ClusterNetwork` edges, and
a crash is a host power failure.  That puts the ``cluster.host_kill``,
``cluster.partition`` and ``cluster.deliver`` coordinates in every
workload's golden census, so the explorer can kill a host or cut a wire
at any instrumented point of all four scenarios.

A new workload is one :class:`~repro.faults.protocol.Workload` subclass
plus one line in :data:`WORKLOADS`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.fabric import ServingFabric
from repro.core.mirror import MirrorModule
from repro.core.models import build_mnist_cnn
from repro.core.pm_data import PmDataModule
from repro.core.trainer import PliniusTrainer
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import EncryptionEngine
from repro.darknet.arena import TensorArena
from repro.darknet.data import DataMatrix
from repro.data.mnist import synthetic_mnist, to_data_matrix
from repro.distributed.link import NetworkLink
from repro.distributed.worker import StageWorker
from repro.faults import invariants
from repro.faults.plan import InjectedLinkDrop
from repro.faults.protocol import (
    GoldenRun,
    Machine,
    ReplayOutcome,
    Workload,
    params_digest,
)
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import HEADER_SIZE
from repro.sgx.ecall import EnclaveRuntime
from repro.sgx.enclave import Enclave
# repro: noqa[SEC002] -- the fault workloads assemble a full secure
# machine exactly like the core facade does; they are explorer
# infrastructure, not trusted code.
from repro.sgx.rand import SgxRandom
# repro: noqa[SEC002] -- same rationale: workload assembly, not enclave code.
from repro.sgx.sealing import SealedBlob, seal_data, unseal_data
from repro.simtime.clock import SimClock
from repro.simtime.profiles import get_profile

__all__ = [
    "WORKLOADS",
    "make_workload",
    "TrainWorkload",
    "LinkWorkload",
    "ServeWorkload",
    "FederatedWorkload",
    "GoldenRun",
    "ReplayOutcome",
    "params_digest",
]

#: SSD file holding the sealed data-encryption key.
KEY_FILE = "sealed_key.bin"

#: Bounded retries for the dataset fetch over the cluster wire
#: (reliable transport over a lossy link, like the link workload's).
MAX_FETCH_ATTEMPTS = 4


def _seeded_key(tag: bytes, seed: int) -> bytes:
    return hashlib.sha256(tag + seed.to_bytes(4, "big")).digest()[:16]


def _network(batch: int, rng_seed):
    """The 1-conv / 2-filter MNIST CNN every scenario trains or serves."""
    net = build_mnist_cnn(
        n_conv_layers=1,
        filters=2,
        batch=batch,
        rng=np.random.default_rng(rng_seed),
    )
    # Optimizer state (momentum velocities) is volatile by design —
    # the mirror persists only the paper's parameter buffers.  With
    # momentum off, crash+resume is bit-identical to the golden run,
    # which is the equivalence invariant I3 checks.
    net.momentum = 0.0
    return net


def _compare_stored_iteration(
    golden: ReplayOutcome, outcome: ReplayOutcome, v: List[str]
) -> None:
    if outcome.stored_iteration != golden.stored_iteration:
        v.append(
            f"I6: final mirror stores iteration "
            f"{outcome.stored_iteration}, expected "
            f"{golden.stored_iteration}"
        )


class _TrainMachine(Machine):
    """Durable hardware plus the run-level bookkeeping of one replay.

    A two-host deployment: the ``trainer`` host owns the PM region and
    the sealed-key SSD; the ``datastore`` host serves the encrypted
    training matrix over a network edge on first load.
    """

    def __init__(self, pm_size: int, server: str, seed: int) -> None:
        super().__init__()
        self.profile = get_profile(server)
        self.host = self.cluster.add_host(
            "trainer", self.profile, pm_size=pm_size, with_ssd=True
        )
        self.cluster.add_host("datastore", self.profile)
        self.cluster.connect("trainer", "datastore")
        self.ssd = self.host.ssd
        self.rand = SgxRandom(b"faults-train-" + seed.to_bytes(4, "big"))
        self.device_key = _seeded_key(b"faults-platform-", seed)
        # Observed-committed state, for the I6 durability checks.
        self.data_load_completed = False
        self.last_committed_mirror = 0
        self.losses: Dict[int, float] = {}
        self.final_iteration = 0
        self.stored_iteration = 0
        self.params_digest = ""


class _TrackedMirror(MirrorModule):
    """Mirror that records which iterations were durably committed."""

    machine: Optional[_TrainMachine] = None

    def mirror_out(self, network, iteration):
        timing = super().mirror_out(network, iteration)
        # Only reached when the transaction committed: the iteration is
        # now durable and must survive any later crash (invariant I6).
        if self.machine is not None:
            self.machine.last_committed_mirror = iteration
        return timing


class TrainWorkload(Workload):
    """Single-machine Plinius training under fault injection."""

    name = "train"

    def __init__(
        self,
        server: str = "emlSGX-PM",
        iterations: int = 3,
        rows: int = 48,
        batch: int = 8,
        pm_size: int = 1 << 20,
        seed: int = 1234,
    ) -> None:
        self.server = server
        self.iterations = iterations
        self.rows = rows
        self.batch = batch
        self.pm_size = pm_size
        self.seed = seed
        self._data: Optional[DataMatrix] = None

    # ------------------------------------------------------------------
    def _data_matrix(self) -> DataMatrix:
        if self._data is None:
            images, labels, _, _ = synthetic_mnist(
                n_train=self.rows, n_test=1, seed=self.seed
            )
            self._data = to_data_matrix(images, labels)
        return self._data

    # ------------------------------------------------------------------
    def build(self) -> _TrainMachine:
        return _TrainMachine(self.pm_size, self.server, self.seed)

    def observe(self, m: _TrainMachine, outcome: ReplayOutcome) -> None:
        outcome.losses = dict(m.losses)
        outcome.final_iteration = m.final_iteration
        outcome.stored_iteration = m.stored_iteration
        outcome.params_digest = m.params_digest

    def compare(
        self, golden: ReplayOutcome, outcome: ReplayOutcome, v: List[str]
    ) -> None:
        for it, loss in outcome.losses.items():
            if it in golden.losses and golden.losses[it] != loss:
                v.append(
                    f"I3: loss at iteration {it} diverged: golden "
                    f"{golden.losses[it]!r} vs resumed {loss!r}"
                )
        if outcome.final_iteration != golden.final_iteration:
            v.append(
                f"I3: reached iteration {outcome.final_iteration}, "
                f"golden reached {golden.final_iteration}"
            )
        if outcome.params_digest != golden.params_digest:
            v.append(
                "I3: final model parameters diverged from the "
                "uninterrupted run"
            )
        _compare_stored_iteration(golden, outcome, v)

    # ------------------------------------------------------------------
    def _fetch_dataset(self, m: _TrainMachine) -> DataMatrix:
        """Pull the training matrix from the datastore over the wire.

        Bounded retries model a reliable-transport layer over a lossy
        link, exactly like the link workload's transfer loop; the wire
        key and IV stream are seeded so retransmissions are
        deterministic.
        """
        matrix = self._data_matrix()
        engine = EncryptionEngine(
            _seeded_key(b"faults-data-key-", self.seed),
            rand=SgxRandom(b"faults-data-" + self.seed.to_bytes(4, "big")),
            observer=m.recorder,
        )
        link = NetworkLink(engine, m.cluster.network, "datastore", "trainer")
        for _ in range(MAX_FETCH_ATTEMPTS):
            try:
                x = link.transfer(matrix.x)
                y = link.transfer(matrix.y)
            except InjectedLinkDrop:
                continue
            return DataMatrix(x, y)
        raise RuntimeError(
            f"dataset fetch failed after {MAX_FETCH_ATTEMPTS} attempts"
        )

    def boot(self, m: _TrainMachine, violations: List[str]) -> None:
        """One boot: provision key, attach region, train to target."""
        m.cluster.boot()
        m.host.barrier()
        enclave = m.host.spawn_enclave()
        runtime = EnclaveRuntime(enclave)
        runtime.register_ecall(
            "seal_key",
            lambda key: seal_data(enclave, key, m.device_key, m.rand),
        )
        runtime.register_ecall(
            "unseal_key",
            lambda blob: unseal_data(enclave, blob, m.device_key),
        )
        runtime.register_ocall(
            "persist_key",
            lambda payload: (
                m.ssd.write(KEY_FILE, 0, payload),
                m.ssd.fsync(KEY_FILE),
            ),
        )

        # Key provisioning: unseal from SSD if durable, else generate.
        # A crash between write and fsync leaves a truncated file, which
        # the size check treats as absent (regenerate and re-persist).
        min_size = 32 + 16 + 28  # measurement + sealed 16-byte key
        if m.ssd.exists(KEY_FILE) and m.ssd.file_size(KEY_FILE) >= min_size:
            payload = m.ssd.read_all(KEY_FILE)
            blob = SealedBlob(measurement=payload[:32], sealed=payload[32:])
            key = runtime.ecall("unseal_key", blob)
        else:
            key = EncryptionEngine.generate_key(m.rand)
            blob = runtime.ecall("seal_key", key)
            runtime.ocall("persist_key", blob.measurement + blob.sealed)
        engine = EncryptionEngine(key, rand=m.rand, observer=m.recorder)

        region = m.attach_region(violations)
        heap = PersistentHeap(region)
        pm_data = PmDataModule(region, heap, engine, enclave, m.profile)
        if pm_data.exists():
            pass  # dataset survived the crash, as it must
        else:
            if m.data_load_completed:
                violations.append(
                    "I6: the loaded training dataset vanished after a crash"
                )
            pm_data.load(self._fetch_dataset(m), encrypted=True)
            m.data_load_completed = True

        mirror = _TrackedMirror(region, heap, engine, enclave, m.profile)
        mirror.machine = m
        if mirror.has_snapshot():
            stored = mirror.stored_iteration()
            if stored < m.last_committed_mirror:
                violations.append(
                    f"I6: mirror regressed to iteration {stored} after a "
                    f"crash (iteration {m.last_committed_mirror} had "
                    "committed)"
                )
        elif m.last_committed_mirror > 0:
            violations.append(
                "I6: a committed mirror vanished after a crash"
            )

        network = _network(self.batch, self.seed)
        trainer = PliniusTrainer(
            network,
            mirror,
            pm_data,
            enclave,
            m.profile,
            m.clock,
            input_shape=(1, 28, 28),
            mirror_every=1,
            batch_seed=2 * self.seed + 1,
        )
        result = trainer.train(self.iterations)
        for it, loss in zip(result.log.iterations, result.log.losses):
            m.losses[it] = loss
        m.final_iteration = result.final_iteration
        m.stored_iteration = mirror.stored_iteration()
        m.params_digest = params_digest(network)


class _LinkMachine(Machine):
    """One stage worker plus its secure link (built fault-free).

    The worker lives on host ``w0``; the link's far end is the ``peer``
    host, so the wire is a real cluster edge with the
    ``cluster.partition``/``cluster.deliver`` coordinates on it.
    """

    def __init__(self, batch: int, seed: int, server: str):
        super().__init__()
        profile = get_profile(server)
        self.host = self.cluster.add_host("w0", profile)
        self.cluster.add_host("peer", profile)
        self.cluster.connect("w0", "peer")
        self.worker = StageWorker(
            self.host,
            lambda: _network(batch, seed),
            _seeded_key(b"faults-job-", seed),
            seed=seed,
        )
        # A valid mirror exists before any fault can fire, so resume is
        # always well-defined.
        self.worker.mirror_out(0)
        self.link = NetworkLink(
            self.worker.engine, self.cluster.network, "w0", "peer"
        )
        self.step = 0
        self.committed = 0
        self.integrity_rejections = 0
        self.losses: Dict[int, float] = {}

    def power_fail(self) -> None:
        self.worker.kill()


class LinkWorkload(Workload):
    """Distributed stage worker + secure link under fault injection.

    The fault plan is armed only around the steady-state step loop; the
    worker is constructed fault-free so golden hits and replay hits
    line up from the same starting state.  A crash is the worker's host
    dying (enclave destroyed, PM power-failed — also reachable via the
    ``cluster.host_kill`` barrier at each step top); recovery is host
    ``kill()``/``resume()`` — reboot plus Romulus recovery from the
    host's PM — and the step loop re-runs from the mirrored iteration.
    Link faults (drops, flips, partitions) are retried a bounded number
    of times, modelling a reliable-transport layer over a lossy wire.
    """

    name = "link"

    MAX_SEND_ATTEMPTS = 4

    def __init__(
        self,
        server: str = "emlSGX-PM",
        steps: int = 3,
        batch: int = 4,
        seed: int = 99,
    ) -> None:
        self.server = server
        self.steps = steps
        self.batch = batch
        self.seed = seed

    # ------------------------------------------------------------------
    def _input(self, step: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, step))
        return rng.random((self.batch, 1, 28, 28), dtype=np.float32)

    def _labels(self, step: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, step, 1))
        y = np.zeros((self.batch, 10), dtype=np.float32)
        y[np.arange(self.batch), rng.integers(0, 10, self.batch)] = 1.0
        return y

    # ------------------------------------------------------------------
    def build(self) -> _LinkMachine:
        return _LinkMachine(self.batch, self.seed, self.server)

    def observe(self, m: _LinkMachine, outcome: ReplayOutcome) -> None:
        outcome.integrity_rejections += m.integrity_rejections
        outcome.losses = dict(m.losses)
        outcome.final_iteration = m.step
        if outcome.completed:
            outcome.stored_iteration = m.worker.mirror.stored_iteration()
            outcome.params_digest = params_digest(m.worker.network)

    def compare(
        self, golden: ReplayOutcome, outcome: ReplayOutcome, v: List[str]
    ) -> None:
        for step, loss in golden.losses.items():
            if outcome.losses.get(step) != loss:
                v.append(
                    f"I3: loss at step {step} diverged: golden "
                    f"{loss!r} vs {outcome.losses.get(step)!r}"
                )
        if outcome.params_digest != golden.params_digest:
            v.append(
                "I3: final stage parameters diverged from the "
                "uninterrupted run"
            )
        _compare_stored_iteration(golden, outcome, v)

    # ------------------------------------------------------------------
    def _transfer(self, m: _LinkMachine, out, violations) -> Optional[bytes]:
        """Send + receive with bounded retries over a lossy wire."""
        for _ in range(self.MAX_SEND_ATTEMPTS):
            try:
                message = m.link.send_array(out)
            except InjectedLinkDrop:
                continue
            try:
                received = m.link.receive_array(message)
            except InjectedLinkDrop:
                continue
            except IntegrityError:
                m.integrity_rejections += 1
                if m.integrity_rejections > 1:
                    violations.append(
                        "I7: a transient wire flip caused repeated "
                        "integrity failures"
                    )
                    return None
                continue
            if not np.array_equal(received, out):
                violations.append(
                    "I2: the link delivered a tensor different from the "
                    "one sent"
                )
            return received
        violations.append(
            f"link transfer failed after {self.MAX_SEND_ATTEMPTS} attempts"
        )
        return None

    def boot(self, m: _LinkMachine, violations: List[str]) -> None:
        """One boot: resume a killed worker from PM, step to the end."""
        if not m.host.alive:
            resumed = m.worker.resume()
            if resumed < m.committed:
                violations.append(
                    f"I6: worker resumed at iteration {resumed} "
                    f"but iteration {m.committed} had "
                    "committed"
                )
                return
            m.step = m.committed = resumed
        while m.step < self.steps and not violations:
            m.host.barrier()
            x = self._input(m.step)
            out = m.worker.forward(x)
            loss, _ = m.worker.loss_and_backward(self._labels(m.step))
            m.worker.update()
            # Record the loss before the commit: if the crash
            # lands mid-transfer the worker resumes *past* this
            # step and never recomputes it.
            m.losses[m.step] = loss
            m.worker.mirror_out(m.step + 1)
            m.committed = m.step + 1
            if self._transfer(m, out, violations) is None:
                return
            m.step += 1


class _ServeMachine(Machine):
    """Durable state of one serving deployment across replay reboots.

    A cluster of one ``gateway`` host (owning the PM device with the
    Romulus region and the encrypted model mirror) plus the replica
    hosts behind a :class:`~repro.cluster.fabric.ServingFabric`.  PM and
    the sim clock survive a crash; enclaves, the replica pool, the
    gateway, the event loop, and client session state are volatile and
    are rebuilt by every boot.
    """

    def __init__(
        self, pm_size: int, server: str, seed: int, n_replicas: int = 2
    ) -> None:
        super().__init__()
        self.profile = get_profile(server)
        self.host = self.cluster.add_host(
            "gateway", self.profile, pm_size=pm_size
        )
        replica_hosts = []
        for i in range(n_replicas):
            name = f"replica-{i}"
            self.cluster.add_host(name, self.profile)
            replica_hosts.append(name)
        self.fabric = ServingFabric(
            self.cluster, "gateway", tuple(replica_hosts)
        )
        self.rand = SgxRandom(b"faults-serve-" + seed.to_bytes(4, "big"))
        self.engine_key = _seeded_key(b"faults-serve-key-", seed)
        #: Highest model generation observed committed (I6 floor).
        self.last_committed = 0
        #: Delivered sealed responses, keyed by request index.
        self.answered: Dict[int, bytes] = {}
        #: Highest generation each replica index has served (monotone).
        self.max_gen_served: Dict[int, int] = {}
        self.gateway = None
        self.label_of: Dict[int, int] = {}
        self.stored_iteration = 0


class ServeWorkload(Workload):
    """The replicated inference gateway under fault injection.

    The scenario: a mirror holding model generation 1 is committed
    fault-free; the armed phase stands up a 2-replica pool, opens two
    client sessions, streams 8 sealed requests through the gateway, and
    — mid-run — commits generation 2 to the mirror and publishes it, so
    replicas hot-reload between batches.  A ``serve.dispatch`` ABORT, a
    ``cluster.partition`` cut on the dispatch edge, and a
    ``cluster.deliver`` drop of a completion notification are all
    absorbed by the gateway's exactly-once redispatch; every CRASH kind
    (a replica dying, or host death via the per-event
    ``cluster.host_kill`` barrier) is a power failure: the boot loop
    rebuilds the volatile tier from PM, re-establishes the same
    deterministic sessions, and resubmits only the unanswered requests.

    Invariants checked against the golden run: every request is
    answered exactly once; each sealed response is byte-identical to
    the reference sealing under one of the *committed* generations
    (never a torn mix — replica weight digests must match a committed
    generation exactly); per-replica served generations are monotone;
    the mirror never regresses (I6); in-boot IVs stay unique (I5); a
    delivered bit-flip is rejected, fail-stop (I7).
    """

    name = "serve"

    N_REQUESTS = 8
    N_REPLICAS = 2
    N_CLIENTS = 2
    BATCH_MAX = 4
    #: Sim seconds between request arrivals.
    ARRIVAL_GAP = 2e-4
    #: Sim time of the generation-2 commit + publish.
    UPDATE_AT = 5e-4

    def __init__(
        self,
        server: str = "emlSGX-PM",
        pm_size: int = 1 << 20,
        seed: int = 7777,
    ) -> None:
        self.server = server
        self.pm_size = pm_size
        self.seed = seed
        self._refs: Optional[Dict[int, Dict[int, bytes]]] = None

    # ------------------------------------------------------------------
    def _network(self, generation: int):
        return _network(4, (self.seed, generation))

    def _image(self, index: int) -> np.ndarray:
        rng = np.random.default_rng((self.seed, 100 + index))
        return rng.random((1, 1, 28, 28), dtype=np.float32)

    @staticmethod
    def _client_session(index: int) -> int:
        """Request ``index`` rides session ``1 + index % N_CLIENTS``."""
        return 1 + index % ServeWorkload.N_CLIENTS

    # ------------------------------------------------------------------
    def _references(self) -> Dict[int, Dict[int, bytes]]:
        """Per-request sealed reference responses under each generation.

        Session keys are deterministic (both DH sides draw from seeded
        DRNGs), so the exact sealed bytes a replica must produce are
        computable offline for generation 1 and generation 2 weights.
        """
        if self._refs is not None:
            return self._refs
        from repro.sgx.attestation import (
            QuotingEnclave,
            establish_mux_session,
        )

        profile = get_profile(self.server)
        enclave = Enclave(SimClock(), profile.sgx)
        qe = QuotingEnclave(b"serve-platform")
        enclave_side = {}
        for sid in range(1, self.N_CLIENTS + 1):
            _, enclave_session = establish_mux_session(
                enclave,
                qe,
                expected_measurement=enclave.measurement,
                rand_enclave=SgxRandom(
                    b"svc-sess-" + sid.to_bytes(8, "big")
                ),
                rand_owner=SgxRandom(b"client-" + sid.to_bytes(4, "big")),
                session_id=sid,
            )
            enclave_side[sid] = enclave_session
        nets = {1: self._network(1), 2: self._network(2)}
        arena = TensorArena()
        refs: Dict[int, Dict[int, bytes]] = {}
        for index in range(self.N_REQUESTS):
            sid = self._client_session(index)
            seq = index // self.N_CLIENTS
            refs[index] = {}
            for generation, net in nets.items():
                preds = (
                    net.infer(self._image(index), arena)
                    .argmax(axis=1)
                    .astype(np.int64)
                )
                refs[index][generation] = enclave_side[sid].seal_response(
                    seq, preds.tobytes()
                )
        self._refs = refs
        return refs

    # ------------------------------------------------------------------
    def build(self) -> _ServeMachine:
        """Fault-free: format the region, commit generation 1."""
        m = _ServeMachine(
            self.pm_size, self.server, self.seed, n_replicas=self.N_REPLICAS
        )
        region = m.host.format_region((m.host.pm.size - HEADER_SIZE) // 2)
        heap = PersistentHeap(region)
        engine = EncryptionEngine(m.engine_key, rand=m.rand)
        enclave = m.host.spawn_enclave()
        mirror = MirrorModule(region, heap, engine, enclave, m.profile)
        mirror.alloc_mirror_model(self._network(1))
        mirror.mirror_out(self._network(1), 1)
        m.last_committed = 1
        m.stored_iteration = 1
        return m

    def observe(self, m: _ServeMachine, outcome: ReplayOutcome) -> None:
        outcome.losses = dict(m.answered)  # request index -> response slot
        outcome.final_iteration = len(m.answered)
        outcome.stored_iteration = m.stored_iteration
        if m.answered:
            h = hashlib.sha256()
            for index in sorted(m.answered):
                h.update(m.answered[index])
            outcome.params_digest = h.hexdigest()

    def compare(
        self, golden: ReplayOutcome, outcome: ReplayOutcome, v: List[str]
    ) -> None:
        refs = self._references()
        if outcome.final_iteration != self.N_REQUESTS:
            v.append(
                f"I3: {outcome.final_iteration} of "
                f"{self.N_REQUESTS} requests answered"
            )
        for index, sealed in outcome.losses.items():
            if sealed not in refs[index].values():
                v.append(
                    f"I3: response to request {index} matches no "
                    "committed model generation (torn or corrupt "
                    "serving state)"
                )
        _compare_stored_iteration(golden, outcome, v)

    # ------------------------------------------------------------------
    def _harvest(self, m: _ServeMachine, violations: List[str]) -> None:
        """Fold one boot's delivered responses into the durable record."""
        if m.gateway is None:
            return
        result = m.gateway.result
        for rid, record in result.responses.items():
            index = m.label_of[rid]
            if index in m.answered:
                violations.append(
                    f"request {index} was answered twice (exactly-once "
                    "redispatch violated)"
                )
                continue
            m.answered[index] = record.sealed
        for batch in result.batches:
            floor = m.max_gen_served.get(batch.replica, 0)
            if batch.generation < floor:
                violations.append(
                    f"replica {batch.replica} served generation "
                    f"{batch.generation} after generation {floor} "
                    "(non-monotone hot reload)"
                )
            m.max_gen_served[batch.replica] = max(floor, batch.generation)
        m.gateway = None

    on_fault = _harvest

    def boot(self, m: _ServeMachine, violations: List[str]) -> None:
        """One boot: rebuild the volatile tier, serve what's unanswered."""
        from repro.core.serving import InferenceClient
        from repro.serving import (
            AdmissionPolicy,
            BatchPolicy,
            InferenceGateway,
            ReplicaPool,
        )
        from repro.sgx.attestation import QuotingEnclave

        loop = m.cluster.boot()
        m.host.barrier()
        region = m.host.open_region()
        heap = PersistentHeap(region)
        engine = EncryptionEngine(m.engine_key, rand=m.rand)
        enclave = m.host.spawn_enclave()
        mirror = MirrorModule(region, heap, engine, enclave, m.profile)
        stored = mirror.stored_iteration()
        if stored < m.last_committed:
            violations.append(
                f"I6: mirror regressed to generation {stored} after a "
                f"crash (generation {m.last_committed} had committed)"
            )
            return
        qe = QuotingEnclave(b"serve-platform")
        pool = ReplicaPool(
            mirror,
            qe,
            m.clock,
            m.profile,
            lambda: self._network(1),
            n_replicas=self.N_REPLICAS,
        )
        gateway = InferenceGateway(
            pool,
            m.clock,
            BatchPolicy(max_requests=self.BATCH_MAX, max_delay=1e-3),
            AdmissionPolicy(max_queue_depth=64),
            loop=loop,
            fabric=m.fabric,
        )
        m.gateway = gateway
        m.label_of = {}

        clients = {}
        for sid in range(1, self.N_CLIENTS + 1):
            client = InferenceClient(pool.measurement, seed=sid)
            pool.open_session(client, sid)
            clients[sid] = client

        base = m.clock.now()
        for index in range(self.N_REQUESTS):
            sid = self._client_session(index)
            # Seal every request (fresh clients restart their seq
            # streams, so the bytes are boot-independent) but submit
            # only the ones still unanswered.
            seq, sealed = clients[sid].seal_request_seq(self._image(index))
            if index in m.answered:
                continue
            rid = gateway.submit(
                sid, seq, sealed, 1, at=base + index * self.ARRIVAL_GAP
            )
            m.label_of[rid] = index

        if mirror.stored_iteration() < 2:
            net2 = self._network(2)

            def update() -> None:
                mirror.mirror_out(net2, 2)
                m.last_committed = 2
                pool.publish_generation()

            gateway.schedule_call(base + self.UPDATE_AT, update)
        # A generation-2 mirror that committed before a crash must still
        # be published to the rebuilt pool (spawn already adopted it).

        refused = gateway.run().refused
        if refused:
            # The gateway refuses a tampered request alone and serves the
            # rest; the scenario stays fail-stop on it (I7): the boot
            # fails, and the next one resubmits what is unanswered.
            raise next(iter(refused.values()))
        self._harvest(m, violations)
        m.stored_iteration = mirror.stored_iteration()

        # Torn-mix check: every live replica's weights must be exactly
        # one committed generation's weights.
        digests = {
            params_digest(self._network(1)): 1,
            params_digest(self._network(2)): 2,
        }
        for replica in pool.healthy_replicas():
            digest = params_digest(replica.network)
            generation = digests.get(digest)
            if generation is None:
                violations.append(
                    f"replica {replica.index} serves weights matching no "
                    "committed generation (torn reload)"
                )
            elif generation != replica.generation:
                violations.append(
                    f"replica {replica.index} labels its weights "
                    f"generation {replica.generation} but they are "
                    f"generation {generation}'s"
                )


class _FederatedMachine(Machine):
    """Durable state of one federation across replay reboots.

    The :class:`~repro.federated.session.FederatedSession` *is* the
    durable half (cluster, PM, seeds, shards); this wrapper adds the
    run-level bookkeeping the invariants compare: what was
    acknowledged, every noted round observation, and the harvested
    integrity-rejection count.
    """

    def __init__(self, config) -> None:
        from repro.federated.session import FederatedSession

        self.session = FederatedSession(config)
        super().__init__(self.session.cluster)
        self.host = self.session.host
        self.session.on_note = self.on_note
        self.session.on_ack = self.on_ack
        #: Highest round any boot acknowledged (the I8 floor).
        self.acked_round = 0
        #: Noted per-step losses, key = round*1000 + client*100 + step.
        #: Recorded *before* the round's commit (see coordinator
        #: ``on_note``) so a crash between commit and ack loses nothing.
        self.losses: Dict[int, float] = {}
        #: Noted Merkle roots per round.
        self.roots: Dict[int, bytes] = {}
        #: Every exclusion any boot recorded (should stay empty under a
        #: single injected fault — invariant I10).
        self.exclusions: set = set()
        self.final_round = 0
        self.params_digest = ""
        self.integrity_rejections = 0

    def on_note(self, result) -> None:
        for cid, step_losses in result.losses.items():
            for step, loss in enumerate(step_losses):
                self.losses[result.round_no * 1000 + cid * 100 + step] = loss
        self.roots[result.round_no] = result.root
        self.exclusions.update(result.excluded)

    def on_ack(self, result) -> None:
        self.acked_round = max(self.acked_round, result.round_no)

    def harvest(self) -> None:
        """Fold the (volatile) coordinator's rejection count in."""
        coordinator = self.session.coordinator
        if coordinator is not None:
            self.integrity_rejections += coordinator.integrity_rejections
            coordinator.integrity_rejections = 0
            self.exclusions.update(coordinator.evidence)


class FederatedWorkload(Workload):
    """Federated secure training under fault injection.

    Three attested clients train two FedAvg rounds against the
    aggregator host; every round's Merkle root + sealed merged
    parameters commit to the aggregator's PM before the round is
    acknowledged.  A crash at any coordinate power-fails the whole
    deployment; the boot loop re-attaches the region (I1/I4), compares
    the durable ledger tip against what was acknowledged (I8), resumes
    from the committed round, and at the end every participant audits
    its inclusion proof for every committed round (I10).  Completed
    replays must match the golden run's per-step losses, per-round
    roots, and merged parameters bit-for-bit (I9), with zero honest
    exclusions.
    """

    name = "federated"

    def __init__(
        self,
        server: str = "emlSGX-PM",
        n_clients: int = 3,
        rounds: int = 2,
        local_steps: int = 2,
        batch: int = 4,
        rows_per_client: int = 8,
        pm_size: int = 1 << 20,
        seed: int = 4242,
    ) -> None:
        from repro.federated.session import FederationConfig

        self.rounds = rounds
        self.config = FederationConfig(
            n_clients=n_clients,
            rounds=rounds,
            local_steps=local_steps,
            batch=batch,
            rows_per_client=rows_per_client,
            server=server,
            pm_size=pm_size,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def build(self) -> _FederatedMachine:
        return _FederatedMachine(self.config)

    def on_fault(self, m: _FederatedMachine, violations: List[str]) -> None:
        m.harvest()

    def observe(self, m: _FederatedMachine, outcome: ReplayOutcome) -> None:
        m.harvest()
        if m.exclusions:
            marks = sorted(
                (e.round_no, e.client_id, e.reason) for e in m.exclusions
            )
            outcome.violations.append(
                "I10: honest clients were excluded under a single "
                f"injected fault: {marks}"
            )
        outcome.integrity_rejections += m.integrity_rejections
        outcome.losses = dict(m.losses)
        outcome.final_iteration = m.final_round
        outcome.stored_iteration = m.final_round
        outcome.params_digest = m.params_digest

    def compare(
        self, golden: ReplayOutcome, outcome: ReplayOutcome, v: List[str]
    ) -> None:
        err = invariants.losses_equivalent(golden.losses, outcome.losses)
        if err:
            v.append("I9: " + err)
        if outcome.final_iteration != golden.final_iteration:
            v.append(
                f"I9: finished at committed round "
                f"{outcome.final_iteration}, golden committed "
                f"{golden.final_iteration}"
            )
        if outcome.params_digest != golden.params_digest:
            v.append(
                "I9: merged parameters or round roots diverged from "
                "the uninterrupted federation"
            )

    # ------------------------------------------------------------------
    def boot(self, m: _FederatedMachine, violations: List[str]) -> None:
        """One boot: attach, check I8, resume rounds, audit, finish."""
        session = m.session
        session.cluster.boot()
        session.host.barrier()

        coordinator = session.boot(region=m.attach_region(violations))
        committed = coordinator.ledger.committed_round()
        err = invariants.committed_round_monotone(m.acked_round, committed)
        if err:
            violations.append("I8: " + err)
            return

        for round_no in range(committed + 1, self.rounds + 1):
            session.host.barrier()
            # A crash after note-but-before-commit re-runs the round; it
            # must reproduce the exact root the interrupted attempt saw.
            noted_root = m.roots.get(round_no)
            result = coordinator.run_round(round_no)
            if noted_root is not None and noted_root != result.root:
                violations.append(
                    f"I9: round {round_no} re-committed a different "
                    "Merkle root after recovery"
                )

        # Every participant audits its inclusion for every committed
        # round — proofs are rebuilt from the durable leaf blobs, so
        # this also covers rounds committed by earlier boots.
        for round_no in range(1, self.rounds + 1):
            blob_root = coordinator.ledger.root_of(round_no)
            if blob_root is None:
                violations.append(
                    f"I8: round {round_no} missing from the ledger after "
                    "the federation finished"
                )
                continue
            noted = m.roots.get(round_no)
            if noted is not None and noted != blob_root:
                violations.append(
                    f"I9: durable root of round {round_no} differs from "
                    "the root observed at commit time"
                )
            for cid in sorted(session.clients):
                found = coordinator.proof_for(round_no, cid)
                if found is None:
                    violations.append(
                        f"I10: no inclusion proof for client {cid} in "
                        f"committed round {round_no}"
                    )
                    continue
                payload, proof = found
                if not coordinator.audit(round_no, cid, payload, proof):
                    violations.append(
                        f"I10: inclusion proof for client {cid} round "
                        f"{round_no} failed verification against the "
                        "durable root"
                    )

        m.final_round = coordinator.ledger.committed_round()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(coordinator.params).tobytes())
        for round_no in range(1, m.final_round + 1):
            digest.update(coordinator.ledger.root_of(round_no) or b"")
        m.params_digest = digest.hexdigest()


#: The one workload registry: the explorer's default, the CLI's
#: ``--workload`` choices and ``repro.faults``'s lazy exports read it.
WORKLOADS = {
    cls.name: cls
    for cls in (TrainWorkload, LinkWorkload, ServeWorkload, FederatedWorkload)
}


def make_workload(name: str, **kwargs):
    """Workload factory used by the explorer and the CLI."""
    try:
        return WORKLOADS[name](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
