"""Crash-replayable workloads for the schedule explorer.

A *workload* is a deterministic end-to-end scenario that can be run
fault-free (the **golden** run, executed under a
:class:`~repro.faults.plan.CountingPlan` to enumerate every fault-point
hit) and then replayed under a :class:`~repro.faults.plan.CrashSchedulePlan`
that injects exactly one fault at a chosen ``(site, hit)`` coordinate.
After the fault the workload performs whatever recovery the real system
would (reboot, Romulus recovery, mirror-in, retry) and the replay's
final state is checked against the golden run's.

Three workloads cover the whole instrumented surface:

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

All three machines are deployments on the shared simulated-cluster
substrate (:mod:`repro.cluster`): durable hardware lives on named
:class:`~repro.cluster.host.Host` members, region attach goes through
the hosts' ``open_region``/``format_region`` recovery entry points (the
seam the ``host-reboot-skip-recovery`` mutant breaks), datasets and
tensors cross :class:`~repro.cluster.network.ClusterNetwork` edges, and
a crash is a host power failure.  That puts the ``cluster.host_kill``,
``cluster.partition`` and ``cluster.deliver`` coordinates in every
workload's golden census, so the explorer can kill a host or cut a wire
at any instrumented point of all three scenarios.

Determinism contract: every run builds a fresh machine from fixed seeds,
so the n-th arrival at a fault point is the same program state in the
golden run and in every replay.  Anything nondeterministic (wall-clock,
``os.urandom``, thread scheduling) is excluded by construction — seeded
:class:`~repro.sgx.rand.SgxRandom` IVs, per-iteration batch RNGs, and
serial sealing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.fabric import ServingFabric
from repro.cluster.runtime import Cluster
from repro.core.mirror import MirrorModule
from repro.core.models import build_mnist_cnn
from repro.core.pm_data import PmDataModule
from repro.core.trainer import PliniusTrainer
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import EncryptionEngine
from repro.darknet.data import DataMatrix
from repro.data.mnist import synthetic_mnist, to_data_matrix
from repro.distributed.link import NetworkLink
from repro.distributed.worker import StageWorker
from repro.faults.plan import (
    BaseFaultPlan,
    CountingPlan,
    CrashSchedulePlan,
    FaultSpec,
    InjectedCrash,
    InjectedEcallAbort,
    InjectedLinkDrop,
    installed,
)
from repro.faults.registry import FLIP
from repro.faults import invariants
from repro.obs.recorder import TraceRecorder
from repro.romulus.alloc import PersistentHeap
from repro.romulus.region import HEADER_SIZE, MAGIC
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

#: SSD file holding the sealed data-encryption key.
KEY_FILE = "sealed_key.bin"

#: A replay injects exactly one fault, so legitimate runs need at most
#: one extra boot (plus one more for a fail-stop integrity rejection).
MAX_REBOOTS = 4

#: Bounded retries for the dataset fetch over the cluster wire
#: (reliable transport over a lossy link, like the link workload's).
MAX_FETCH_ATTEMPTS = 4


@dataclass
class GoldenRun:
    """Everything a replay is compared against."""

    hits: Dict[str, int]
    losses: Dict[int, float]
    final_iteration: int
    stored_iteration: int
    params_digest: str
    violations: List[str] = field(default_factory=list)
    #: Flight-recorder snapshot of the golden run (last-N telemetry
    #: events); dumped by the explorer when the golden run itself broke.
    flight: Optional[dict] = None


@dataclass
class ReplayOutcome:
    """Result of one fault-injected replay (or of the golden run)."""

    spec: Optional[FaultSpec] = None
    fired: bool = False
    completed: bool = False
    reboots: int = 0
    integrity_rejections: int = 0
    violations: List[str] = field(default_factory=list)
    losses: Dict[int, float] = field(default_factory=dict)
    final_iteration: int = 0
    stored_iteration: int = 0
    params_digest: str = ""
    #: Flight-recorder snapshot of the replay machine: the bounded tail
    #: of spans/counters/fault events leading up to the final state.
    #: Always captured (the ring is cheap); the explorer attaches it to
    #: a :class:`~repro.faults.explorer.Violation` when invariants broke
    #: so every failure report carries its own black box.
    flight: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _note_fault(machine, spec, event: str) -> None:
    """Stamp an injected-fault delivery into the machine's flight ring.

    The ring entry names the exact ``(site, hit, kind)`` coordinate (or
    the exception class for golden runs, where no spec exists), so a
    violation dump pins which injection preceded the bad state.
    """
    label = spec.describe() if spec is not None else event
    machine.recorder.flight.add("fault", label, machine.clock.now())


def params_digest(network) -> str:
    """Bit-exact digest of every parameter buffer of a network."""
    h = hashlib.sha256()
    for _, (_, array) in network.parameter_buffers():
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class _TrainMachine:
    """Durable hardware plus the run-level bookkeeping of one replay.

    A two-host deployment: the ``trainer`` host owns the PM region and
    the sealed-key SSD; the ``datastore`` host serves the encrypted
    training matrix over a network edge on first load.
    """

    def __init__(self, pm_size: int, server: str, seed: int) -> None:
        self.profile = get_profile(server)
        self.clock = SimClock()
        self.recorder = TraceRecorder()
        self.clock.recorder = self.recorder
        self.cluster = Cluster(self.clock)
        self.host = self.cluster.add_host(
            "trainer", self.profile, pm_size=pm_size, with_ssd=True
        )
        self.cluster.add_host("datastore", self.profile)
        self.cluster.connect("trainer", "datastore")
        self.pm = self.host.pm
        self.ssd = self.host.ssd
        self.rand = SgxRandom(b"faults-train-" + seed.to_bytes(4, "big"))
        self.device_key = hashlib.sha256(
            b"faults-platform-" + seed.to_bytes(4, "big")
        ).digest()[:16]
        # Observed-committed state, for the I6 durability checks.
        self.format_completed = False
        self.data_load_completed = False
        self.last_committed_mirror = 0
        self.losses: Dict[int, float] = {}
        self.final_iteration = 0
        self.stored_iteration = 0
        self.params_digest = ""

    def power_fail(self) -> None:
        self.cluster.power_fail()


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


class TrainWorkload:
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
        self._golden: Optional[GoldenRun] = None
        self._data: Optional[DataMatrix] = None

    # ------------------------------------------------------------------
    def _data_matrix(self) -> DataMatrix:
        if self._data is None:
            images, labels, _, _ = synthetic_mnist(
                n_train=self.rows, n_test=1, seed=self.seed
            )
            self._data = to_data_matrix(images, labels)
        return self._data

    def _network(self):
        net = build_mnist_cnn(
            n_conv_layers=1,
            filters=2,
            batch=self.batch,
            learning_rate=0.1,
            rng=np.random.default_rng(self.seed),
        )
        # Optimizer state (momentum velocities) is volatile by design —
        # the mirror persists only the paper's parameter buffers.  With
        # momentum off, crash+resume is bit-identical to the golden run,
        # which is the equivalence invariant I3 checks.
        net.momentum = 0.0
        return net

    # ------------------------------------------------------------------
    def golden(self) -> GoldenRun:
        """Fault-free run under a counting plan; cached."""
        if self._golden is None:
            plan = CountingPlan()
            outcome = self._run(plan)
            violations = list(outcome.violations)
            if not outcome.completed:
                violations.append("golden run failed to complete")
            if outcome.reboots:
                violations.append(
                    f"golden run rebooted {outcome.reboots} times"
                )
            dups = plan.duplicate_ivs()
            if dups:
                violations.append(
                    f"I5: {len(dups)} AES-GCM IVs reused within one boot"
                )
            self._golden = GoldenRun(
                hits=dict(plan.hits),
                losses=dict(outcome.losses),
                final_iteration=outcome.final_iteration,
                stored_iteration=outcome.stored_iteration,
                params_digest=outcome.params_digest,
                violations=violations,
                flight=outcome.flight,
            )
        return self._golden

    def replay(self, spec: FaultSpec) -> ReplayOutcome:
        """Replay with one injected fault; check invariants vs golden."""
        golden = self.golden()
        plan = CrashSchedulePlan(spec)
        outcome = self._run(plan)
        outcome.spec = spec
        outcome.fired = plan.fired
        v = outcome.violations
        if not plan.fired:
            v.append(
                f"fault {spec.describe()} never fired (golden saw "
                f"{golden.hits.get(spec.site, 0)} hits at this site)"
            )
        dups = plan.duplicate_ivs()
        if dups:
            v.append(f"I5: {len(dups)} AES-GCM IVs reused within one boot")
        if spec.kind == FLIP and plan.fired:
            if outcome.integrity_rejections == 0:
                v.append(
                    "I7: a delivered bit-flip in a sealed record was "
                    "accepted without an IntegrityError"
                )
        if outcome.completed:
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
            if outcome.stored_iteration != golden.stored_iteration:
                v.append(
                    f"I6: final mirror stores iteration "
                    f"{outcome.stored_iteration}, expected "
                    f"{golden.stored_iteration}"
                )
        elif not v:
            v.append("run did not complete yet no violation was recorded")
        return outcome

    # ------------------------------------------------------------------
    def _run(self, plan: BaseFaultPlan) -> ReplayOutcome:
        machine = _TrainMachine(self.pm_size, self.server, self.seed)
        outcome = ReplayOutcome()
        spec = getattr(plan, "spec", None)
        with installed(plan):
            while True:
                plan.mark_boot()
                try:
                    self._boot(machine, outcome.violations)
                    outcome.completed = True
                    break
                except InjectedCrash:
                    _note_fault(machine, spec, "crash")
                except InjectedEcallAbort:
                    _note_fault(machine, spec, "ecall-abort")
                except InjectedLinkDrop:
                    outcome.violations.append(
                        "link drop escaped into the train workload"
                    )
                    break
                except IntegrityError as exc:
                    _note_fault(machine, spec, "integrity-rejection")
                    outcome.integrity_rejections += 1
                    expected = (
                        spec is not None
                        and spec.kind == FLIP
                        and outcome.integrity_rejections == 1
                    )
                    if not expected:
                        outcome.violations.append(
                            "I2: sealed data failed its MAC check after "
                            f"a {spec.kind if spec else 'golden'} fault: "
                            f"{exc}"
                        )
                        break
                    # A transient flip is fail-stop: crash and reboot.
                except Exception as exc:  # noqa: BLE001 — I0 catch-all
                    outcome.violations.append(
                        f"I0: unexpected {type(exc).__name__} escaped the "
                        f"workload: {exc}"
                    )
                    break
                plan.disarm()
                machine.power_fail()
                outcome.reboots += 1
                if outcome.reboots > MAX_REBOOTS:
                    outcome.violations.append(
                        f"machine failed to recover within {MAX_REBOOTS} "
                        "reboots"
                    )
                    break
        outcome.losses = dict(machine.losses)
        outcome.final_iteration = machine.final_iteration
        outcome.stored_iteration = machine.stored_iteration
        outcome.params_digest = machine.params_digest
        outcome.flight = machine.recorder.flight.snapshot()
        return outcome

    # ------------------------------------------------------------------
    def _fetch_dataset(self, m: _TrainMachine) -> DataMatrix:
        """Pull the training matrix from the datastore over the wire.

        Bounded retries model a reliable-transport layer over a lossy
        link, exactly like the link workload's transfer loop; the wire
        key and IV stream are seeded so retransmissions are
        deterministic.
        """
        matrix = self._data_matrix()
        wire_key = hashlib.sha256(
            b"faults-data-key-" + self.seed.to_bytes(4, "big")
        ).digest()[:16]
        engine = EncryptionEngine(
            wire_key,
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

    def _boot(self, m: _TrainMachine, violations: List[str]) -> None:
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

        # Region attach: open-and-recover when the magic is durable,
        # otherwise (re)format.  Formatting is only legal if no prior
        # format completed (I1: a completed format never loses its magic).
        main_size = (m.pm.size - HEADER_SIZE) // 2
        before = m.recorder.counters.get("romulus.recoveries")
        if m.pm.read(0, 8) == MAGIC:
            region = m.host.open_region()
            err = invariants.recovery_count_delta(
                before, m.recorder.counters.get("romulus.recoveries")
            )
            if err:
                violations.append("I4: " + err)
            err = invariants.region_idle_and_twinned(region)
            if err:
                violations.append("I1: " + err)
        else:
            if m.format_completed:
                violations.append(
                    "I1: a formatted region lost its magic after a crash"
                )
            region = m.host.format_region(main_size)
            m.format_completed = True

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

        network = self._network()
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


class _LinkMachine:
    """One stage worker plus its secure link (built fault-free).

    The worker lives on host ``w0``; the link's far end is the ``peer``
    host, so the wire is a real cluster edge with the
    ``cluster.partition``/``cluster.deliver`` coordinates on it.
    """

    def __init__(self, batch: int, seed: int, server: str):
        profile = get_profile(server)
        self.clock = SimClock()
        self.recorder = TraceRecorder()
        self.clock.recorder = self.recorder
        self.cluster = Cluster(self.clock)
        self.host = self.cluster.add_host("w0", profile)
        self.cluster.add_host("peer", profile)
        self.cluster.connect("w0", "peer")
        job_key = hashlib.sha256(
            b"faults-job-" + seed.to_bytes(4, "big")
        ).digest()[:16]
        def builder():
            net = build_mnist_cnn(
                n_conv_layers=1,
                filters=2,
                batch=batch,
                learning_rate=0.1,
                rng=np.random.default_rng(seed),
            )
            # Momentum off for bit-identical kill/resume (see
            # TrainWorkload._network).
            net.momentum = 0.0
            return net
        self.worker = StageWorker(self.host, builder, job_key, seed=seed)
        # A valid mirror exists before any fault can fire, so resume is
        # always well-defined.
        self.worker.mirror_out(0)
        self.link = NetworkLink(
            self.worker.engine, self.cluster.network, "w0", "peer"
        )
        self.committed = 0
        self.integrity_rejections = 0
        self.losses: Dict[int, float] = {}


class LinkWorkload:
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
        self._golden: Optional[GoldenRun] = None

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
    def golden(self) -> GoldenRun:
        if self._golden is None:
            plan = CountingPlan()
            outcome = self._run(plan)
            violations = list(outcome.violations)
            if not outcome.completed:
                violations.append("golden run failed to complete")
            dups = plan.duplicate_ivs()
            if dups:
                violations.append(
                    f"I5: {len(dups)} AES-GCM IVs reused within one boot"
                )
            self._golden = GoldenRun(
                hits=dict(plan.hits),
                losses=dict(outcome.losses),
                final_iteration=outcome.final_iteration,
                stored_iteration=outcome.stored_iteration,
                params_digest=outcome.params_digest,
                violations=violations,
                flight=outcome.flight,
            )
        return self._golden

    def replay(self, spec: FaultSpec) -> ReplayOutcome:
        golden = self.golden()
        plan = CrashSchedulePlan(spec)
        outcome = self._run(plan)
        outcome.spec = spec
        outcome.fired = plan.fired
        v = outcome.violations
        if not plan.fired:
            v.append(
                f"fault {spec.describe()} never fired (golden saw "
                f"{golden.hits.get(spec.site, 0)} hits at this site)"
            )
        if spec.kind == FLIP and plan.fired:
            if outcome.integrity_rejections == 0:
                v.append(
                    "I7: a delivered bit-flip on the wire was accepted "
                    "without an IntegrityError"
                )
        if outcome.completed:
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
            if outcome.stored_iteration != golden.stored_iteration:
                v.append(
                    f"I6: final mirror stores iteration "
                    f"{outcome.stored_iteration}, expected "
                    f"{golden.stored_iteration}"
                )
        elif not v:
            v.append("run did not complete yet no violation was recorded")
        return outcome

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

    def _run(self, plan: BaseFaultPlan) -> ReplayOutcome:
        machine = _LinkMachine(self.batch, self.seed, self.server)
        outcome = ReplayOutcome()
        v = outcome.violations
        spec = getattr(plan, "spec", None)
        step = 0
        with installed(plan):
            plan.mark_boot()
            while step < self.steps and not v:
                try:
                    machine.host.barrier()
                    x = self._input(step)
                    out = machine.worker.forward(x, train=True)
                    loss, _ = machine.worker.loss_and_backward(
                        self._labels(step)
                    )
                    machine.worker.update()
                    # Record the loss before the commit: if the crash
                    # lands mid-transfer the worker resumes *past* this
                    # step and never recomputes it.
                    machine.losses[step] = loss
                    machine.worker.mirror_out(step + 1)
                    machine.committed = step + 1
                    if self._transfer(machine, out, v) is None:
                        break
                    step += 1
                except InjectedCrash:
                    _note_fault(machine, spec, "crash")
                    plan.disarm()
                    try:
                        machine.worker.kill()
                        resumed = machine.worker.resume()
                    except Exception as exc:  # noqa: BLE001
                        v.append(
                            "I0: recovery after a crash failed with "
                            f"{type(exc).__name__}: {exc}"
                        )
                        break
                    outcome.reboots += 1
                    if resumed < machine.committed:
                        v.append(
                            f"I6: worker resumed at iteration {resumed} "
                            f"but iteration {machine.committed} had "
                            "committed"
                        )
                        break
                    step = resumed
                    machine.committed = resumed
                except InjectedLinkDrop:
                    v.append(
                        "link drop escaped the transfer retry loop"
                    )
                    break
                except IntegrityError as exc:
                    _note_fault(machine, spec, "integrity-rejection")
                    outcome.integrity_rejections += 1
                    expected = (
                        spec is not None
                        and spec.kind == FLIP
                        and outcome.integrity_rejections == 1
                    )
                    if not expected:
                        v.append(
                            f"I2: sealed stage state failed its MAC "
                            f"check: {exc}"
                        )
                        break
                    # fail-stop: crash the worker and resume
                    plan.disarm()
                    try:
                        machine.worker.kill()
                        step = machine.worker.resume()
                    except Exception as exc:  # noqa: BLE001
                        v.append(
                            "I0: recovery after a fail-stop failed with "
                            f"{type(exc).__name__}: {exc}"
                        )
                        break
                    machine.committed = step
                    outcome.reboots += 1
                except Exception as exc:  # noqa: BLE001 — I0 catch-all
                    v.append(
                        f"I0: unexpected {type(exc).__name__} escaped the "
                        f"workload: {exc}"
                    )
                    break
            else:
                outcome.completed = not v
        outcome.integrity_rejections += machine.integrity_rejections
        outcome.losses = dict(machine.losses)
        outcome.final_iteration = step
        if outcome.completed:
            outcome.stored_iteration = machine.worker.mirror.stored_iteration()
            outcome.params_digest = params_digest(machine.worker.network)
        outcome.flight = machine.recorder.flight.snapshot()
        return outcome


class _ServeMachine:
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
        self.profile = get_profile(server)
        self.clock = SimClock()
        self.recorder = TraceRecorder()
        self.clock.recorder = self.recorder
        self.cluster = Cluster(self.clock)
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
        self.pm = self.host.pm
        self.rand = SgxRandom(b"faults-serve-" + seed.to_bytes(4, "big"))
        self.engine_key = hashlib.sha256(
            b"faults-serve-key-" + seed.to_bytes(4, "big")
        ).digest()[:16]
        #: Highest model generation observed committed (I6 floor).
        self.last_committed = 0
        #: Delivered sealed responses, keyed by request index.
        self.answered: Dict[int, bytes] = {}
        #: Generation that served each answered request.
        self.served_generation: Dict[int, int] = {}
        #: Highest generation each replica index has served (monotone).
        self.max_gen_served: Dict[int, int] = {}
        self.gateway = None
        self.label_of: Dict[int, int] = {}
        self.stored_iteration = 0
        self.redispatches = 0

    def power_fail(self) -> None:
        self.cluster.power_fail()


class ServeWorkload:
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
        self._golden: Optional[GoldenRun] = None
        self._refs: Optional[Dict[int, Dict[int, bytes]]] = None

    # ------------------------------------------------------------------
    def _network(self, generation: int):
        net = build_mnist_cnn(
            n_conv_layers=1,
            filters=2,
            batch=4,
            learning_rate=0.1,
            rng=np.random.default_rng((self.seed, generation)),
        )
        net.momentum = 0.0
        return net

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
        refs: Dict[int, Dict[int, bytes]] = {}
        for index in range(self.N_REQUESTS):
            sid = self._client_session(index)
            seq = index // self.N_CLIENTS
            refs[index] = {}
            for generation, net in nets.items():
                preds = (
                    net.predict(self._image(index))
                    .argmax(axis=1)
                    .astype(np.int64)
                )
                refs[index][generation] = enclave_side[sid].seal_response(
                    seq, preds.tobytes()
                )
        self._refs = refs
        return refs

    # ------------------------------------------------------------------
    def golden(self) -> GoldenRun:
        if self._golden is None:
            plan = CountingPlan()
            outcome = self._run(plan)
            violations = list(outcome.violations)
            if not outcome.completed:
                violations.append("golden run failed to complete")
            if outcome.reboots:
                violations.append(
                    f"golden run rebooted {outcome.reboots} times"
                )
            dups = plan.duplicate_ivs()
            if dups:
                violations.append(
                    f"I5: {len(dups)} AES-GCM IVs reused within one boot"
                )
            self._golden = GoldenRun(
                hits=dict(plan.hits),
                losses=dict(outcome.losses),
                final_iteration=outcome.final_iteration,
                stored_iteration=outcome.stored_iteration,
                params_digest=outcome.params_digest,
                violations=violations,
                flight=outcome.flight,
            )
        return self._golden

    def replay(self, spec: FaultSpec) -> ReplayOutcome:
        golden = self.golden()
        refs = self._references()
        plan = CrashSchedulePlan(spec)
        outcome = self._run(plan)
        outcome.spec = spec
        outcome.fired = plan.fired
        v = outcome.violations
        if not plan.fired:
            v.append(
                f"fault {spec.describe()} never fired (golden saw "
                f"{golden.hits.get(spec.site, 0)} hits at this site)"
            )
        dups = plan.duplicate_ivs()
        if dups:
            v.append(f"I5: {len(dups)} AES-GCM IVs reused within one boot")
        if spec.kind == FLIP and plan.fired:
            if outcome.integrity_rejections == 0:
                v.append(
                    "I7: a delivered bit-flip in a sealed record was "
                    "accepted without an IntegrityError"
                )
        if outcome.completed:
            answered = outcome.losses  # request index -> response slot
            if outcome.final_iteration != self.N_REQUESTS:
                v.append(
                    f"I3: {outcome.final_iteration} of "
                    f"{self.N_REQUESTS} requests answered"
                )
            for index, sealed in answered.items():
                if sealed not in refs[index].values():
                    v.append(
                        f"I3: response to request {index} matches no "
                        "committed model generation (torn or corrupt "
                        "serving state)"
                    )
            if outcome.stored_iteration != golden.stored_iteration:
                v.append(
                    f"I6: final mirror stores iteration "
                    f"{outcome.stored_iteration}, expected "
                    f"{golden.stored_iteration}"
                )
        elif not v:
            v.append("run did not complete yet no violation was recorded")
        return outcome

    # ------------------------------------------------------------------
    def _run(self, plan: BaseFaultPlan) -> ReplayOutcome:
        machine = _ServeMachine(
            self.pm_size, self.server, self.seed, n_replicas=self.N_REPLICAS
        )
        outcome = ReplayOutcome()
        spec = getattr(plan, "spec", None)
        self._setup(machine)  # fault-free: region + generation-1 mirror
        with installed(plan):
            while True:
                plan.mark_boot()
                try:
                    self._boot(machine, outcome.violations)
                    outcome.completed = not outcome.violations
                    break
                except InjectedCrash:
                    _note_fault(machine, spec, "crash")
                    self._harvest(machine, outcome.violations)
                except InjectedEcallAbort:
                    # An abort the gateway could not absorb: the host
                    # treats it as fatal and power-cycles.
                    _note_fault(machine, spec, "ecall-abort")
                    self._harvest(machine, outcome.violations)
                except InjectedLinkDrop:
                    outcome.violations.append(
                        "link drop escaped into the serve workload"
                    )
                    break
                except IntegrityError as exc:
                    _note_fault(machine, spec, "integrity-rejection")
                    outcome.integrity_rejections += 1
                    expected = (
                        spec is not None
                        and spec.kind == FLIP
                        and outcome.integrity_rejections == 1
                    )
                    if not expected:
                        outcome.violations.append(
                            "I2: sealed data failed its MAC check after "
                            f"a {spec.kind if spec else 'golden'} fault: "
                            f"{exc}"
                        )
                        break
                    # Fail-stop: power-cycle and reboot.
                    self._harvest(machine, outcome.violations)
                except Exception as exc:  # noqa: BLE001 — I0 catch-all
                    outcome.violations.append(
                        f"I0: unexpected {type(exc).__name__} escaped the "
                        f"workload: {exc}"
                    )
                    break
                if outcome.completed or outcome.violations:
                    break
                plan.disarm()
                machine.power_fail()
                outcome.reboots += 1
                if outcome.reboots > MAX_REBOOTS:
                    outcome.violations.append(
                        f"machine failed to recover within {MAX_REBOOTS} "
                        "reboots"
                    )
                    break
        outcome.losses = dict(machine.answered)
        outcome.final_iteration = len(machine.answered)
        outcome.stored_iteration = machine.stored_iteration
        outcome.flight = machine.recorder.flight.snapshot()
        if machine.answered:
            h = hashlib.sha256()
            for index in sorted(machine.answered):
                h.update(machine.answered[index])
            outcome.params_digest = h.hexdigest()
        return outcome

    # ------------------------------------------------------------------
    def _setup(self, m: _ServeMachine) -> None:
        """Fault-free: format the region, commit generation 1."""
        main_size = (m.pm.size - HEADER_SIZE) // 2
        region = m.host.format_region(main_size)
        heap = PersistentHeap(region)
        engine = EncryptionEngine(m.engine_key, rand=m.rand)
        enclave = m.host.spawn_enclave()
        mirror = MirrorModule(region, heap, engine, enclave, m.profile)
        mirror.alloc_mirror_model(self._network(1))
        mirror.mirror_out(self._network(1), 1)
        m.last_committed = 1
        m.stored_iteration = 1

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
            m.served_generation[index] = record.generation
        for batch in result.batches:
            floor = m.max_gen_served.get(batch.replica, 0)
            if batch.generation < floor:
                violations.append(
                    f"replica {batch.replica} served generation "
                    f"{batch.generation} after generation {floor} "
                    "(non-monotone hot reload)"
                )
            m.max_gen_served[batch.replica] = max(floor, batch.generation)
        m.redispatches += result.redispatches
        m.gateway = None

    def _boot(self, m: _ServeMachine, violations: List[str]) -> None:
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

        gateway.run()
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


class _FederatedMachine:
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
        self.clock = self.session.clock
        self.recorder = TraceRecorder()
        self.clock.recorder = self.recorder
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
        self.format_completed = False
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

    def power_fail(self) -> None:
        self.session.cluster.power_fail()


class FederatedWorkload:
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
        self._golden: Optional[GoldenRun] = None

    # ------------------------------------------------------------------
    def golden(self) -> GoldenRun:
        if self._golden is None:
            plan = CountingPlan()
            outcome = self._run(plan)
            violations = list(outcome.violations)
            if not outcome.completed:
                violations.append("golden run failed to complete")
            if outcome.reboots:
                violations.append(
                    f"golden run rebooted {outcome.reboots} times"
                )
            dups = plan.duplicate_ivs()
            if dups:
                violations.append(
                    f"I5: {len(dups)} AES-GCM IVs reused within one boot"
                )
            self._golden = GoldenRun(
                hits=dict(plan.hits),
                losses=dict(outcome.losses),
                final_iteration=outcome.final_iteration,
                stored_iteration=outcome.stored_iteration,
                params_digest=outcome.params_digest,
                violations=violations,
                flight=outcome.flight,
            )
        return self._golden

    def replay(self, spec: FaultSpec) -> ReplayOutcome:
        golden = self.golden()
        plan = CrashSchedulePlan(spec)
        outcome = self._run(plan)
        outcome.spec = spec
        outcome.fired = plan.fired
        v = outcome.violations
        if not plan.fired:
            v.append(
                f"fault {spec.describe()} never fired (golden saw "
                f"{golden.hits.get(spec.site, 0)} hits at this site)"
            )
        dups = plan.duplicate_ivs()
        if dups:
            v.append(f"I5: {len(dups)} AES-GCM IVs reused within one boot")
        if spec.kind == FLIP and plan.fired:
            if outcome.integrity_rejections == 0:
                v.append(
                    "I7: a delivered bit-flip in a sealed record was "
                    "accepted without an IntegrityError"
                )
        if outcome.completed:
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
        elif not v:
            v.append("run did not complete yet no violation was recorded")
        return outcome

    # ------------------------------------------------------------------
    def _run(self, plan: BaseFaultPlan) -> ReplayOutcome:
        machine = _FederatedMachine(self.config)
        machine.session.on_note = machine.on_note
        machine.session.on_ack = machine.on_ack
        outcome = ReplayOutcome()
        spec = getattr(plan, "spec", None)
        with installed(plan):
            while True:
                plan.mark_boot()
                try:
                    self._boot(machine, outcome.violations)
                    machine.harvest()
                    outcome.completed = not outcome.violations
                    break
                except InjectedCrash:
                    _note_fault(machine, spec, "crash")
                    machine.harvest()
                except InjectedEcallAbort:
                    _note_fault(machine, spec, "ecall-abort")
                    machine.harvest()
                except InjectedLinkDrop:
                    outcome.violations.append(
                        "link drop escaped the federation's transport "
                        "retry loops"
                    )
                    break
                except IntegrityError as exc:
                    _note_fault(machine, spec, "integrity-rejection")
                    machine.harvest()
                    machine.integrity_rejections += 1
                    expected = (
                        spec is not None
                        and spec.kind == FLIP
                        and machine.integrity_rejections == 1
                    )
                    if not expected:
                        outcome.violations.append(
                            "I2: sealed data failed its MAC check after "
                            f"a {spec.kind if spec else 'golden'} fault: "
                            f"{exc}"
                        )
                        break
                    # A transient flip is fail-stop: crash and reboot.
                except Exception as exc:  # noqa: BLE001 — I0 catch-all
                    outcome.violations.append(
                        f"I0: unexpected {type(exc).__name__} escaped the "
                        f"workload: {exc}"
                    )
                    break
                if outcome.violations:
                    break
                plan.disarm()
                machine.power_fail()
                outcome.reboots += 1
                if outcome.reboots > MAX_REBOOTS:
                    outcome.violations.append(
                        f"machine failed to recover within {MAX_REBOOTS} "
                        "reboots"
                    )
                    break
        if machine.exclusions:
            marks = sorted(
                (e.round_no, e.client_id, e.reason)
                for e in machine.exclusions
            )
            outcome.violations.append(
                "I10: honest clients were excluded under a single "
                f"injected fault: {marks}"
            )
        outcome.integrity_rejections = machine.integrity_rejections
        outcome.losses = dict(machine.losses)
        outcome.final_iteration = machine.final_round
        outcome.stored_iteration = machine.final_round
        outcome.params_digest = machine.params_digest
        outcome.flight = machine.recorder.flight.snapshot()
        return outcome

    # ------------------------------------------------------------------
    def _boot(self, m: _FederatedMachine, violations: List[str]) -> None:
        """One boot: attach, check I8, resume rounds, audit, finish."""
        session = m.session
        session.cluster.boot()
        session.host.barrier()

        # Region attach with the same I1/I4 discipline as the train
        # workload: recover when the magic is durable, else first-format.
        before = m.recorder.counters.get("romulus.recoveries")
        if session.host.pm.read(0, 8) == MAGIC:
            region = session.host.open_region()
            err = invariants.recovery_count_delta(
                before, m.recorder.counters.get("romulus.recoveries")
            )
            if err:
                violations.append("I4: " + err)
            err = invariants.region_idle_and_twinned(region)
            if err:
                violations.append("I1: " + err)
        else:
            if m.format_completed:
                violations.append(
                    "I1: a formatted region lost its magic after a crash"
                )
            main_size = (session.host.pm.size - HEADER_SIZE) // 2
            region = session.host.format_region(main_size)
            m.format_completed = True

        coordinator = session.boot(region=region)
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


def make_workload(name: str, **kwargs):
    """Workload factory used by the explorer and the CLI."""
    table = {
        "train": TrainWorkload,
        "link": LinkWorkload,
        "serve": ServeWorkload,
        "federated": FederatedWorkload,
    }
    try:
        return table[name](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(table)}"
        ) from None
