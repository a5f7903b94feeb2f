"""The four benchmark workloads, driven through the public API only.

Every workload follows one shape so the runner can treat them alike:

* ``__init__(seed, tiny)`` draws the inputs (data, weights, arrival
  times, crash schedule) from the seed.  The program under test only
  ever sees these generated inputs — never the workload's name.
* ``setup()`` stands the deployment up (the runner times it) and
  ``teardown()`` drops it so set-up can be repeated.
* ``lap(i)`` runs one fixed-size lap.  Work inside ``self.timed()`` is
  on the clock (and, in a traced lap, recorded as spans); everything
  else in a lap — sealing client requests, opening responses, checking
  restored bytes — is the benchmark's own work and is not.
* the first ``min_laps`` laps are the *fixed phase*: a pure function of
  the seed.  ``freeze()`` is called right after it and computes every
  simulated-time metric, loss and digest from those laps alone, so they
  repeat to the last digit however many more laps the time budget buys.
* ``verify()`` runs the output checks against an independent reference
  deployment and returns the number that failed.

Only *shape* arguments are ever passed to the program (sizes, seeds,
server profile, replica/batch policy) — no tuning knobs — so the
numbers are the defaults a user gets.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.models import build_mnist_cnn
from repro.core.serving import InferenceClient
from repro.core.system import PliniusSystem
from repro.crypto.engine import SEAL_OVERHEAD
from repro.data.mnist import synthetic_mnist, to_data_matrix
from repro.federated.session import FederatedSession, FederationConfig
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceGateway,
    ReplicaPool,
)

SERVER = "emlSGX-PM"
_perf = time.perf_counter


@dataclass
class Lap:
    """What one lap did while on the clock."""

    ops: int
    failed: int = 0
    #: Wall milliseconds per op, one sample per op the lap can time on
    #: its own (an iteration, a cycle, a round; for requests, the lap's
    #: mean).  Small samples keep the median clean when the box stalls
    #: for part of a lap.
    op_ms: List[float] = field(default_factory=list)
    recover_ms: List[float] = field(default_factory=list)


class _Section:
    wall = 0.0


class Workload:
    """Common plumbing; see the module docstring for the protocol."""

    name = ""
    #: Span names that start a new unit of work in the trace.
    op_roots: frozenset = frozenset()
    min_laps = 1
    pm_size = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Set by the runner for traced laps; spans record only inside
        #: ``timed()`` sections.
        self.tracer = None
        #: Wall seconds spent inside ``timed()`` sections so far.
        self.timed_total = 0.0
        self.sim: Dict[str, Tuple[float, str]] = {}
        self.extras: Dict[str, Tuple[float, str]] = {}
        self.digests: Dict[str, str] = {}
        self.notes: List[str] = []

    @contextlib.contextmanager
    def timed(self):
        section = _Section()
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        start = _perf()
        try:
            yield section
        finally:
            section.wall = _perf() - start
            self.timed_total += section.wall
            if tracer is not None:
                tracer.enabled = False

    def _kill_schedule(self, tag: int, fixed: int, rate: float):
        """Seed-drawn crash boundaries.  Returns the set drawn for
        boundaries ``1..fixed-1`` (the fixed phase; at least two, so the
        recovery path is always exercised) and ``is_kill(boundary)``,
        which answers from that set and draws every later boundary as
        it is asked, in order.  Boundary 0 is never a kill."""
        rng = np.random.default_rng((self.seed, tag))
        kills = {b for b in range(1, fixed) if rng.random() < rate}
        spare = [b for b in range(1, fixed) if b not in kills]
        while len(kills) < 2 and spare:
            kills.add(spare.pop(len(spare) // 2))

        def is_kill(boundary: int) -> bool:
            if boundary < fixed:
                return boundary in kills
            return bool(rng.random() < rate)

        return kills, is_kill

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def lap(self, index: int) -> Lap:
        raise NotImplementedError

    def freeze(self) -> None:
        raise NotImplementedError

    def baseline(self) -> None:
        """Trace-run only: reference measurements beside the timed laps."""

    def verify(self) -> int:
        raise NotImplementedError


# ----------------------------------------------------------------------
# train_mnist — Algorithm 2 as the paper's user runs it
# ----------------------------------------------------------------------

class TrainMnist(Workload):
    name = "train_mnist"
    op_roots = frozenset({"core.pm_data:fetch"})

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        if tiny:
            self.rows, self.conv, self.filters, self.batch = 128, 2, 4, 16
            self.lap_iters, self.min_laps, self.pm_size = 2, 2, 8 << 20
        else:
            self.rows, self.conv, self.filters, self.batch = 2048, 5, 16, 128
            self.lap_iters, self.min_laps, self.pm_size = 5, 4, 32 << 20
        images, labels, _, _ = synthetic_mnist(
            n_train=self.rows, n_test=1, seed=seed
        )
        self.data = to_data_matrix(images, labels)
        self.fixed_iters = self.lap_iters * self.min_laps
        # A kill before any one iteration with probability 0.3.
        self.kills, self._is_kill = self._kill_schedule(
            1, self.fixed_iters, 0.3
        )

    def _deploy(self):
        system = PliniusSystem.create(
            SERVER, seed=self.seed, pm_size=self.pm_size
        )
        system.load_data(self.data)
        return system, self._build(system)

    def _build(self, system):
        net = system.build_model(
            n_conv_layers=self.conv, filters=self.filters, batch=self.batch
        )
        # Momentum velocity is volatile enclave state the mirror does not
        # hold; with it on, a resumed run legitimately diverges.  Off, the
        # resumed loss sequence is bit-identical — the check below.
        net.momentum = 0.0
        return net

    def setup(self) -> None:
        self.system, self.net = self._deploy()
        warm = build_mnist_cnn(
            n_conv_layers=self.conv, filters=self.filters, batch=self.batch,
            rng=np.random.default_rng(0),
        )
        warm.train_batch(
            self.data.x[: self.batch].reshape(-1, 1, 28, 28),
            self.data.y[: self.batch],
        )
        self.losses: List[float] = []
        self.sim_start = self.system.clock.now()

    def teardown(self) -> None:
        self.system = self.net = None

    def lap(self, index: int) -> Lap:
        stop = (index + 1) * self.lap_iters
        lap = Lap(ops=self.lap_iters)
        resumed_at = -1
        while self.net.iteration < stop:
            stamps: List[float] = []

            def hook(iteration: int) -> bool:
                # The trainer consults the hook before every iteration:
                # the stamps are the per-iteration clock, the verdict is
                # the spot-eviction.
                stamps.append(_perf())
                return iteration != resumed_at and self._is_kill(iteration)

            with self.timed():
                result = self.system.train(
                    self.net, iterations=stop, kill_hook=hook
                )
                if result.completed:
                    stamps.append(_perf())
            lap.op_ms += [
                (b - a) * 1e3 for a, b in zip(stamps, stamps[1:])
            ]
            self.losses += result.log.losses
            if result.completed:
                break
            killed_at = self.net.iteration
            self.system.kill()
            with self.timed() as section:
                self.system.resume()
                self.net = self._build(self.system)
                # A trainer bounded at the mirrored iteration only
                # restores (mirror_in) and runs nothing.
                self.system.trainer(self.net).train(killed_at)
            lap.recover_ms.append(section.wall * 1e3)
            if self.net.iteration != killed_at:
                lap.failed += 1
            resumed_at = killed_at
        return lap

    def freeze(self) -> None:
        fixed = self.losses[: self.fixed_iters]
        sim = self.system.clock.now() - self.sim_start
        self.sim["sim_s_per_op"] = (sim / self.fixed_iters, "sim_s")
        self.extras["e2e.final_loss"] = (fixed[-1], "nats")
        self.digests["losses"] = hashlib.sha256(
            np.asarray(fixed, dtype=np.float64).tobytes()
        ).hexdigest()
        self.notes.append(
            f"kills before iterations {sorted(self.kills)} of the fixed "
            f"{self.fixed_iters}"
        )

    def verify(self) -> int:
        system, net = self._deploy()
        reference = system.train(net, iterations=self.fixed_iters).log.losses
        mismatched = sum(
            a != b for a, b in zip(reference, self.losses[: self.fixed_iters])
        )
        if mismatched:
            self.notes.append(
                f"CHECK FAILED: {mismatched} of {self.fixed_iters} losses "
                "differ from the uninterrupted reference"
            )
        return mismatched


# ----------------------------------------------------------------------
# mirror_large — the Fig. 7 regime, the paper's headline
# ----------------------------------------------------------------------

class MirrorLarge(Workload):
    name = "mirror_large"
    op_roots = frozenset({"core.mirror:out"})

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        if tiny:
            self.layers, base, self.lap_cycles, self.min_laps = 2, 32, 2, 2
        else:
            self.layers, base, self.lap_cycles, self.min_laps = 13, 512, 4, 6
        rng = np.random.default_rng((seed, 2))
        # The model size is an input too: one extra filter moves the
        # footprint by 0.4 %, so sizes (and every simulated figure
        # derived from them) differ between seeds.
        self.filters = base + int(rng.integers(0, 2))
        self.fixed_cycles = self.lap_cycles * self.min_laps
        # One cycle in three restores after a kill rather than into a
        # live enclave (cycles count from 1).
        self.kills, self._is_kill = self._kill_schedule(
            3, self.fixed_cycles + 1, 1.0 / 3
        )

    def setup(self) -> None:
        self.net = build_mnist_cnn(
            n_conv_layers=self.layers, filters=self.filters,
            rng=np.random.default_rng((self.seed, self.layers)),
        )
        buffers = self.net.parameter_buffers()
        sealed = self.net.param_bytes + len(buffers) * SEAL_OVERHEAD
        self.pm_size = 2 * (sealed + (2 << 20)) + 8192
        self.system = PliniusSystem.create(
            SERVER, seed=self.seed, pm_size=self.pm_size
        )
        self.system.enclave.malloc("model", self.net.param_bytes)
        self.system.mirror.alloc_mirror_model(self.net)
        self.flat = [array.reshape(-1) for _, (_, array) in buffers]
        self.sentinels = [flat[:4].copy() for flat in self.flat]
        # Warm-up: the first save touches every page of the PM image.
        self.system.mirror.mirror_out(self.net, 0)
        self.system.mirror.mirror_in(self.net)
        self.cycle = 0
        self.params_digest = ""
        self.sim_total = 0.0
        self.save_sim: List[float] = []
        self.restore_sim: List[float] = []
        self.baseline_failed = 0

    def teardown(self) -> None:
        self.system = self.net = self.flat = None

    def _digest_params(self) -> str:
        digest = hashlib.sha256()
        for flat in self.flat:
            digest.update(flat.view(np.uint8))
        return digest.hexdigest()

    def _scribble(self) -> None:
        """Wipe what the restore must bring back."""
        for flat in self.flat:
            flat[:4] = 0.0
        self.net.iteration = 0

    def _restored(self, iteration: int) -> bool:
        return self.net.iteration == iteration and all(
            np.array_equal(flat[:4], sentinel)
            for flat, sentinel in zip(self.flat, self.sentinels)
        )

    def _cycle(self, lap: Lap) -> None:
        system, net = self.system, self.net
        self.cycle += 1
        clock = system.clock
        with self.timed() as save:
            saved = system.mirror.mirror_out(net, self.cycle)
        self._scribble()
        if self._is_kill(self.cycle):
            system.kill()
            sim0 = clock.now()
            with self.timed() as back:
                system.resume()
                system.enclave.malloc("model", net.param_bytes)
                system.mirror.mirror_in(net)
            lap.recover_ms.append(back.wall * 1e3)
            back_sim = clock.now() - sim0
        else:
            system.pm.drop_caches()
            with self.timed() as back:
                restored = system.mirror.mirror_in(net)
            back_sim = restored.total
            self.restore_sim.append(back_sim)
        if not self._restored(self.cycle):
            lap.failed += 1
        lap.op_ms.append((save.wall + back.wall) * 1e3)
        self.save_sim.append(saved.total)
        self.sim_total += saved.total + back_sim

    def lap(self, index: int) -> Lap:
        if not self.params_digest:  # not in setup(): it is not set-up work
            self.params_digest = self._digest_params()
        lap = Lap(ops=self.lap_cycles)
        for _ in range(self.lap_cycles):
            self._cycle(lap)
        return lap

    def freeze(self) -> None:
        self.sim["sim_s_per_op"] = (self.sim_total / self.fixed_cycles, "sim_s")
        self.fixed_save_sim = statistics.fmean(self.save_sim)
        self.fixed_restore_sim = statistics.fmean(self.restore_sim)
        pm = self.system.pm
        digest = hashlib.sha256()
        for addr in range(0, pm.size, 4 << 20):
            digest.update(pm.durable_read(addr, min(4 << 20, pm.size - addr)))
        self.digests["sealed_mirror"] = digest.hexdigest()
        self.digests["params"] = self.params_digest
        self.notes.append(
            f"{self.net.param_bytes / (1 << 20):.1f} MiB model, "
            f"{len(self.flat)} buffers, {self.filters} filters; kill cycles "
            f"{sorted(self.kills)} of the fixed {self.fixed_cycles}"
        )

    def baseline(self) -> None:
        """One SSD checkpoint save/restore: the paper's comparison point."""
        system, net = self.system, self.net
        with self.timed():
            ssd_save = system.checkpoint.save(net, self.cycle)
        self._scribble()
        with self.timed():
            _, ssd_restore = system.checkpoint.restore(net)
        if not self._restored(self.cycle):
            self.notes.append("CHECK FAILED: SSD checkpoint restore")
            self.baseline_failed = 1
        self.extras["e2e.sim_save_speedup_vs_ssd"] = (
            ssd_save.total / self.fixed_save_sim, "x")
        self.extras["e2e.sim_restore_speedup_vs_ssd"] = (
            ssd_restore.total / self.fixed_restore_sim, "x")

    def verify(self) -> int:
        failed = self.baseline_failed
        if self._digest_params() != self.params_digest:
            self.notes.append(
                "CHECK FAILED: restored parameters differ from the saved ones"
            )
            failed += 1
        return failed


# ----------------------------------------------------------------------
# serve_poisson — open-loop secure inference through the gateway
# ----------------------------------------------------------------------

@dataclass
class _Deployment:
    system: PliniusSystem
    pool: ReplicaPool
    clients: List[InferenceClient]


@dataclass
class _Drive:
    wall: float
    rejected: int
    sealed: List[bytes]  #: sealed responses in request order (b"" if none)
    latencies: List[float]
    unopened: int
    redispatches: int


class ServePoisson(Workload):
    name = "serve_poisson"
    op_roots = frozenset({"core.serving:batch"})
    SWEEP_RATES = (10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 80_000)
    SLO_P99_MS = 5.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.replicas, self.batch_max, self.max_delay = 4, 16, 2e-3
        self.queue_depth, self.n_sessions, self.rate = 256, 2, 30_000.0
        self.pm_size = 8 << 20
        if tiny:
            self.lap_requests, self.min_laps = 256, 2
            self.ref_requests, self.sweep_requests, self.warm = 64, 128, 16
        else:
            self.lap_requests, self.min_laps = 2048, 16
            self.ref_requests, self.sweep_requests, self.warm = 2048, 4096, 64
        self.repair_rng = np.random.default_rng((seed, 4))

    def _inputs(self, tag: int, n: int, rate: float):
        rng = np.random.default_rng((self.seed, 5, tag))
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
        images = rng.random((n, 1, 28, 28), dtype=np.float32)
        return arrivals, images

    def _network(self):
        return build_mnist_cnn(
            n_conv_layers=1, filters=4, batch=self.batch_max,
            rng=np.random.default_rng(self.seed),
        )

    def _deploy(self, replicas: int) -> _Deployment:
        system = PliniusSystem.create(
            SERVER, seed=self.seed, pm_size=self.pm_size
        )
        net = self._network()
        system.mirror.alloc_mirror_model(net)
        system.mirror.mirror_out(net, 1)
        pool = ReplicaPool(
            system.mirror, system.quoting_enclave, system.clock,
            system.profile, self._network, n_replicas=replicas,
        )
        clients = []
        for sid in range(1, self.n_sessions + 1):
            client = InferenceClient(pool.measurement, seed=sid)
            pool.open_session(client, sid)
            clients.append(client)
        return _Deployment(system, pool, clients)

    def _drive(self, dep: _Deployment, arrivals, images, batch_max: int,
               queue_depth: int = 0) -> _Drive:
        """Seal (untimed), submit + drain (timed), open + check (untimed)."""
        n = len(images)
        requests = []
        for i in range(n):
            client = dep.clients[i % len(dep.clients)]
            seq, blob = client.seal_request_seq(images[i : i + 1])
            requests.append((client, client.session_id, seq, blob))
        clock = dep.system.clock
        gateway = InferenceGateway(
            dep.pool, clock,
            BatchPolicy(max_requests=batch_max, max_delay=self.max_delay),
            AdmissionPolicy(max_queue_depth=queue_depth or self.queue_depth),
        )
        due = (clock.now() + arrivals).tolist()
        with self.timed() as section:
            for (_, sid, seq, blob), at in zip(requests, due):
                gateway.submit(sid, seq, blob, 1, at=at)
            result = gateway.run()
        sealed: List[bytes] = []
        unopened = 0
        for rid, (client, _sid, seq, _blob) in enumerate(requests):
            record = result.responses.get(rid)
            if record is None:
                sealed.append(b"")
                continue
            sealed.append(record.sealed)
            try:
                classes = client.open_response_seq(seq, record.sealed)
                ok = len(classes) == 1 and 0 <= int(classes[0]) < 10
            except Exception:  # any failure to open is a failed request
                ok = False
            unopened += not ok
        return _Drive(
            wall=section.wall,
            rejected=len(result.rejected),
            sealed=sealed,
            latencies=result.latencies(),
            unopened=unopened,
            redispatches=result.redispatches,
        )

    def setup(self) -> None:
        self.dep = self._deploy(self.replicas)
        self.warm_inputs = self._inputs(999, self.warm, self.rate)
        self._drive(self.dep, *self.warm_inputs, self.batch_max)
        self.latencies: List[float] = []
        self.rejected = 0
        self.redispatches = 0
        self.requests = 0
        self.first_sealed: List[bytes] = []

    def teardown(self) -> None:
        self.dep = None

    def lap(self, index: int) -> Lap:
        arrivals, images = self._inputs(index, self.lap_requests, self.rate)
        drive = self._drive(self.dep, arrivals, images, self.batch_max)
        lap = Lap(
            ops=self.lap_requests, failed=drive.rejected + drive.unopened,
            op_ms=[drive.wall * 1e3 / self.lap_requests],
        )
        if index < self.min_laps:
            self.latencies += drive.latencies
            self.rejected += drive.rejected
            self.redispatches += drive.redispatches
            self.requests += self.lap_requests
        if index == 0:
            self.first_sealed = drive.sealed[: self.ref_requests]
        # A replica dies between bursts and is respawned from the PM
        # mirror with every session re-provisioned.
        pool = self.dep.pool
        for replica in self.repair_rng.choice(self.replicas, 2, replace=False):
            pool.crash(int(replica))
            with self.timed() as section:
                pool.repair(int(replica))
            lap.recover_ms.append(section.wall * 1e3)
        return lap

    def freeze(self) -> None:
        latencies = np.asarray(self.latencies)
        # Mean latency from due arrival: what one request costs its
        # sender in simulated seconds.  (Replica-busy seconds per
        # request would be the same number for every arrival pattern
        # while batches stay full.)
        self.sim["sim_s_per_op"] = (float(latencies.mean()), "sim_s")
        self.extras["e2e.sim_p50_ms"] = (
            float(np.percentile(latencies, 50)) * 1e3, "sim_ms")
        self.extras["e2e.sim_p99_ms"] = (
            float(np.percentile(latencies, 99)) * 1e3, "sim_ms")
        self.extras["serving.admitted"] = (self.requests - self.rejected, "count")
        self.extras["serving.rejected"] = (self.rejected, "count")
        self.extras["serving.redispatches"] = (self.redispatches, "count")
        digest = hashlib.sha256()
        for blob in self.first_sealed:
            digest.update(blob)
        self.digests["responses"] = digest.hexdigest()
        self.notes.append(
            f"open loop, Poisson arrivals at {self.rate:.0f} sim rps scheduled "
            "in simulated time: generator lateness is 0 by construction; "
            f"{len(latencies)} latency samples"
        )

    def baseline(self) -> None:
        """Sim-only rate sweep (spans off: it is not wall-timed work)."""
        tracer, self.tracer = self.tracer, None
        best = 0
        for k, rate in enumerate(self.SWEEP_RATES):
            arrivals, images = self._inputs(1000 + k, self.sweep_requests, rate)
            drive = self._drive(self.dep, arrivals, images, self.batch_max)
            p99 = float(np.percentile(drive.latencies, 99)) * 1e3
            met = drive.rejected == 0 and drive.unopened == 0 and (
                p99 <= self.SLO_P99_MS
            )
            self.notes.append(
                f"sweep {rate} sim rps: p99 {p99:.3f} sim ms, "
                f"{drive.rejected} rejected -> {'meets' if met else 'misses'} "
                f"the {self.SLO_P99_MS} ms limit"
            )
            if met:
                best = rate
        self.extras["e2e.sim_max_rate_under_slo_rps"] = (best, "sim_rps")
        self.tracer = tracer

    def verify(self) -> int:
        """Same requests through one replica at batch 1: same bytes.

        One replica at batch 1 cannot keep up with the nominal rate, so
        the reference queue is deep enough never to reject."""
        reference = self._deploy(1)
        self._drive(reference, *self.warm_inputs, 1)
        arrivals, images = self._inputs(0, self.lap_requests, self.rate)
        drive = self._drive(
            reference, arrivals[: self.ref_requests],
            images[: self.ref_requests], 1, queue_depth=self.ref_requests,
        )
        differing = sum(
            a != b for a, b in zip(drive.sealed, self.first_sealed)
        ) + abs(len(drive.sealed) - len(self.first_sealed))
        if differing:
            self.notes.append(
                f"CHECK FAILED: {differing} of {self.ref_requests} sealed "
                "responses differ from the batch-1 single-replica reference"
            )
        return differing


# ----------------------------------------------------------------------
# fed_rounds — attested federated rounds with aggregator power failures
# ----------------------------------------------------------------------

class FedRounds(Workload):
    name = "fed_rounds"
    op_roots = frozenset({"federated:round"})

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        if tiny:
            self.clients, self.rounds, self.min_laps = 3, 6, 2
            self.pm_size = 1 << 20
        else:
            # 48 rounds: the ledger holds 64.
            self.clients, self.rounds, self.min_laps = 8, 48, 4
            self.pm_size = 4 << 20

    def _crashes(self, lap: int) -> set:
        rng = np.random.default_rng((self.seed, 6, lap))
        crashes = {
            r for r in range(1, self.rounds) if rng.random() < 1.0 / 16
        }
        return crashes or {int(rng.integers(1, self.rounds))}

    def _start(self, lap: int, clients: int, rounds: int):
        config = FederationConfig(
            n_clients=clients, rounds=rounds, pm_size=self.pm_size,
            seed=(self.seed * 7919 + lap) % (1 << 31),
        )
        session = FederatedSession(config)
        session.cluster.boot()
        session.host.barrier()
        return session, session.boot()

    def _round(self, session, coordinator, round_no: int):
        session.host.barrier()
        return coordinator.run_round(round_no)

    def setup(self) -> None:
        warm, coordinator = self._start(10_000, 2, 2)
        for round_no in (1, 2):
            self._round(warm, coordinator, round_no)
        self.session, self.coordinator = self._start(0, self.clients, self.rounds)
        self.sim_total = 0.0
        self.losses: List[float] = []
        self.excluded = 0
        self.audit_failed = 0

    def teardown(self) -> None:
        self.session = self.coordinator = None

    def lap(self, index: int) -> Lap:
        if index == 0:
            session, coordinator = self.session, self.coordinator
        else:
            session, coordinator = self._start(index, self.clients, self.rounds)
        crashes = self._crashes(index)
        clock = session.clock
        lap = Lap(ops=self.rounds)
        sim = 0.0
        result = None
        for round_no in range(1, self.rounds + 1):
            sim0 = clock.now()
            with self.timed() as section:
                result = self._round(session, coordinator, round_no)
            lap.op_ms.append(section.wall * 1e3)
            self.excluded += len(result.excluded)
            if round_no in crashes:
                session.host.power_fail()
                with self.timed() as section:
                    session.cluster.boot()
                    coordinator = session.boot()
                lap.recover_ms.append(section.wall * 1e3)
                if coordinator.ledger.committed_round() != round_no:
                    lap.failed += 1
                gc.collect()  # the dead boot's enclaves, sessions, models
            sim += clock.now() - sim0
        lap.failed += self.rounds - session.ledger.committed_round()
        if index < self.min_laps:
            self.sim_total += sim
            final = [v for per in result.losses.values() for v in per]
            self.losses.append(statistics.fmean(final))
        if index == 0:
            self.digests["merged_params"] = hashlib.sha256(
                coordinator.params.tobytes()
            ).hexdigest()
            self.audit_failed = self._audit(coordinator)
            self.notes.append(
                f"aggregator power failures after rounds {sorted(crashes)} "
                "of the first session"
            )
        return lap

    def freeze(self) -> None:
        self.sim["sim_s_per_op"] = (
            self.sim_total / (self.min_laps * self.rounds), "sim_s")
        self.extras["e2e.final_loss"] = (statistics.fmean(self.losses), "nats")
        self.extras["federated.excluded"] = (self.excluded, "count")

    def _audit(self, coordinator) -> int:
        """Every client of the last round checks its inclusion proof."""
        failed = 0
        for cid in range(self.clients):
            found = coordinator.proof_for(self.rounds, cid)
            if found is None or not coordinator.audit(self.rounds, cid, *found):
                self.notes.append(
                    f"CHECK FAILED: audit of client {cid}, round {self.rounds}"
                )
                failed += 1
        return failed

    def verify(self) -> int:
        failed = self.audit_failed
        session, coordinator = self._start(0, self.clients, self.rounds)
        for round_no in range(1, self.rounds + 1):
            self._round(session, coordinator, round_no)
        digest = hashlib.sha256(coordinator.params.tobytes()).hexdigest()
        if digest != self.digests["merged_params"]:
            self.notes.append(
                "CHECK FAILED: merged parameters differ from the no-crash run"
            )
            failed += 1
        return failed


WORKLOADS = {
    cls.name: cls for cls in (TrainMnist, MirrorLarge, ServePoisson, FedRounds)
}
