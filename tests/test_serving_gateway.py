"""The replicated inference gateway: crash, reload, and soak tests.

The contracts under test:

* a batch whose dispatch aborts (or whose replica dies mid-flight) is
  redispatched exactly once, and the redispatched responses are
  byte-identical to the fault-free run's — clients cannot observe which
  replica answered, or that a retry happened at all;
* hot model reload is atomic per replica: served generations are
  monotone per replica even with spot-style kill/resume racing the
  trainer's mirror commits, and a serving replica's weights always
  match exactly one committed generation (never a torn mix);
* the scheduler is deterministic: two same-seed runs emit identical
  sim-time traces and counter totals;
* admission control bounds the queue and accounts for every request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import build_mnist_cnn
from repro.core.serving import InferenceClient
from repro.core.system import PliniusSystem
from repro.faults.plan import CrashSchedulePlan, FaultSpec, installed
from repro.faults.workload import params_digest
from repro.obs import TraceRecorder
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceGateway,
    ReplicaPool,
)

N_CLIENTS = 2


def _factory(seed: int = 5):
    def build():
        return build_mnist_cnn(
            n_conv_layers=1, filters=2, batch=4,
            rng=np.random.default_rng(seed),
        )

    return build


def deployment(
    n_replicas: int = 2,
    batch_max: int = 4,
    max_delay: float = 1e-3,
    max_queue_depth: int = 64,
    seed: int = 5,
    recorder: TraceRecorder = None,
):
    """A served deployment: mirror at generation 1, pool, gateway."""
    system = PliniusSystem.create(
        server="emlSGX-PM", seed=seed, pm_size=4 << 20, recorder=recorder
    )
    factory = _factory(seed)
    net = factory()
    system.mirror.alloc_mirror_model(net)
    system.mirror.mirror_out(net, 1)
    pool = ReplicaPool(
        system.mirror,
        system.quoting_enclave,
        system.clock,
        system.profile,
        factory,
        n_replicas=n_replicas,
    )
    gateway = InferenceGateway(
        pool,
        system.clock,
        BatchPolicy(max_requests=batch_max, max_delay=max_delay),
        AdmissionPolicy(max_queue_depth=max_queue_depth),
    )
    clients = {}
    for sid in range(1, N_CLIENTS + 1):
        client = InferenceClient(pool.measurement, seed=sid)
        pool.open_session(client, sid)
        clients[sid] = client
    return system, pool, gateway, clients


def _images(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random(
        (n, 1, 28, 28), dtype=np.float32
    )


def submit_all(gateway, clients, images, gap: float = 2e-4):
    """Submit one single-sample request per image; returns rid -> index."""
    base = gateway.clock.now()
    labels = {}
    for index in range(len(images)):
        client = clients[1 + index % N_CLIENTS]
        seq, sealed = client.seal_request_seq(images[index : index + 1])
        rid = gateway.submit(
            client.session_id, seq, sealed, 1, at=base + index * gap
        )
        labels[rid] = index
    return labels


def sealed_by_index(result, labels):
    return {
        labels[rid]: record.sealed
        for rid, record in result.responses.items()
    }


class TestExactlyOnceRedispatch:
    def test_abort_mid_dispatch_redispatched_once(self):
        images = _images(8)
        _, _, gw_ref, clients_ref = deployment()
        labels_ref = submit_all(gw_ref, clients_ref, images)
        reference = sealed_by_index(gw_ref.run(), labels_ref)

        _, _, gateway, clients = deployment()
        labels = submit_all(gateway, clients, images)
        plan = CrashSchedulePlan(FaultSpec("serve.dispatch", 1, "abort"))
        with installed(plan):
            result = gateway.run()
        assert plan.fired
        assert result.redispatches == 1
        assert sealed_by_index(result, labels) == reference

    def test_replica_crash_mid_batch_redispatched_once(self):
        images = _images(8)
        _, _, gw_ref, clients_ref = deployment()
        labels_ref = submit_all(gw_ref, clients_ref, images)
        ref_result = gw_ref.run()
        reference = sealed_by_index(ref_result, labels_ref)
        # Kill replica 0 while its first batch is in flight.
        batch0 = ref_result.batches[0]
        assert batch0.completed_at > batch0.dispatched_at
        kill_at = (batch0.dispatched_at + batch0.completed_at) / 2

        _, _, gateway, clients = deployment()
        labels = submit_all(gateway, clients, images)
        gateway.schedule_crash(kill_at, batch0.replica)
        gateway.schedule_repair(kill_at + 5e-3, batch0.replica)
        result = gateway.run()
        assert result.redispatches == 1
        # Exactly once: every request answered, bytes identical to the
        # fault-free run — the retry is invisible to clients.
        assert sealed_by_index(result, labels) == reference
        # The dead incarnation's completion must have been discarded,
        # not double-delivered (the gateway raises on duplicates).
        assert len(result.responses) == len(images)

    def test_drain_fails_loudly_with_all_replicas_dead(self):
        _, _, gateway, clients = deployment(n_replicas=2)
        submit_all(gateway, clients, _images(4))
        gateway.schedule_crash(0.0, 0)
        gateway.schedule_crash(0.0, 1)
        with pytest.raises(RuntimeError, match="still queued"):
            gateway.run()


class TestHotReload:
    def _generation_nets(self, seed=5):
        return {
            1: params_digest(_factory(seed)()),
            2: params_digest(_factory(seed + 1)()),
            3: params_digest(_factory(seed + 2)()),
        }

    def test_reload_swaps_between_batches_and_is_monotone(self):
        system, pool, gateway, clients = deployment(
            n_replicas=2, batch_max=2
        )
        images = _images(12)
        submit_all(gateway, clients, images, gap=5e-4)
        net2 = _factory(6)()

        def publish_gen2():
            system.mirror.mirror_out(net2, 2)
            pool.publish_generation()

        gateway.schedule_call(gateway.clock.now() + 1e-3, publish_gen2)
        result = gateway.run()
        generations = [b.generation for b in result.batches]
        assert set(generations) == {1, 2}  # the swap happened mid-run
        by_replica = {}
        for batch in result.batches:
            log = by_replica.setdefault(batch.replica, [])
            log.append(batch.generation)
        for replica, log in by_replica.items():
            assert log == sorted(log), (
                f"replica {replica} served non-monotone generations {log}"
            )

    def test_spot_kills_racing_reloads_never_serve_torn_weights(self):
        """Kill/resume times from a spot-market trace race two mirror
        commits; replicas must always serve exactly one committed
        generation's weights."""
        system, pool, gateway, clients = deployment(
            n_replicas=2, batch_max=2
        )
        digests = self._generation_nets()
        images = _images(16)
        submit_all(gateway, clients, images, gap=1e-3)
        base = gateway.clock.now()

        # A spot-shaped kill/resume schedule for replica 1, one entry
        # per interval: each up->down edge is a crash and each
        # down->up edge its repair, at the end of the interval.  The
        # two outages (2-6 ms, 8-12 ms) each straddle one publish.
        mask = (True, False, False, True, False, False, True, True)
        interval = 2e-3
        for i, (up, up_next) in enumerate(zip(mask, mask[1:])):
            at = base + (i + 1) * interval
            if up and not up_next:
                gateway.schedule_crash(at, 1)
            elif not up and up_next:
                gateway.schedule_repair(at, 1)
        for generation, offset in ((2, 3e-3), (3, 9e-3)):
            net = _factory(5 + generation - 1)()

            def publish(net=net, generation=generation):
                system.mirror.mirror_out(net, generation)
                pool.publish_generation()

            gateway.schedule_call(base + offset, publish)

        result = gateway.run()
        assert len(result.responses) == len(images)
        for batch in result.batches:
            assert batch.generation in (1, 2, 3)
        by_replica = {}
        for batch in result.batches:
            by_replica.setdefault(batch.replica, []).append(batch.generation)
        for replica, log in by_replica.items():
            assert log == sorted(log)
        # No torn mix: live replicas' weights match exactly the
        # generation they claim to serve.
        for replica in pool.healthy_replicas():
            assert digests[replica.generation] == params_digest(
                replica.network
            )


class TestDeterminism:
    def _traced_run(self):
        recorder = TraceRecorder()
        system, pool, gateway, clients = deployment(recorder=recorder)
        images = _images(8)
        labels = submit_all(gateway, clients, images)
        net2 = _factory(6)()

        def publish():
            system.mirror.mirror_out(net2, 2)
            pool.publish_generation()

        gateway.schedule_call(gateway.clock.now() + 1e-3, publish)
        result = gateway.run()
        return recorder, sealed_by_index(result, labels)

    def test_same_seed_identical_traces_and_sealed_bytes(self):
        rec_a, sealed_a = self._traced_run()
        rec_b, sealed_b = self._traced_run()
        assert sealed_a == sealed_b
        assert rec_a.sim_view() == rec_b.sim_view()
        assert rec_a.counters.snapshot() == rec_b.counters.snapshot()

    def test_serve_counters_and_spans_emitted(self):
        recorder, sealed = self._traced_run()
        counters = recorder.counters.snapshot()
        assert counters["serve.requests"] == len(sealed)
        assert counters["serve.responses"] == len(sealed)
        assert counters["serve.dispatched"] == len(sealed)
        assert counters["serve.batches"] >= 2
        lanes = {
            s.sim_lane
            for s in recorder.spans
            if s.name == "serve.batch"
        }
        assert lanes and all(lane >= 200 for lane in lanes)


class TestAdmissionControl:
    def test_backpressure_rejects_beyond_queue_depth(self):
        _, _, gateway, clients = deployment(
            n_replicas=1, batch_max=2, max_queue_depth=4
        )
        # A burst: all 12 requests arrive before the first batch can
        # drain, so the queue cap must reject some.
        labels = submit_all(gateway, clients, _images(12), gap=1e-6)
        result = gateway.run()
        assert result.rejected
        assert len(result.responses) + len(result.rejected) == 12
        # Rejected requests get no response record.
        answered = set(result.responses)
        assert answered.isdisjoint(result.rejected)
        assert gateway.admission.rejected == len(result.rejected)

    def test_stats_aggregate_across_replicas(self):
        _, pool, gateway, clients = deployment(n_replicas=2)
        submit_all(gateway, clients, _images(8))
        gateway.run()
        totals = [r.service.stats for r in pool.replicas]
        assert sum(s.requests for s in totals) == 8
        assert sum(s.samples for s in totals) == 8
        assert sum(s.batches for s in totals) == len(gateway.result.batches)
