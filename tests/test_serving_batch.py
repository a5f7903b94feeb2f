"""The served batch as the unit of work, held to request-at-a-time.

``SecureInferenceService.handle_batch`` opens and seals a batch through
``MuxRecords.open_requests`` / ``seal_responses``: with no trace
context, no fault plan and no engine observer on, each session's AEAD
is called directly and its engine's stats are booked once per batch;
otherwise every record takes the traced single-record path.  These
tests hold both paths to serving the same requests one at a time:

* a two-session batch with mixed ``n_samples`` gives the same sealed
  responses, ``engine.stats``, ``crypto.*`` counters and per-request
  span trees untraced, traced, and one request per call;
* under a fault plan the ``crypto.*`` site hits are the ones
  request-at-a-time makes, and a FLIP at ``crypto.unseal`` refuses the
  same request with an ``IntegrityError`` and serves the rest;
* a bad request (flipped byte, unknown session, bad size) is refused
  alone by the gateway, recorded in ``GatewayResult.refused`` and
  counted as ``serve.refused``, and every other response is
  byte-identical to a drain without it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.models import build_mnist_cnn
from repro.core.serving import InferenceClient
from repro.core.system import PliniusSystem
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import SEAL_OVERHEAD
from repro.faults.plan import FLIP, CountingPlan, CrashSchedulePlan, FaultSpec, installed
from repro.obs import TraceRecorder
from repro.serving import AdmissionPolicy, BatchPolicy, InferenceGateway, ReplicaPool

#: ``(session, n_samples)`` of each request of the mixed batch.
MIXED = ((1, 1), (2, 3), (1, 2), (2, 1), (2, 2), (1, 1))
CRYPTO_COUNTERS = (
    "crypto.seals", "crypto.unseals", "crypto.bytes_sealed", "crypto.bytes_unsealed",
)


def _factory():
    return build_mnist_cnn(
        n_conv_layers=1, filters=2, batch=4, rng=np.random.default_rng(5)
    )


def _deploy(recorder=None, n_replicas=1):
    system = PliniusSystem.create(
        server="emlSGX-PM", seed=5, pm_size=4 << 20, recorder=recorder
    )
    net = _factory()
    system.mirror.alloc_mirror_model(net)
    system.mirror.mirror_out(net, 1)
    pool = ReplicaPool(
        system.mirror, system.quoting_enclave, system.clock, system.profile,
        _factory, n_replicas=n_replicas,
    )
    clients = {}
    for sid in (1, 2):
        clients[sid] = InferenceClient(pool.measurement, seed=sid)
        pool.open_session(clients[sid], sid)
    return system, pool, clients


def _mixed_items(clients):
    images = np.random.default_rng(3).random((10, 1, 28, 28), dtype=np.float32)
    items, start = [], 0
    for sid, n in MIXED:
        seq, sealed = clients[sid].seal_request_seq(images[start : start + n])
        items.append((sid, seq, sealed))
        start += n
    return items


def _serve(batched: bool, traced: bool = False):
    """Serve the mixed batch on a fresh deployment; returns what it
    produced and what it booked."""
    recorder = TraceRecorder() if traced else None
    _, pool, clients = _deploy(recorder)
    service = pool.replicas[0].service
    items = _mixed_items(clients)
    traces = None
    if traced:
        before = {name: recorder.counters.get(name) for name in CRYPTO_COUNTERS}
        traces = [
            recorder.begin("serve.enclave", 0.0, category="serve", parent=None,
                           trace_id=i)
            for i in range(len(items))
        ]
    if batched:
        responses = service.handle_batch(items, traces=traces)
    else:
        responses = [
            service.handle_batch([item], None if traces is None else [span])[0]
            for item, span in zip(items, traces or [None] * len(items))
        ]
    stats = {sid: dict(service._sessions[sid].engine.stats) for sid in (1, 2)}
    served = {
        "responses": responses,
        "stats": stats,
        "service": (service.stats.requests, service.stats.samples),
    }
    if traced:
        served["counters"] = {
            name: recorder.counters.get(name) - before[name]
            for name in CRYPTO_COUNTERS
        }
        served["trees"] = Counter(
            (span.trace_id, span.name) for span in recorder.spans
            if span.name.startswith(("sgx.session.", "crypto."))
        )
    return served


class TestBatchMatchesRequestAtATime:
    def test_untraced_traced_and_one_at_a_time_agree(self):
        untraced = _serve(batched=True)
        one_by_one = _serve(batched=False)
        traced = _serve(batched=True, traced=True)
        traced_one_by_one = _serve(batched=False, traced=True)
        assert all(isinstance(r, bytes) for r in untraced["responses"])
        for other in (one_by_one, traced, traced_one_by_one):
            assert other["responses"] == untraced["responses"]
            assert other["stats"] == untraced["stats"]
            assert other["service"] == untraced["service"] == (len(MIXED), 10)
        # One open and one seal per request, booked at batch granularity
        # on the direct path and per record on the traced one.
        assert untraced["stats"][1]["unseals"] == 3
        assert untraced["stats"][2]["seals"] == 3
        assert traced["counters"] == traced_one_by_one["counters"]
        assert traced["counters"]["crypto.unseals"] == len(MIXED)
        assert traced["trees"] == traced_one_by_one["trees"]
        for i in range(len(MIXED)):
            for name in ("sgx.session.open", "sgx.session.seal",
                         "crypto.unseal", "crypto.seal"):
                assert traced["trees"][(i, name)] == 1

    def test_responses_open_to_each_requests_predictions(self):
        _, pool, clients = _deploy()
        service = pool.replicas[0].service
        items = _mixed_items(clients)
        responses = service.handle_batch(items)
        for (sid, seq, _), (_, n), sealed in zip(items, MIXED, responses):
            assert len(clients[sid].open_response_seq(seq, sealed)) == n

    def test_fault_plan_sees_the_request_at_a_time_site_hits(self):
        hits = []
        for batched in (True, False):
            _, pool, clients = _deploy()
            service = pool.replicas[0].service
            items = _mixed_items(clients)
            plan = CountingPlan()
            with installed(plan):
                if batched:
                    service.handle_batch(items)
                else:
                    for item in items:
                        service.handle_batch([item])
            hits.append(dict(plan.hits))
        assert hits[0] == hits[1]
        assert hits[0]["crypto.unseal"] == hits[0]["crypto.seal"] == len(MIXED)

    @pytest.mark.parametrize("hit", [1, 3, len(MIXED)])
    def test_flip_at_unseal_refuses_the_same_request(self, hit):
        runs = []
        for batched in (True, False):
            _, pool, clients = _deploy()
            service = pool.replicas[0].service
            items = _mixed_items(clients)
            plan = CrashSchedulePlan(FaultSpec("crypto.unseal", hit, FLIP, bit=9))
            with installed(plan):
                if batched:
                    out = service.handle_batch(items)
                else:
                    out = [service.handle_batch([item])[0] for item in items]
            assert plan.fired
            runs.append((out, dict(plan.hits)))
        (batch_out, batch_hits), (single_out, single_hits) = runs
        assert batch_hits == single_hits
        assert isinstance(batch_out[hit - 1], IntegrityError)
        assert isinstance(single_out[hit - 1], IntegrityError)
        assert [r for i, r in enumerate(batch_out) if i != hit - 1] == [
            r for i, r in enumerate(single_out) if i != hit - 1
        ]


# ----------------------------------------------------------------------
# The gateway refuses a bad request alone
# ----------------------------------------------------------------------
N_REQUESTS = 32
BAD = 5


def _drain(corrupt=None, skip_bad=False, recorder=None):
    """32 single-sample requests over two sessions through a 2-replica
    gateway; ``corrupt(sid, seq, sealed)`` rewrites request ``BAD``."""
    system, pool, clients = _deploy(recorder, n_replicas=2)
    gateway = InferenceGateway(
        pool, system.clock, BatchPolicy(max_requests=8, max_delay=1e-3),
        AdmissionPolicy(max_queue_depth=64),
    )
    images = np.random.default_rng(7).random(
        (N_REQUESTS, 1, 28, 28), dtype=np.float32
    )
    base = system.clock.now()
    labels = {}
    for index in range(N_REQUESTS):
        sid = 1 + index % 2
        seq, sealed = clients[sid].seal_request_seq(images[index : index + 1])
        if index == BAD:
            if skip_bad:
                continue
            sid, seq, sealed = corrupt(sid, seq, sealed)
        rid = gateway.submit(sid, seq, sealed, 1, at=base + index * 2e-4)
        labels[rid] = index
    result = gateway.run()
    by_index = {labels[rid]: r.sealed for rid, r in result.responses.items()}
    refused = {labels[rid]: error for rid, error in result.refused.items()}
    return by_index, refused


def _flip_byte_20(sid, seq, sealed):
    wire = bytearray(sealed)
    wire[20] ^= 0xFF
    return sid, seq, bytes(wire)


@pytest.mark.parametrize(
    "corrupt, error",
    [
        (_flip_byte_20, IntegrityError),
        (lambda sid, seq, sealed: (9, seq, sealed), KeyError),
        (lambda sid, seq, sealed: (sid, seq, sealed[:-4]), ValueError),
    ],
    ids=["flipped-byte", "unknown-session", "bad-size"],
)
def test_gateway_refuses_one_bad_request_and_serves_the_rest(corrupt, error):
    reference, none_refused = _drain(skip_bad=True)
    assert none_refused == {} and len(reference) == N_REQUESTS - 1
    recorder = TraceRecorder()
    served, refused = _drain(corrupt, recorder=recorder)
    assert list(refused) == [BAD]
    assert isinstance(refused[BAD], error)
    assert served == reference
    assert recorder.counters.get("serve.refused") == 1
    assert recorder.counters.get("serve.responses") == N_REQUESTS - 1
    # Every request tree is closed, the refused one included.
    assert all(span._closed for span in recorder.spans if span.name == "serve.request")


def test_a_short_request_is_refused_by_size_before_any_decryption():
    _, pool, clients = _deploy()
    service = pool.replicas[0].service
    plan = CountingPlan()
    with installed(plan):
        (refused,) = service.handle_batch([(1, 0, bytes(SEAL_OVERHEAD + 8))])
    assert isinstance(refused, ValueError)
    assert "crypto.unseal" not in plan.hits
