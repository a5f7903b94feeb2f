"""Property-based serving guarantees (hypothesis).

Two claims carry the gateway's security/correctness story:

* **batching is invisible**: for *any* arrival order, batch split, and
  replica count, every sealed response is byte-identical to the one
  the sequential seed service produces — response nonces derive from
  ``(session, seq)``, not from dispatch order, so clients cannot
  distinguish deployments (and a redispatch cannot mint a second,
  distinguishable reply);
* **sessions are isolated**: a record sealed under one session (or in
  one direction, or at one sequence number) is rejected with an
  ``IntegrityError`` everywhere else — cross-session replay and
  request/response reflection both fail the AEAD check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import build_mnist_cnn
from repro.core.serving import InferenceClient
from repro.core.system import PliniusSystem
from repro.crypto.backend import IntegrityError
from repro.serving import AdmissionPolicy, BatchPolicy, InferenceGateway, ReplicaPool
from repro.sgx.attestation import (
    QuotingEnclave,
    establish_mux_session,
)
from repro.sgx.enclave import Enclave
from repro.sgx.rand import SgxRandom
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM
from tests.reference_kernels import reference_predict

N_REQUESTS = 8
N_CLIENTS = 2
SEED = 17


def _factory():
    return build_mnist_cnn(
        n_conv_layers=1, filters=2, batch=4, rng=np.random.default_rng(SEED)
    )


def _images() -> np.ndarray:
    return np.random.default_rng(SEED + 1).random(
        (N_REQUESTS, 1, 28, 28), dtype=np.float32
    )


def _deployment(n_replicas: int, batch_max: int, max_delay: float):
    system = PliniusSystem.create(
        server="emlSGX-PM", seed=SEED, pm_size=4 << 20
    )
    net = _factory()
    system.mirror.alloc_mirror_model(net)
    system.mirror.mirror_out(net, 1)
    pool = ReplicaPool(
        system.mirror,
        system.quoting_enclave,
        system.clock,
        system.profile,
        _factory,
        n_replicas=n_replicas,
    )
    gateway = InferenceGateway(
        pool,
        system.clock,
        BatchPolicy(max_requests=batch_max, max_delay=max_delay),
        AdmissionPolicy(max_queue_depth=N_REQUESTS),
    )
    clients = {}
    for sid in range(1, N_CLIENTS + 1):
        client = InferenceClient(pool.measurement, seed=sid)
        pool.open_session(client, sid)
        clients[sid] = client
    return gateway, clients


def _run(n_replicas, batch_max, max_delay, arrival_offsets):
    """Drain one configuration; returns request index -> sealed bytes."""
    gateway, clients = _deployment(n_replicas, batch_max, max_delay)
    images = _images()
    base = gateway.clock.now()
    labels = {}
    for index in range(N_REQUESTS):
        client = clients[1 + index % N_CLIENTS]
        seq, sealed = client.seal_request_seq(images[index : index + 1])
        rid = gateway.submit(
            client.session_id, seq, sealed, 1,
            at=base + arrival_offsets[index],
        )
        labels[rid] = index
    result = gateway.run()
    assert not result.rejected
    return {
        labels[rid]: record.sealed
        for rid, record in result.responses.items()
    }


@pytest.fixture(scope="module")
def sequential_reference():
    """The seed service's answer: one replica, one request per batch,
    requests in index order."""
    return _run(1, 1, 1e-3, [i * 1e-4 for i in range(N_REQUESTS)])


@given(
    n_replicas=st.integers(min_value=1, max_value=3),
    batch_max=st.integers(min_value=1, max_value=8),
    offsets=st.lists(
        st.floats(min_value=0.0, max_value=5e-3, allow_nan=False),
        min_size=N_REQUESTS,
        max_size=N_REQUESTS,
    ),
)
@settings(max_examples=12, deadline=None)
def test_any_batching_is_byte_identical_to_sequential(
    sequential_reference, n_replicas, batch_max, offsets
):
    sealed = _run(n_replicas, batch_max, 1e-3, offsets)
    assert sealed == sequential_reference


# ----------------------------------------------------------------------
# The batched kernels themselves: any split, any order, warm or fresh
# arena — bitwise equal to the per-sample reference prediction.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel_reference():
    """Per-sample reference predictions of a fixed pool of images."""
    from repro.darknet.arena import TensorArena

    net = _factory()
    pool = np.random.default_rng(SEED + 2).random(
        (16, 1, 28, 28), dtype=np.float32
    )
    reference = np.concatenate(
        [reference_predict(net, pool[i : i + 1]) for i in range(len(pool))]
    )
    return net, pool, reference, TensorArena()


@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=15), min_size=1, max_size=16
    ),
    splits=st.lists(
        st.integers(min_value=1, max_value=16), min_size=1, max_size=6
    ),
)
@settings(max_examples=25, deadline=None)
def test_batched_forward_is_bitwise_sequential(kernel_reference, indices, splits):
    """Samples drawn in any order, chopped into any batch sizes, run
    through one *reused* arena, match the per-sample reference bit for
    bit — batching and buffer reuse are both invisible."""
    from repro.darknet.arena import TensorArena

    net, pool, reference, warm_arena = kernel_reference
    order = np.array(indices)
    start = 0
    for size in splits:
        chunk = order[start : start + size]
        if len(chunk) == 0:
            break
        start += size
        x = pool[chunk]
        reused = net.infer(x, warm_arena)
        np.testing.assert_array_equal(reused, reference[chunk])
        fresh = net.infer(x, TensorArena())
        np.testing.assert_array_equal(fresh, reference[chunk])


# ----------------------------------------------------------------------
# Session isolation.
# ----------------------------------------------------------------------
def _sessions():
    """Owner+enclave session pairs for two independent sessions."""
    enclave = Enclave(SimClock(), EMLSGX_PM.sgx)
    qe = QuotingEnclave(b"prop-platform")
    out = {}
    for sid in (1, 2):
        out[sid] = establish_mux_session(
            enclave,
            qe,
            expected_measurement=enclave.measurement,
            rand_enclave=SgxRandom(b"prop-e-" + bytes([sid])),
            rand_owner=SgxRandom(b"prop-o-" + bytes([sid])),
            session_id=sid,
        )
    return out


@given(
    payload=st.binary(min_size=0, max_size=64),
    seq=st.integers(min_value=0, max_value=1 << 16),
)
@settings(max_examples=40, deadline=None)
def test_cross_session_replay_is_rejected(payload, seq):
    sessions = _sessions()
    owner1, enclave1 = sessions[1]
    _, enclave2 = sessions[2]
    sealed = owner1.seal_request(seq, payload)
    # The right session at the right coordinate accepts...
    assert enclave1.open_request(seq, sealed) == payload
    # ...the other session rejects the replay outright,
    with pytest.raises(IntegrityError):
        enclave2.open_request(seq, sealed)
    # a shifted sequence number rejects (nonce+AAD are seq-bound),
    with pytest.raises(IntegrityError):
        enclave1.open_request(seq + 1, sealed)
    # and reflecting a request back as a "response" rejects too.
    with pytest.raises(IntegrityError):
        owner1.open_response(seq, sealed)


@given(
    payload=st.binary(min_size=0, max_size=64),
    seq=st.integers(min_value=0, max_value=1 << 16),
)
@settings(max_examples=40, deadline=None)
def test_response_unseals_only_under_its_own_session(payload, seq):
    sessions = _sessions()
    owner1, enclave1 = sessions[1]
    owner2, _ = sessions[2]
    sealed = enclave1.seal_response(seq, payload)
    assert owner1.open_response(seq, sealed) == payload
    with pytest.raises(IntegrityError):
        owner2.open_response(seq, sealed)


def test_response_nonce_is_pinned_by_seq():
    """Sealing the same response twice (a redispatch) yields the same
    bytes — there is no second distinguishable reply to observe."""
    _, enclave1 = _sessions()[1]
    a = enclave1.seal_response(3, b"prediction")
    b = enclave1.seal_response(3, b"prediction")
    assert a == b
