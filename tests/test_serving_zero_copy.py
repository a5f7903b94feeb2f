"""The allocation-free batched serve path: arena, leaks, observability.

Four claims from the batched-kernel work:

* ``Network.infer`` is bitwise-identical per sample to the sequential
  ``forward(train=False)`` reference, for any batch size;
* inference never populates the training caches — repeated serving
  cannot grow the enclave heap one activation at a time;
* after warmup the serve path allocates nothing: every steady-state
  ``handle_batch`` call is all arena hits, including smaller batches
  riding on capacity sized by earlier larger ones;
* the ``arena.*`` counters the recorder exports agree exactly with the
  arena's own :class:`~repro.darknet.arena.ArenaStats`, and the three
  ``serve.*`` phase spans appear under ``--trace``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import build_mnist_cnn
from repro.core.serving import InferenceClient, SecureInferenceService
from repro.darknet.arena import TensorArena
from repro.obs.recorder import TraceRecorder
from repro.sgx.attestation import QuotingEnclave
from repro.sgx.enclave import Enclave
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM

TRAIN_CACHES = (
    "_cols", "_bn_cache", "_output",
    "_x", "_argmax", "_probs",
)


def _network(seed: int = 5):
    return build_mnist_cnn(
        n_conv_layers=2, filters=4, batch=8, rng=np.random.default_rng(seed)
    )


def _images(n: int, seed: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).random(
        (n, 1, 28, 28), dtype=np.float32
    )


def _service():
    enclave = Enclave(SimClock(), EMLSGX_PM.sgx)
    service = SecureInferenceService(
        _network(), enclave, QuotingEnclave(b"zero-copy")
    )
    client = InferenceClient(enclave.measurement, seed=1)
    service.open_session(client, 1)
    return service, client


def _cached_attrs(net):
    return [
        (type(layer).__name__, name)
        for layer in net.layers
        for name in TRAIN_CACHES
        if getattr(layer, name, None) is not None
    ]


# ----------------------------------------------------------------------
# Bitwise contract of the batched kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_infer_matches_sequential_forward_bitwise(n):
    net = _network()
    x = _images(n)
    arena = TensorArena()
    batched = net.infer(x, arena)
    for i in range(n):
        single = net.forward(x[i : i + 1], train=False)
        np.testing.assert_array_equal(batched[i : i + 1], single)


def test_arena_reuse_matches_fresh_arena_bitwise():
    net = _network()
    warm = TensorArena()
    big = _images(16, seed=7)
    net.infer(big, warm)  # size the buffers past what follows
    for n in (4, 16, 1, 9):
        x = _images(n, seed=100 + n)
        reused = net.infer(x, warm).copy()
        fresh = net.infer(x, TensorArena())
        np.testing.assert_array_equal(reused, fresh)


# ----------------------------------------------------------------------
# Inference must not populate (or grow) the training caches
# ----------------------------------------------------------------------

def test_inference_leaves_training_caches_empty():
    net = _network()
    x = _images(4)
    net.forward(x, train=False)
    assert _cached_attrs(net) == []
    net.infer(x, TensorArena())
    assert _cached_attrs(net) == []


def test_training_caches_are_released_not_retained_per_call():
    """A train pass may cache; subsequent inference reuses nothing and
    the cached arrays do not multiply with repeated serving calls."""
    net = _network()
    x = _images(4)
    net.forward(x, train=True)
    cached_after_train = {
        id(getattr(layer, name, None))
        for layer in net.layers
        for name in TRAIN_CACHES
    }
    arena = TensorArena()
    for _ in range(5):
        net.infer(x, arena)
    cached_now = {
        id(getattr(layer, name, None))
        for layer in net.layers
        for name in TRAIN_CACHES
    }
    assert cached_now == cached_after_train


# ----------------------------------------------------------------------
# Zero allocations after warmup
# ----------------------------------------------------------------------

def test_steady_state_handle_batch_is_all_arena_hits():
    service, client = _service()
    def call(n):
        seq, sealed = client.seal_request_seq(_images(n, seed=50 + n))
        (response,) = service.handle_batch([(client.session_id, seq, sealed)])
        return client.open_response_seq(seq, response)

    call(8)  # warmup sizes every buffer
    stats = service._arena.stats
    misses_before, bytes_before = stats.misses, stats.bytes_allocated
    for n in (8, 3, 8, 1):  # smaller batches ride on the same capacity
        preds = call(n)
        assert preds.shape == (n,)
    assert stats.misses == misses_before
    assert stats.bytes_allocated == bytes_before
    assert stats.hits > 0


# ----------------------------------------------------------------------
# Observability: counters agree with the arena, spans appear
# ----------------------------------------------------------------------

def test_arena_counters_agree_with_arena_stats():
    service, client = _service()
    recorder = TraceRecorder()
    service.enclave.clock.recorder = recorder
    try:
        stats = service._arena.stats
        for n in (6, 6, 2):
            hits0, misses0 = stats.hits, stats.misses
            chits0 = recorder.counters.get("arena.hit")
            cmisses0 = recorder.counters.get("arena.miss")
            seq, sealed = client.seal_request_seq(_images(n, seed=80 + n))
            service.handle_batch([(client.session_id, seq, sealed)])
            assert recorder.counters.get("arena.hit") - chits0 == (
                stats.hits - hits0
            )
            assert recorder.counters.get("arena.miss") - cmisses0 == (
                stats.misses - misses0
            )
            assert recorder.counters.get_gauge("arena.bytes") == (
                stats.bytes_allocated
            )
    finally:
        service.enclave.clock.detach_recorder()


def test_serve_phase_spans_are_traced():
    service, client = _service()
    recorder = TraceRecorder()
    service.enclave.clock.recorder = recorder
    try:
        seq, sealed = client.seal_request_seq(_images(3))
        service.handle_batch([(client.session_id, seq, sealed)])
    finally:
        service.enclave.clock.detach_recorder()
    names = [s.name for s in recorder.spans]
    for phase in ("serve.stack", "serve.forward", "serve.scatter"):
        assert phase in names, names
