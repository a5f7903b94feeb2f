"""The allocation-free batched serve path: arena, leaks, observability.

Four claims from the batched-kernel work:

* ``Network.infer`` — the one inference path — is bitwise-identical per
  sample to the frozen per-sample reference
  (``tests.reference_kernels.reference_predict``), for every layer kind
  and activation and any batch size;
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
from repro.darknet.activations import get_activation
from repro.darknet.arena import ArenaStats, TensorArena
from repro.darknet.layers import (
    AvgPoolLayer,
    ConnectedLayer,
    ConvolutionalLayer,
    DropoutLayer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.darknet.network import Network
from repro.obs.recorder import TraceRecorder
from repro.sgx.attestation import QuotingEnclave
from repro.sgx.enclave import Enclave
from repro.simtime.clock import SimClock
from repro.simtime.profiles import EMLSGX_PM
from tests.reference_kernels import reference_predict

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

def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_infer_matches_sequential_forward_bitwise(n):
    net = _network()
    x = _images(n)
    arena = TensorArena()
    batched = net.infer(x, arena)
    for i in range(n):
        single = reference_predict(net, x[i : i + 1])
        np.testing.assert_array_equal(batched[i : i + 1], single)


ACTIVATIONS = ["leaky", "relu", "linear", "logistic", "tanh"]


def _layer(kind: str, activation: str, rng):
    """One layer of ``kind`` on a (3, 8, 8) input (flat 12 for the
    dense kinds), with nonzero biases and batch-norm statistics."""
    if kind.startswith("convolutional"):
        layer = ConvolutionalLayer(
            (3, 8, 8), filters=4, activation=activation,
            batch_normalize=kind == "convolutional", rng=rng,
        )
        for name, buf in layer.parameter_buffers():
            if name != "weights":
                buf[...] = rng.uniform(0.5, 1.5, buf.shape)
        return layer
    if kind == "connected":
        layer = ConnectedLayer((12,), 5, activation=activation, rng=rng)
        layer.biases[...] = rng.normal(size=5)
        return layer
    if kind == "maxpool":
        return MaxPoolLayer((3, 8, 8))
    if kind == "maxpool-overlapping":
        return MaxPoolLayer((3, 8, 8), size=3, stride=2)
    if kind == "avgpool":
        return AvgPoolLayer((3, 8, 8))
    if kind == "dropout":
        return DropoutLayer((3, 8, 8), probability=0.5, rng=rng)
    return SoftmaxLayer((12,))


LAYER_CASES = [
    (kind, activation)
    for kind in ("convolutional", "convolutional-no-bn", "connected")
    for activation in ACTIVATIONS
] + [
    (kind, None)
    for kind in (
        "maxpool", "maxpool-overlapping", "avgpool", "dropout", "softmax"
    )
]


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("kind,activation", LAYER_CASES)
def test_every_layer_infer_matches_reference_predict_bitwise(kind, activation, n):
    """Each layer kind's ``infer`` at batch ``n`` returns, per sample,
    exactly the bits the retired ``forward(train=False)`` body did."""
    rng = np.random.default_rng(31)
    net = Network([_layer(kind, activation or "leaky", rng)])
    in_shape = (12,) if kind in ("connected", "softmax") else (3, 8, 8)
    x = rng.normal(size=(n,) + in_shape).astype(np.float32)
    batched = net.infer(x, TensorArena())
    for i in range(n):
        single = reference_predict(net, x[i : i + 1])
        assert single.dtype == batched.dtype
        np.testing.assert_array_equal(_bits(batched[i : i + 1]), _bits(single))


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_forward_into_matches_forward_bitwise(name):
    """The arena-backed activation is its allocating twin, bit for bit,
    signed zeros and NaN included."""
    act = get_activation(name)
    x = np.concatenate([
        np.float32([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45,
                    -1e-45, 88.0, -88.0, 0.5, -0.5]),
        np.random.default_rng(2).normal(size=500).astype(np.float32) * 8,
    ]).reshape(8, 64)
    expected = act.forward(x.copy())
    got = act.forward_into(x.copy(), TensorArena().workspace(0))
    np.testing.assert_array_equal(_bits(got), _bits(expected))


def test_take_sequence_keeps_arena_stats():
    """A fixed sequence of ``take`` calls — grow, shrink, dtype and
    trailing-shape changes, two slots sharing a name, the arena's own
    keys — counts the hits, misses and bytes it always has."""
    arena = TensorArena()
    a, b = arena.workspace(0), arena.workspace(1)
    f32 = np.dtype(np.float32)
    for ws, name, shape, dtype in [
        (a, "out", (4, 3, 5), f32),
        (a, "out", (2, 3, 5), f32),        # smaller batch: hit
        (a, "out", (8, 3, 5), f32),        # grow the leading dim
        (a, "out", (4, 3, 5), f32),        # rides the grown capacity
        (b, "out", (4, 3, 5), f32),        # another slot, same name
        (a, "out", (4, 3, 6), f32),        # trailing dims change
        (a, "out", (4, 3, 6), np.float64), # dtype changes
        (a, "inv_std", (3,), f32),
        (a, "inv_std", (3,), f32),
        (b, "out", (1, 3, 5), np.float32),  # dtype given as a type
    ]:
        assert ws.take(name, shape, dtype).shape == shape
    padded = a.take("padded", (2, 2, 4, 4), f32, zero_fill=True)
    padded[:, :, 1:3, 1:3] = 7.0
    again = a.take("padded", (1, 2, 4, 4), f32, zero_fill=True)
    assert (again[:, :, 0] == 0).all()
    arena.take("serve.x", (3, 1, 28, 28))
    arena.take("serve.x", [2, 1, 28, 28])
    arena.take("serve.preds", (3,), np.int64)
    assert arena.stats == ArenaStats(hits=6, misses=9, bytes_allocated=10516)


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
    net.infer(x, TensorArena())
    assert _cached_attrs(net) == []


def test_training_caches_are_released_not_retained_per_call():
    """A train pass may cache; subsequent inference reuses nothing and
    the cached arrays do not multiply with repeated serving calls."""
    net = _network()
    x = _images(4)
    net.forward(x)
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
