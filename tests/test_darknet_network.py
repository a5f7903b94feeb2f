"""Network assembly, cfg parsing, weights IO, data matrices, training."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.models import build_mnist_cnn, cnn_cfg
from repro.core.system import PliniusSystem
from repro.darknet import (
    DataMatrix,
    Network,
    accuracy,
    build_network,
    load_weights,
    parse_cfg,
    render_cfg,
    save_weights,
    train,
)
from repro.darknet.arena import TensorArena
from repro.darknet.layers import ConnectedLayer, SoftmaxLayer
from repro.darknet.weights import weights_size
from repro.federated.aggregate import assign_params, flatten_params
from repro.federated.session import FederatedSession, FederationConfig
from tests.test_faults_outcomes import _blas_probe

_TINY_CFG = """
# A tiny test network
[net]
batch=8
learning_rate=0.05
momentum=0.9
decay=0.0001
height=8
width=8
channels=1

[convolutional]
batch_normalize=1
filters=4
size=3
stride=1
pad=1
activation=leaky

[maxpool]
size=2
stride=2

[connected]
output=3
activation=linear

[softmax]
"""


def tiny_network(seed: int = 0) -> Network:
    return build_network(parse_cfg(_TINY_CFG), np.random.default_rng(seed))


def tiny_data(n: int = 64, seed: int = 0) -> DataMatrix:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    x = rng.normal(size=(n, 64)).astype(np.float32) * 0.1
    # Plant a strong class signal so the net can learn.
    for i, lbl in enumerate(labels):
        x[i, lbl * 20 : lbl * 20 + 10] += 2.0
    y = np.zeros((n, 3), dtype=np.float32)
    y[np.arange(n), labels] = 1.0
    return DataMatrix(x=x, y=y)


class TestCfg:
    def test_parse_net_options(self):
        config = parse_cfg(_TINY_CFG)
        assert config.batch == 8
        assert config.learning_rate == pytest.approx(0.05)
        assert config.momentum == pytest.approx(0.9)
        assert config.input_shape == (1, 8, 8)

    def test_sections_in_order(self):
        config = parse_cfg(_TINY_CFG)
        assert [name for name, _ in config.sections] == [
            "convolutional", "maxpool", "connected", "softmax",
        ]

    def test_comments_and_blanks_ignored(self):
        config = parse_cfg("# c\n\n[net]\nheight=4 # trailing\nwidth=4\n[softmax]\n")
        assert config.input_shape == (1, 4, 4)

    def test_option_before_section_rejected(self):
        with pytest.raises(ValueError, match="before any"):
            parse_cfg("key=value\n[net]\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_cfg("[net]\nnot an option\n")

    def test_no_layers_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            parse_cfg("[net]\nheight=4\nwidth=4\n")

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unsupported layer"):
            build_network(parse_cfg("[net]\nheight=4\nwidth=4\n[lstm]\n"))

    def test_missing_dimensions_rejected(self):
        with pytest.raises(ValueError, match="height and width"):
            build_network(parse_cfg("[net]\nbatch=4\n[softmax]\n"))

    @pytest.mark.parametrize(
        "net, section, message",
        [
            ("", "[convolutional]\nstride=0", r"\[convolutional\] stride"),
            ("", "[convolutional]\nsize=0", r"\[convolutional\] size"),
            ("", "[convolutional]\nfilters=0", r"\[convolutional\] filters"),
            ("", "[maxpool]\nstride=0", r"\[maxpool\] stride"),
            ("", "[maxpool]\nsize=0", r"\[maxpool\] size"),
            ("", "[connected]\noutput=0", r"\[connected\] output"),
            ("batch=0\n", "[softmax]", r"\[net\] batch"),
            (
                "policy=poly\nmax_batches=0\n", "[softmax]",
                r"\[net\] max_batches",
            ),
        ],
    )
    def test_zero_geometry_fails_closed(self, net, section, message):
        """Zero sizes, strides, widths and batch counts are refused
        when the network is built, naming the section and the key —
        not a ZeroDivisionError later, and not a silently empty layer."""
        text = f"[net]\nheight=8\nwidth=8\n{net}{section}\n"
        with pytest.raises(ValueError, match=message):
            build_network(parse_cfg(text))

    def test_render_roundtrip(self):
        config = parse_cfg(_TINY_CFG)
        again = parse_cfg(render_cfg(config))
        assert again.net == config.net
        assert again.sections == config.sections

    def test_build_shapes_propagate(self):
        net = tiny_network()
        assert net.layers[0].out_shape == (4, 8, 8)
        assert net.layers[1].out_shape == (4, 4, 4)
        assert net.layers[2].out_shape == (3,)
        assert isinstance(net.layers[-1], SoftmaxLayer)

    def test_cnn_cfg_helper(self):
        config = parse_cfg(cnn_cfg(n_conv_layers=3, filters=8))
        convs = [n for n, _ in config.sections if n == "convolutional"]
        assert len(convs) == 3
        net = build_network(config, np.random.default_rng(0))
        assert isinstance(net.layers[-2], ConnectedLayer)

    def test_deterministic_init_with_seeded_rng(self):
        a, b = tiny_network(5), tiny_network(5)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)


class TestNetwork:
    def test_needs_layers(self):
        with pytest.raises(ValueError):
            Network([])

    def test_softmax_accessor_type_checked(self):
        net = Network([ConnectedLayer((4,), outputs=2)])
        with pytest.raises(TypeError, match="softmax"):
            net.softmax

    def test_param_counts(self):
        net = tiny_network()
        # conv: 4*9 weights + 4*4 bn params; connected: 3*64 + 3.
        assert net.param_count == 36 + 16 + 192 + 3
        assert net.param_bytes == net.param_count * 4

    def test_parameter_buffers_enumerated_in_order(self):
        buffers = tiny_network().parameter_buffers()
        assert [i for i, _ in buffers] == [0, 0, 0, 0, 0, 2, 2]

    def test_training_reduces_loss(self):
        net = tiny_network()
        data = tiny_data()
        log = train(net, data, iterations=40,
                    rng=np.random.default_rng(1), input_shape=(1, 8, 8))
        first = np.mean(log.losses[:5])
        last = np.mean(log.losses[-5:])
        assert last < first / 2

    def test_iteration_counter_advances(self):
        net = tiny_network()
        data = tiny_data()
        train(net, data, iterations=3, rng=np.random.default_rng(1),
              input_shape=(1, 8, 8))
        assert net.iteration == 3

    def test_update_clears_gradients(self):
        net = tiny_network()
        data = tiny_data()
        x, y = data.batch(np.arange(8))
        net.train_batch(x.reshape(8, 1, 8, 8), y)
        for layer in net.layers:
            for _, grad in layer.trainable():
                np.testing.assert_array_equal(grad, 0)

    def test_flops_positive(self):
        assert tiny_network().flops(8) > 0

    def test_predict_shape(self):
        net = tiny_network()
        out = net.infer(np.zeros((5, 1, 8, 8), dtype=np.float32), TensorArena())
        assert out.shape == (5, 3)

    def test_momentum_free_training_is_deterministic(self):
        def run():
            net = tiny_network(3)
            net.momentum = 0.0
            data = tiny_data()
            train(net, data, iterations=10, rng=np.random.default_rng(2),
                  input_shape=(1, 8, 8))
            return save_weights(net)

        assert run() == run()

    def test_reset_optimizer_then_assign_equals_fresh_build(self):
        """A used network, reset and re-assigned, trains bit-for-bit
        like a fresh one — momentum on, so stale velocities would show."""
        data = tiny_data()
        steps = [
            (data.x[i : i + 8].reshape(8, 1, 8, 8), data.y[i : i + 8])
            for i in range(0, 32, 8)
        ]
        used = tiny_network(4)
        for x, y in steps[2:]:
            used.train_batch(x, y)
        # Leave a gradient behind, as an interrupted step would.
        used.forward(steps[0][0])
        used.softmax.loss(steps[0][1])
        used.backward()

        fresh = tiny_network(4)
        used.reset_optimizer()
        assign_params(used, flatten_params(fresh))
        assert used.iteration == 0
        assert [used.train_batch(x, y) for x, y in steps] == [
            fresh.train_batch(x, y) for x, y in steps
        ]
        assert flatten_params(used).tobytes() == flatten_params(fresh).tobytes()
        assert used.iteration == fresh.iteration == len(steps)


def _mnist_batch(rng: np.random.Generator, n: int):
    x = rng.random((n, 1, 28, 28), dtype=np.float32)
    y = np.eye(10, dtype=np.float32)[rng.integers(0, 10, size=n)]
    return x, y


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _run_digests(losses, net) -> tuple:
    """(losses, every parameter buffer's bytes) as two SHA-256 digests."""
    return (
        _digest(float(loss).hex().encode() for loss in losses),
        _digest(array.tobytes() for _, (_, array) in net.parameter_buffers()),
    )


#: The BLAS probe of the host the pinned digests were captured on; the
#: float bits of a training step follow the host's BLAS, so the pins
#: are only compared where this probe reproduces.
PINNED_BLAS_PROBE = "6c5e9369c7e67bad"


class TestGradientBuffers:
    """Gradient accumulators are made by the first training step, not
    at build: a network that is only served or mirrored never holds
    them, and training stays bit-for-bit what it was when every layer
    allocated them in ``__init__`` (the pinned digests date from then).
    """

    def test_untrained_network_holds_no_gradient_buffer(self):
        x, _ = _mnist_batch(np.random.default_rng(40), 8)
        tracemalloc.start()
        try:
            system = PliniusSystem.create(pm_size=8 << 20)
            net = build_mnist_cnn(rng=np.random.default_rng(41))
            net.infer(x, TensorArena())
            system.mirror.alloc_mirror_model(net)
            system.mirror.mirror_out(net, 1)
            system.mirror.mirror_in(net)
            net.layers[0].set_parameter("biases", np.ones(16, np.float32))
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
            pairs = [pair for layer in net.layers for pair in layer.trainable()]
            made, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gradient_bytes = sum(grad.nbytes for _, grad in pairs)
        assert gradient_bytes > 0
        # Asking for the pairs is what allocates every accumulator.
        assert made - held >= gradient_bytes
        assert all(not grad.any() for _, grad in pairs)

    def test_batch128_training_steps_pinned(self):
        if _blas_probe() != PINNED_BLAS_PROBE:
            pytest.skip("pinned digests were captured under another BLAS")
        net = build_mnist_cnn(rng=np.random.default_rng(30))
        rng = np.random.default_rng(31)
        losses = [net.train_batch(*_mnist_batch(rng, 128)) for _ in range(6)]
        assert _run_digests(losses, net) == (
            "d62f63da75ee0133bd023f3c827891b55e6a2fb874535fa77225684b3a5c8ee8",
            "9ddcd6ffd3a3122e8e4752aa46558d1c936182a9499f36736552a557160362e0",
        )

    def test_federated_rounds_pinned(self):
        if _blas_probe() != PINNED_BLAS_PROBE:
            pytest.skip("pinned digests were captured under another BLAS")
        builder = FederatedSession(FederationConfig()).builder
        net = builder()
        params = flatten_params(builder())
        rng = np.random.default_rng(32)
        losses = []
        for _ in range(3):
            net.reset_optimizer()
            assign_params(net, params)
            losses += [net.train_batch(*_mnist_batch(rng, 4)) for _ in range(2)]
            params = flatten_params(net)
        assert _run_digests(losses, net) == (
            "5acb0462cd2f3ae04168de4577c6b41ba301225975347d7eee8a00121a2aa4c5",
            "5136856bdc180ff5524180687335aba1a5508e3973a4589374c4f90752c41e79",
        )


class TestWeights:
    def test_roundtrip_bitexact(self):
        net = tiny_network(1)
        data = tiny_data()
        train(net, data, iterations=5, rng=np.random.default_rng(1),
              input_shape=(1, 8, 8))
        blob = save_weights(net)
        other = tiny_network(99)  # different init
        seen = load_weights(other, blob)
        assert seen == 5
        assert other.iteration == 5
        assert save_weights(other) == blob

    def test_size_accounting(self):
        net = tiny_network()
        header, params = weights_size(net)
        assert len(save_weights(net)) == header + params

    def test_truncated_blob_rejected(self):
        net = tiny_network()
        blob = save_weights(net)
        with pytest.raises(ValueError, match="truncated"):
            load_weights(net, blob[:-8])

    def test_trailing_garbage_rejected(self):
        net = tiny_network()
        blob = save_weights(net) + b"\x00" * 4
        with pytest.raises(ValueError, match="trailing"):
            load_weights(net, blob)

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_weights(tiny_network(), b"xy")

    def test_bad_version_rejected(self):
        net = tiny_network()
        blob = bytearray(save_weights(net))
        blob[0] = 9
        with pytest.raises(ValueError, match="version"):
            load_weights(net, bytes(blob))


class TestDataMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            DataMatrix(x=np.zeros(4), y=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="rows"):
            DataMatrix(x=np.zeros((4, 2)), y=np.zeros((3, 2)))

    def test_shape_accessors(self):
        data = tiny_data(32)
        assert len(data) == 32
        assert data.features == 64
        assert data.classes == 3
        assert data.nbytes == 32 * (64 + 3) * 4

    def test_batch_by_indices(self):
        data = tiny_data(10)
        x, y = data.batch(np.array([3, 7]))
        np.testing.assert_array_equal(x[0], data.x[3])
        np.testing.assert_array_equal(y[1], data.y[7])

    def test_sequential_batches_cover_everything(self):
        data = tiny_data(10)
        chunks = list(data.sequential_batches(4))
        assert [len(c[0]) for c in chunks] == [4, 4, 2]

    def test_random_batch_deterministic_by_seed(self):
        data = tiny_data(50)
        a = data.random_batch(8, np.random.default_rng(4))
        b = data.random_batch(8, np.random.default_rng(4))
        np.testing.assert_array_equal(a[0], b[0])

    def test_labels(self):
        data = tiny_data(20)
        assert set(data.labels()) <= {0, 1, 2}


class TestInference:
    def test_predict_batch_and_accuracy(self):
        net = tiny_network()
        data = tiny_data(96)
        train(net, data, iterations=60, rng=np.random.default_rng(1),
              input_shape=(1, 8, 8))
        acc = accuracy(net, data, input_shape=(1, 8, 8))
        assert acc > 0.8  # planted signal is easy


class TestLearningRatePolicies:
    def _policy(self, **kwargs):
        from repro.darknet.policy import LearningRatePolicy

        return LearningRatePolicy(**kwargs)

    def test_constant(self):
        policy = self._policy()
        assert policy.learning_rate(0.1, 0) == 0.1
        assert policy.learning_rate(0.1, 9999) == 0.1

    def test_steps(self):
        policy = self._policy(
            kind="steps", steps=(100, 200), scales=(0.1, 0.5)
        )
        assert policy.learning_rate(1.0, 50) == 1.0
        assert policy.learning_rate(1.0, 150) == pytest.approx(0.1)
        assert policy.learning_rate(1.0, 250) == pytest.approx(0.05)

    def test_steps_scales_must_pair(self):
        with pytest.raises(ValueError, match="pair up"):
            self._policy(kind="steps", steps=(100,), scales=())

    def test_exp(self):
        policy = self._policy(kind="exp", gamma=0.5)
        assert policy.learning_rate(1.0, 3) == pytest.approx(0.125)

    def test_poly_reaches_zero(self):
        policy = self._policy(kind="poly", power=2.0, max_iterations=100)
        assert policy.learning_rate(1.0, 0) == 1.0
        assert policy.learning_rate(1.0, 50) == pytest.approx(0.25)
        assert policy.learning_rate(1.0, 100) == 0.0
        assert policy.learning_rate(1.0, 500) == 0.0  # clamped

    def test_sig_drops_around_step(self):
        policy = self._policy(kind="sig", gamma=1.0, step=50)
        early = policy.learning_rate(1.0, 0)
        late = policy.learning_rate(1.0, 100)
        assert early > 0.9
        assert late < 0.1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            self._policy(kind="cosine")

    def test_cfg_wires_policy_into_network(self):
        cfg = (
            "[net]\nbatch=4\nlearning_rate=1.0\npolicy=steps\n"
            "steps=5,10\nscales=0.1,0.1\nheight=4\nwidth=4\n"
            "[connected]\noutput=2\nactivation=linear\n[softmax]\n"
        )
        net = build_network(parse_cfg(cfg), np.random.default_rng(0))
        assert net.current_learning_rate == 1.0
        net.iteration = 7
        assert net.current_learning_rate == pytest.approx(0.1)
        net.iteration = 20
        assert net.current_learning_rate == pytest.approx(0.01)

    def test_default_cfg_policy_is_constant(self):
        net = tiny_network()
        net.iteration = 1000
        assert net.current_learning_rate == net.learning_rate
