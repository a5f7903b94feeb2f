"""Darknet's weight draw, chunked: the same bits and the same stream.

``uniform_weights`` fills the float32 weights ``INIT_CHUNK`` values at
a time instead of through one float64 temporary as large as the layer.
It must stay bit-identical to the whole-array expression it replaced,
and leave the generator where that expression left it, or every model
built after it (and every figure) would move.
"""

import numpy as np
import pytest

from repro.core.models import build_mnist_cnn
from repro.darknet.layers.base import INIT_CHUNK, uniform_weights
from repro.darknet.layers.connected import ConnectedLayer
from repro.darknet.layers.convolutional import ConvolutionalLayer


def old_draw(rng, scale, shape):
    """The expression both layers used before the chunked draw."""
    return (scale * rng.uniform(-1, 1, size=shape)).astype(np.float32)


SHAPES = [
    (16, 9),  # conv, 1 input channel: far under one chunk
    (64, 16 * 9),  # conv
    (512, 512 * 9),  # Fig 7's conv: 36 chunks exactly
    (10, 845),  # connected: 8 450 values
    (3, INIT_CHUNK // 3 + 1),  # a chunk and one value
    (7, 3 * INIT_CHUNK // 7 + 5),  # three chunks and a ragged tail
    (0, 5),
]


@pytest.mark.parametrize("shape", SHAPES)
def test_chunked_draw_is_bit_identical(shape):
    fan_in = max(shape[1], 1)
    scale = np.sqrt(2.0 / fan_in)
    new_rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = uniform_weights(new_rng, scale, shape)
    want = old_draw(old_rng, scale, shape)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize(
    "make, fan_in, shape",
    [
        (
            lambda rng: ConvolutionalLayer((3, 8, 8), 24, rng=rng),
            3 * 9,
            (24, 3 * 9),
        ),
        (
            lambda rng: ConvolutionalLayer((96, 4, 4), 80, rng=rng),
            96 * 9,
            (80, 96 * 9),
        ),
        (lambda rng: ConnectedLayer((5, 13, 13), 10, rng=rng), 845, (10, 845)),
    ],
    ids=["conv-small", "conv-ragged", "connected"],
)
def test_layers_draw_the_old_weights_and_leave_the_stream(make, fan_in, shape):
    new_rng, old_rng = np.random.default_rng(3), np.random.default_rng(3)
    layer = make(new_rng)
    want = old_draw(old_rng, np.sqrt(2.0 / fan_in), shape)
    assert layer.weights.tobytes() == want.tobytes()
    assert new_rng.uniform(-1, 1, 4).tolist() == old_rng.uniform(-1, 1, 4).tolist()


def test_a_network_build_leaves_the_generator_where_it_was():
    """Every weight draw of a whole build, then the generator's next
    draw: what ``measure_model_size`` and the benchmarks seed from."""
    rng = np.random.default_rng((7, 3))
    net = build_mnist_cnn(n_conv_layers=3, filters=24, rng=rng)
    old_rng = np.random.default_rng((7, 3))
    for layer in net.layers:
        weights = getattr(layer, "weights", None)
        if weights is None:
            continue
        fan_in = weights.shape[1]
        want = old_draw(old_rng, np.sqrt(2.0 / fan_in), weights.shape)
        assert weights.tobytes() == want.tobytes()
    assert rng.random() == old_rng.random()
