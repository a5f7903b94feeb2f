"""The training kernels against the frozen bodies they replaced.

Everything here is **bitwise**: the rewrite re-expresses the same
arithmetic (vectorisable selects, one activation layout), so fed the
sample-minor arrays a conv stack produces, each layer must return the
bits ``tests/reference_kernels.py`` returns — outputs, input deltas
and every gradient accumulator — and a whole network must train to the
same losses and parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import build_mnist_cnn
from repro.darknet import im2col as m
from repro.darknet.activations import get_activation
from repro.darknet.arena import TensorArena
from repro.darknet.layers import ConvolutionalLayer, MaxPoolLayer
from repro.darknet.network import Network
from tests import reference_kernels as ref
from tests.reference_kernels import sample_minor

F32_TINY = np.float32(1e-45)  # smallest positive denormal
EDGE_VALUES = np.array(
    [0.0, -0.0, F32_TINY, -F32_TINY, 3e-39, -3e-39, np.inf, -np.inf,
     1.0, 1.0, -1.0, 0.5, -2.5],
    dtype=np.float32,
)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    a = np.ascontiguousarray(actual).view(np.uint8)
    b = np.ascontiguousarray(expected).view(np.uint8)
    assert np.array_equal(a, b)


def normal(rng, shape) -> np.ndarray:
    return sample_minor(rng.normal(size=shape).astype(np.float32))


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------

class TestLeaky:
    def test_forward_bits_on_edge_values(self):
        x = np.concatenate(
            [EDGE_VALUES, np.float32([np.nan]),
             np.random.default_rng(0).normal(size=4099).astype(np.float32)]
        )
        assert_same_bits(get_activation("leaky").forward(x), ref.leaky_forward(x))

    def test_gradient_bits_on_edge_values(self):
        y = np.concatenate(
            [EDGE_VALUES,
             np.random.default_rng(1).normal(size=4099).astype(np.float32)]
        )
        assert_same_bits(
            get_activation("leaky").gradient(y), ref.leaky_gradient(y)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_follows_input(self, dtype):
        act = get_activation("leaky")
        y = act.forward(np.linspace(-1, 1, 7).astype(dtype))
        assert y.dtype == dtype
        assert act.gradient(y).dtype == dtype


# ----------------------------------------------------------------------
# col2im
# ----------------------------------------------------------------------

# (n, c, h, w, kernel, stride, pad)
COL2IM_SHAPES = [
    (32, 16, 14, 14, 3, 1, 1),
    (4, 1, 28, 28, 3, 1, 1),
    (3, 2, 9, 7, 3, 2, 1),
    (2, 3, 8, 8, 3, 1, 0),
    (2, 2, 12, 12, 5, 3, 2),
]


@pytest.mark.parametrize("shape", COL2IM_SHAPES)
def test_col2im_bits(shape):
    n, c, h, w, k, stride, pad = shape
    out_h = m.conv_output_size(h, k, stride, pad)
    out_w = m.conv_output_size(w, k, stride, pad)
    cols = np.random.default_rng(2).normal(
        size=(c * k * k, out_h * out_w * n)
    ).astype(np.float32)
    assert_same_bits(
        m.col2im(cols, (n, c, h, w), k, stride, pad),
        ref.col2im(cols, (n, c, h, w), k, stride, pad),
    )


# ----------------------------------------------------------------------
# im2col patch windows
# ----------------------------------------------------------------------

@pytest.mark.parametrize("layout", ["c_ordered", "sample_minor"])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("hw", [(9, 8), (6, 7)])
def test_patch_windows_equal_sliding_window_view(hw, stride, pad, layout):
    """The ``as_strided`` view is the one ``sliding_window_view`` (plus
    a ``::stride`` slice) builds: shape, strides, values, read-only."""
    images = np.random.default_rng(9).normal(size=(4, 3) + hw)
    padded = np.pad(
        images.astype(np.float32), ((0, 0), (0, 0), (pad, pad), (pad, pad))
    )
    if layout == "sample_minor":
        padded = sample_minor(padded)
    new = m._patch_windows(padded, 3, stride)
    old = ref._patch_windows(padded, 3, stride)
    assert new.shape == old.shape
    assert new.strides == old.strides
    assert not new.flags.writeable and not old.flags.writeable
    assert_same_bits(new, old)


# ----------------------------------------------------------------------
# Batch-norm forward
# ----------------------------------------------------------------------

BN_PLANES = ["random", "c_ordered", "constant_channel", "signed_zeros", "denormals"]


def _bn_plane(kind: str, n: int) -> np.ndarray:
    """A batch-``n`` plane, sample-minor as a conv's GEMM emits it
    (``c_ordered``: the same draw laid out C-ordered)."""
    rng = np.random.default_rng(15)
    shape = (n, 3, 10, 10)
    if kind == "random":
        return normal(rng, shape)
    if kind == "c_ordered":
        return rng.normal(size=shape).astype(np.float32)
    if kind == "constant_channel":
        x = rng.normal(size=shape).astype(np.float32)
        x[:, 1] = np.float32(0.3)
        return sample_minor(x)
    values = (
        np.float32([0.0, -0.0]) if kind == "signed_zeros"
        else np.float32([F32_TINY, -F32_TINY, 3e-39, -3e-39, 0.0])
    )
    return sample_minor(rng.choice(values, size=shape))


@pytest.mark.parametrize("n", [1, 4, 128])
@pytest.mark.parametrize("kind", BN_PLANES)
def test_batchnorm_forward_bits_match_reference(kind, n):
    """Output, rolling statistics and backward cache of one training
    forward equal the frozen allocating batch-norm's."""
    x = _bn_plane(kind, n)
    new, old = _conv_pair(3, 10, 3, 3, 1, 1, True)
    assert_same_bits(
        new._batchnorm_forward(x), old._batchnorm_forward(x, True)
    )
    for attr in ("rolling_mean", "rolling_variance"):
        assert_same_bits(getattr(new, attr), getattr(old, attr))
    for a, b in zip(new._bn_cache, old._bn_cache):
        assert_same_bits(a, b)


# ----------------------------------------------------------------------
# Max pooling
# ----------------------------------------------------------------------

# (n, c, h, size, stride).  A sample-minor input whose batch run is
# shorter than a cache line (n < 16) takes the gathered kernel, a longer
# one the in-layout kernel; both sides are held to the reference.
POOL_SHAPES = [
    (32, 16, 28, 2, 2),
    (4, 2, 28, 2, 2),
    (5, 3, 9, 3, 2),   # overlapping windows
    (3, 2, 7, 2, 1),
    (2, 2, 6, 1, 1),
    (128, 16, 28, 2, 2),  # train_mnist's first pool
]


def _pool_pair(c, h, size, stride):
    return (
        MaxPoolLayer((c, h, h), size=size, stride=stride),
        ref.ReferenceMaxPoolLayer((c, h, h), size=size, stride=stride),
    )


def _run_pool(layer, x, delta):
    return layer.forward(x), layer.backward(delta)


class TestMaxPool:
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_bits_match_reference(self, shape):
        n, c, h, size, stride = shape
        rng = np.random.default_rng(3)
        new, old = _pool_pair(c, h, size, stride)
        x = normal(rng, (n, c, h, h))
        delta = normal(rng, (n,) + new.out_shape)
        out, dx = _run_pool(new, x, delta)
        assert new._gathered == (n < 16)
        ref_out, ref_dx = _run_pool(old, x, delta)
        assert_same_bits(out, ref_out)
        assert_same_bits(dx, ref_dx)
        assert_same_bits(new.infer(x, TensorArena().workspace(0)), ref_out)

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_ties_route_to_first_window(self, shape):
        """Few distinct values, so most windows hold an exact tie."""
        n, c, h, size, stride = shape
        rng = np.random.default_rng(4)
        new, old = _pool_pair(c, h, size, stride)
        x = sample_minor(
            rng.integers(-1, 2, size=(n, c, h, h)).astype(np.float32)
        )
        delta = normal(rng, (n,) + new.out_shape)
        out, dx = _run_pool(new, x, delta)
        ref_out, ref_dx = _run_pool(old, x, delta)
        assert_same_bits(out, ref_out)
        assert_same_bits(dx, ref_dx)

    def test_all_equal_windows(self):
        new, old = _pool_pair(2, 8, 2, 2)
        x = sample_minor(np.full((3, 2, 8, 8), -0.75, dtype=np.float32))
        delta = normal(np.random.default_rng(5), (3, 2, 4, 4))
        out, dx = _run_pool(new, x, delta)
        ref_out, ref_dx = _run_pool(old, x, delta)
        assert_same_bits(out, ref_out)
        assert_same_bits(dx, ref_dx)
        # The whole delta lands on each window's first cell.
        assert_same_bits(dx[:, :, ::2, ::2], delta + np.float32(0.0))
        assert not dx[:, :, 1::2, :].any() and not dx[:, :, :, 1::2].any()

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_edge_values(self, shape):
        """±0, denormals, ±inf and repeats.  Gradient routing is
        keep-first everywhere (``+0 == -0`` is a tie); the *sign* of a
        zero maximum whose window holds both zeros is unspecified (see
        ``MaxPoolLayer.forward``), so output bits are compared wherever
        the maximum is not zero and values everywhere."""
        n, c, h, size, stride = shape
        rng = np.random.default_rng(6)
        new, old = _pool_pair(c, h, size, stride)
        x = sample_minor(rng.choice(EDGE_VALUES, size=(n, c, h, h)))
        delta = normal(rng, (n,) + new.out_shape)
        out, dx = _run_pool(new, x, delta)
        ref_out, ref_dx = _run_pool(old, x, delta)
        assert np.array_equal(out, ref_out)
        nonzero = ref_out != 0
        assert_same_bits(out[nonzero], ref_out[nonzero])
        assert_same_bits(dx, ref_dx)

    def test_same_signed_zeros_keep_their_bits(self):
        """A window of one kind of zero returns that zero."""
        new, old = _pool_pair(1, 4, 2, 2)
        x = np.float32([-1.0, -0.0, -0.0, -3.0, 0.0, 0.0, -5.0, 0.0])
        x = sample_minor(np.tile(x, 4).reshape(2, 1, 4, 4))
        assert_same_bits(new.forward(x), old.forward(x))

    def test_forward_returns_c_ordered(self):
        """The connected layer's GEMM operand after a pool is
        C-contiguous whatever layout the pool computed in."""
        new, _ = _pool_pair(3, 8, 2, 2)
        x = normal(np.random.default_rng(7), (4, 3, 8, 8))
        assert new.forward(x).flags.c_contiguous
        assert new.forward(np.ascontiguousarray(x)).flags.c_contiguous

    def test_argmax_plane_is_one_byte_per_cell(self):
        new, _ = _pool_pair(3, 8, 2, 2)
        new.forward(normal(np.random.default_rng(8), (4, 3, 8, 8)))
        assert new._argmax.dtype == np.uint8


# ----------------------------------------------------------------------
# Convolution (+ batchnorm) backward
# ----------------------------------------------------------------------

# (n, c, h, filters, kernel, stride, pad)
CONV_SHAPES = [
    (32, 3, 12, 16, 3, 1, 1),
    (4, 1, 28, 2, 3, 1, 1),    # the federated model's only conv
    (8, 3, 11, 4, 3, 2, 1),    # stride 2
    (8, 2, 9, 4, 3, 1, 0),     # pad 0
]
ACCUMULATORS = (
    "weight_updates", "bias_updates", "scale_updates",
    "rolling_mean", "rolling_variance",
)


def _conv_pair(c, h, filters, kernel, stride, pad, batch_normalize):
    kwargs = dict(
        in_shape=(c, h, h), filters=filters, kernel=kernel, stride=stride,
        pad=pad, batch_normalize=batch_normalize,
    )
    new = ConvolutionalLayer(rng=np.random.default_rng(11), **kwargs)
    old = ref.ReferenceConvolutionalLayer(
        rng=np.random.default_rng(11), **kwargs
    )
    old.activation = ref.REFERENCE_LEAKY
    return new, old


def _assert_conv_step_equal(new, old, x, delta):
    out, ref_out = new.forward(x), old.forward(x)
    assert_same_bits(out, ref_out)
    assert_same_bits(new.backward(delta), old.backward(delta))
    for name in ACCUMULATORS:
        if hasattr(old, name):
            assert_same_bits(getattr(new, name), getattr(old, name))


class TestConvolutional:
    @pytest.mark.parametrize("batch_normalize", [True, False])
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_bits_match_reference(self, shape, batch_normalize):
        n, c, h, *conv = shape
        rng = np.random.default_rng(12)
        new, old = _conv_pair(c, h, *conv, batch_normalize)
        x = normal(rng, (n, c, h, h))
        for _ in range(2):  # accumulators carry across steps
            delta = normal(rng, (n,) + new.out_shape)
            _assert_conv_step_equal(new, old, x, delta)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_zeros_and_denormals(self, shape):
        n, c, h, *conv = shape
        rng = np.random.default_rng(13)
        new, old = _conv_pair(c, h, *conv, True)
        finite = EDGE_VALUES[np.isfinite(EDGE_VALUES)]
        x = sample_minor(rng.choice(finite, size=(n, c, h, h)))
        delta = sample_minor(rng.choice(finite, size=(n,) + new.out_shape))
        _assert_conv_step_equal(new, old, x, delta)

    def test_backward_does_not_write_through_delta(self):
        new, _ = _conv_pair(2, 6, 3, 3, 1, 1, True)
        rng = np.random.default_rng(14)
        new.forward(normal(rng, (4, 2, 6, 6)))
        delta = normal(rng, (4, 3, 6, 6))
        before = delta.copy()
        new.backward(delta)
        assert_same_bits(delta, before)


# ----------------------------------------------------------------------
# Whole network
# ----------------------------------------------------------------------

def _train(net, steps, batch, seed):
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        x = rng.random((batch, 1, 28, 28), dtype=np.float32)
        y = np.eye(10, dtype=np.float32)[rng.integers(0, 10, batch)]
        losses.append(net.train_batch(x, y))
    return losses


def _build(conv, filters, batch):
    return build_mnist_cnn(
        n_conv_layers=conv, filters=filters, batch=batch,
        rng=np.random.default_rng(21),
    )


def _reference(net):
    """``ref.as_reference`` plus the one signature the frozen bodies
    lack: the first layer's ``accumulate`` runs its frozen ``backward``
    and drops the input delta."""
    ref.as_reference(net)
    first = net.layers[0]
    first.accumulate = first.backward
    return net


class TestWholeNetwork:
    def test_batch128_training_is_bit_identical(self):
        """The benchmark's shape: 5 conv x 16 filters at batch 128."""
        new = _build(5, 16, 128)
        old = _reference(_build(5, 16, 128))
        assert _train(new, 4, 128, seed=22) == _train(old, 4, 128, seed=22)
        for (_, (name, a)), (_, (_, b)) in zip(
            new.parameter_buffers(), old.parameter_buffers()
        ):
            assert_same_bits(a, b)

    def test_training_never_computes_the_input_delta(self, monkeypatch):
        """Like Darknet's NULL ``net.delta``: layer 0 accumulates its
        gradients and nothing back-propagates into the input — its
        ``backward`` is never called, and ``col2im`` runs once per step
        for the second conv only."""
        net = _build(2, 4, 4)
        calls = []

        def counting_col2im(*args):
            calls.append(args[1])
            return m.col2im(*args)

        def no_input_delta(delta):
            raise AssertionError("layer 0's input delta was computed")

        monkeypatch.setattr(
            "repro.darknet.layers.convolutional.col2im", counting_col2im
        )
        net.layers[0].backward = no_input_delta
        _train(net, 2, 4, seed=24)
        assert calls == [(4, 4, 14, 14)] * 2  # the second conv's input

    def test_backward_from_returns_the_reference_input_delta(self):
        """A pipeline stage (no softmax) still back-propagates into its
        input, bit for bit as the frozen bodies do."""
        rng = np.random.default_rng(25)
        x = rng.random((128, 1, 28, 28), dtype=np.float32)
        delta = rng.normal(size=(128, 10)).astype(np.float32)
        new = Network(_build(5, 16, 128).layers[:-1])
        old = ref.as_reference(Network(_build(5, 16, 128).layers[:-1]))
        new.forward(x)
        old.forward(x)
        assert_same_bits(new.backward_from(delta), old.backward_from(delta))

    def test_federated_shape_agrees_to_rounding(self):
        """1 conv x 2 filters at batch 4: the reference's conv-backward
        reductions ran in whatever order numpy picked for a C-ordered
        delta, the kernels' run in the canonical one — same maths,
        last-bit differences."""
        new = _build(1, 2, 4)
        old = _reference(_build(1, 2, 4))
        np.testing.assert_allclose(
            _train(new, 8, 4, seed=23), _train(old, 8, 4, seed=23), rtol=1e-5
        )
        for (_, (_, a)), (_, (_, b)) in zip(
            new.parameter_buffers(), old.parameter_buffers()
        ):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-5)
