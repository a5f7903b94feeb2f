"""Property-based tests of Darknet layers over random shapes."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darknet.activations import get_activation
from repro.darknet.arena import TensorArena
from repro.darknet.layers import (
    AvgPoolLayer,
    ConnectedLayer,
    ConvolutionalLayer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from tests.reference_kernels import sample_minor

_dims = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(1, 3),  # channels
    st.integers(3, 7),  # height == width
)


@given(_dims, st.integers(1, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_shapes_and_backward_shape(dims, filters, seed):
    n, c, h = dims
    layer = ConvolutionalLayer(
        (c, h, h), filters=filters, kernel=3, stride=1, pad=1,
        batch_normalize=False, rng=np.random.default_rng(seed),
    )
    x = np.random.default_rng(seed + 1).normal(size=(n, c, h, h))
    out = layer.forward(x)
    assert out.shape == (n, filters, h, h)
    dx = layer.backward(np.ones_like(out))
    assert dx.shape == x.shape
    assert np.isfinite(dx).all()


@given(_dims, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_maxpool_output_is_subset_of_input(dims, seed):
    n, c, h = dims
    if h < 2:
        return
    layer = MaxPoolLayer((c, h, h), size=2, stride=1)
    x = np.random.default_rng(seed).normal(size=(n, c, h, h)).astype(
        np.float32
    )
    out = layer.forward(x)
    # Every pooled value appears somewhere in the input.
    assert np.isin(out, x).all()
    # And is >= every element of its window (spot check via global max).
    assert out.max() == x.max()


@given(_dims, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_avgpool_preserves_mean(dims, seed):
    n, c, h = dims
    layer = AvgPoolLayer((c, h, h))
    x = np.random.default_rng(seed).normal(size=(n, c, h, h)).astype(
        np.float32
    )
    out = layer.forward(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-5)
    # Backward conserves the total gradient mass per channel.
    delta = np.random.default_rng(seed + 1).normal(size=out.shape).astype(
        np.float32
    )
    dx = layer.backward(delta)
    np.testing.assert_allclose(
        dx.sum(axis=(2, 3)), delta, rtol=1e-4, atol=1e-5
    )


@given(
    st.integers(1, 5),
    st.integers(2, 10),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_softmax_invariances(batch, classes, seed):
    layer = SoftmaxLayer((classes,))
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(batch, classes)) * 5
    probs = layer.forward(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
    assert (probs >= 0).all()
    # Shift invariance: softmax(x + c) == softmax(x).
    shifted = layer.forward(logits + 123.0)
    np.testing.assert_allclose(shifted, probs, rtol=1e-4, atol=1e-6)
    # Loss is non-negative and finite for any one-hot truth.
    truth = np.zeros((batch, classes), dtype=np.float32)
    truth[np.arange(batch), rng.integers(0, classes, batch)] = 1.0
    layer.forward(logits)
    loss = layer.loss(truth)
    assert np.isfinite(loss) and loss >= 0


@given(
    st.integers(1, 20),
    st.integers(1, 10),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_connected_linearity(inputs, outputs, batch, seed):
    """A linear connected layer is, in fact, linear."""
    layer = ConnectedLayer(
        (inputs,), outputs=outputs, activation="linear",
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1)
    a = rng.normal(size=(batch, inputs)).astype(np.float32)
    b = rng.normal(size=(batch, inputs)).astype(np.float32)
    lhs = layer.forward(a + b) + layer.biases  # f(a+b) double-counts bias
    rhs = layer.forward(a) + layer.forward(b)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-4)


# ----------------------------------------------------------------------
# Layout independence (the contract in ``Layer.backward``'s docstring)
# ----------------------------------------------------------------------

def _layouts(a):
    """The same logical array C-ordered, sample-minor and as a
    non-contiguous slice of a larger buffer."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1] + 1,), dtype=a.dtype)
    wide[..., 1::2] = a
    return [np.ascontiguousarray(a), sample_minor(a), wide[..., 1::2]]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


_layout_dims = st.tuples(
    st.integers(1, 9),  # batch
    st.integers(1, 4),  # channels
    st.integers(4, 9),  # height == width
)


@given(
    _layout_dims, st.integers(1, 5), st.sampled_from([(1, 1), (2, 1), (1, 0)]),
    st.booleans(), st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_conv_is_layout_independent(dims, filters, stride_pad, bn, seed):
    n, c, h = dims
    stride, pad = stride_pad
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, h)).astype(np.float32)
    results = set()
    for x_view in _layouts(x):
        layer = ConvolutionalLayer(
            (c, h, h), filters=filters, kernel=3, stride=stride, pad=pad,
            batch_normalize=bn, rng=np.random.default_rng(seed),
        )
        delta = np.random.default_rng(seed + 1).normal(
            size=(n,) + layer.out_shape
        ).astype(np.float32)
        for delta_view in _layouts(delta):
            out = layer.forward(x_view)
            dx = layer.backward(delta_view)
            results.add(
                (_bits(out), _bits(dx))
                + tuple(_bits(grad) for _, grad in layer.trainable())
            )
            for _, grad in layer.trainable():
                grad[...] = 0.0
    assert len(results) == 1


@given(
    _layout_dims, st.sampled_from([(2, 2), (3, 2), (2, 1)]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_maxpool_is_layout_independent(dims, size_stride, seed):
    n, c, h = dims
    size, stride = size_stride
    layer = MaxPoolLayer((c, h, h), size=size, stride=stride)
    rng = np.random.default_rng(seed)
    # Few distinct values, both zeros among them: ties are the
    # interesting case.
    values = np.float32([-2.0, -1.0, -0.0, 0.0, 1.0])
    x = values[rng.integers(0, len(values), size=(n, c, h, h))]
    delta = rng.normal(size=(n,) + layer.out_shape).astype(np.float32)
    outs, input_deltas = [], set()
    for x_view in _layouts(x):
        out = layer.forward(x_view)
        for delta_view in _layouts(delta):
            assert _bits(layer.forward(x_view)) == _bits(out)
            input_deltas.add(_bits(layer.backward(delta_view)))
        outs += [out, layer.infer(x_view, TensorArena().workspace(0))]
    assert len(input_deltas) == 1
    # The contract's carve-out: a zero maximum over a window holding
    # both zeros has an unspecified sign, so zeros compare by value.
    nonzero = outs[0] != 0
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])
        assert _bits(out[nonzero]) == _bits(outs[0][nonzero])


@given(
    st.sampled_from(["leaky", "relu", "linear", "logistic", "tanh"]),
    _layout_dims, st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_activations_are_layout_independent(name, dims, seed):
    act = get_activation(name)
    n, c, h = dims
    x = np.random.default_rng(seed).normal(size=(n, c, h, h)).astype(
        np.float32
    )
    results = {
        (_bits(act.forward(v)), _bits(act.gradient(act.forward(v))))
        for v in _layouts(x)
    }
    assert len(results) == 1
