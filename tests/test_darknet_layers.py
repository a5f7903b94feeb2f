"""Darknet layers: shapes, semantics, and numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.darknet.activations import get_activation
from repro.darknet.arena import TensorArena
from repro.darknet.im2col import col2im, conv_output_size, im2col
from repro.darknet.layers import (
    AvgPoolLayer,
    ConnectedLayer,
    ConvolutionalLayer,
    DropoutLayer,
    MaxPoolLayer,
    SoftmaxLayer,
)


class TestActivations:
    def test_leaky_slope(self):
        act = get_activation("leaky")
        x = np.array([-2.0, 0.5])
        np.testing.assert_allclose(act.forward(x), [-0.2, 0.5])

    def test_leaky_gradient_from_output(self):
        act = get_activation("leaky")
        y = act.forward(np.array([-2.0, 0.5]))
        np.testing.assert_allclose(act.gradient(y), [0.1, 1.0])

    def test_relu(self):
        act = get_activation("relu")
        np.testing.assert_allclose(act.forward(np.array([-1.0, 2.0])), [0, 2])

    def test_logistic_range(self):
        act = get_activation("logistic")
        y = act.forward(np.linspace(-5, 5, 11))
        assert np.all((y > 0) & (y < 1))

    def test_unknown_activation(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("swish")

    @pytest.mark.parametrize("name", ["leaky", "relu", "linear", "logistic", "tanh"])
    def test_gradient_matches_finite_difference(self, name):
        act = get_activation(name)
        x = np.linspace(-2, 2, 41)
        x = x[np.abs(x) > 1e-3]  # avoid the kink at 0
        eps = 1e-6
        numeric = (act.forward(x + eps) - act.forward(x - eps)) / (2 * eps)
        analytic = act.gradient(act.forward(x))
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)


class TestIm2col:
    def test_output_size(self):
        assert conv_output_size(28, 3, 1, 1) == 28
        assert conv_output_size(28, 3, 2, 1) == 14
        assert conv_output_size(5, 5, 1, 0) == 1

    def test_im2col_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3 * 3 * 3)).astype(np.float32)
        cols = im2col(x, 3, 1, 1)
        fast = (w @ cols).reshape(4, 8, 8, 2).transpose(3, 0, 1, 2)

        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        direct = np.zeros((2, 4, 8, 8), dtype=np.float32)
        wk = w.reshape(4, 3, 3, 3)
        for n in range(2):
            for f in range(4):
                for i in range(8):
                    for j in range(8):
                        patch = padded[n, :, i : i + 3, j : j + 3]
                        direct[n, f, i, j] = (patch * wk[f]).sum()
        np.testing.assert_allclose(fast, direct, rtol=1e-4, atol=1e-4)

    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining property."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 1, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_stride_and_no_padding(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2, 0)
        assert cols.shape == (4, 4)  # 2x2 kernel, 2x2 output positions


def _numeric_param_grad(layer, x, param, delta_out, eps=1e-4):
    """Central-difference gradient of sum(forward*delta) wrt param."""
    grad = np.zeros_like(param, dtype=np.float64)
    flat = param.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = float((layer.forward(x) * delta_out).sum())
        flat[idx] = orig - eps
        down = float((layer.forward(x) * delta_out).sum())
        flat[idx] = orig
        grad.reshape(-1)[idx] = (up - down) / (2 * eps)
    return grad


class TestConvolutional:
    def make(self, batch_normalize=False, activation="linear"):
        rng = np.random.default_rng(3)
        return ConvolutionalLayer(
            (2, 5, 5), filters=3, kernel=3, stride=1, pad=1,
            activation=activation, batch_normalize=batch_normalize, rng=rng,
        )

    def test_output_shape(self):
        layer = self.make()
        x = np.random.default_rng(0).normal(size=(4, 2, 5, 5)).astype(np.float32)
        assert layer.forward(x).shape == (4, 3, 5, 5)
        assert layer.out_shape == (3, 5, 5)

    def test_five_buffers_with_batchnorm(self):
        names = [n for n, _ in self.make(batch_normalize=True).parameter_buffers()]
        assert names == [
            "weights", "biases", "scales", "rolling_mean", "rolling_variance",
        ]

    def test_two_buffers_without_batchnorm(self):
        names = [n for n, _ in self.make().parameter_buffers()]
        assert names == ["weights", "biases"]

    def test_collapsing_config_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            ConvolutionalLayer((1, 2, 2), filters=1, kernel=5, stride=1, pad=0)

    def test_weight_gradient_numerical(self):
        layer = self.make()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float64)
        delta = rng.normal(size=(2, 3, 5, 5)).astype(np.float64)
        layer.forward(x)
        layer.backward(delta)
        numeric = _numeric_param_grad(layer, x, layer.weights, delta)
        np.testing.assert_allclose(
            layer.weight_updates, numeric, rtol=2e-2, atol=2e-3
        )

    def test_input_gradient_numerical(self):
        layer = self.make()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float64)
        delta = rng.normal(size=(2, 3, 5, 5)).astype(np.float64)
        layer.forward(x)
        dx = layer.backward(delta)
        eps = 1e-4
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + eps
            up = float((layer.forward(x) * delta).sum())
            x[idx] = orig - eps
            down = float((layer.forward(x) * delta).sum())
            x[idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(dx, numeric, rtol=2e-2, atol=2e-3)

    def test_batchnorm_normalizes_in_train_mode(self):
        layer = self.make(batch_normalize=True)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 2, 5, 5)).astype(np.float32) * 10 + 3
        out = layer.forward(x)
        # Scales=1, biases=0 at init -> per-filter output ~N(0,1).
        means = out.mean(axis=(0, 2, 3))
        stds = out.std(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0, atol=0.1)
        np.testing.assert_allclose(stds, 1, atol=0.15)

    def test_batchnorm_scale_gradient_numerical(self):
        layer = self.make(batch_normalize=True)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2, 5, 5)).astype(np.float64)
        delta = rng.normal(size=(4, 3, 5, 5)).astype(np.float64)
        layer.forward(x)
        layer.backward(delta)
        analytic = layer.scale_updates.copy()
        # Finite differences perturb rolling stats; freeze them by
        # re-measuring with the same inputs each time (stats re-update
        # identically), so the comparison is still valid.
        rolling_m = layer.rolling_mean.copy()
        rolling_v = layer.rolling_variance.copy()
        numeric = np.zeros_like(layer.scales, dtype=np.float64)
        eps = 1e-4
        for i in range(layer.scales.size):
            for sign, slot in ((+1, 0), (-1, 1)):
                layer.rolling_mean[...] = rolling_m
                layer.rolling_variance[...] = rolling_v
                layer.scales[i] += sign * eps
                val = float((layer.forward(x) * delta).sum())
                layer.scales[i] -= sign * eps
                if slot == 0:
                    up = val
                else:
                    numeric[i] = (up - val) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=2e-2, atol=2e-3)

    def test_rolling_stats_update_only_in_train_mode(self):
        layer = self.make(batch_normalize=True)
        x = np.random.default_rng(9).normal(size=(4, 2, 5, 5)).astype(np.float32)
        before = layer.rolling_mean.copy()
        layer.infer(x, TensorArena().workspace(0))
        np.testing.assert_array_equal(layer.rolling_mean, before)
        layer.forward(x)
        assert not np.array_equal(layer.rolling_mean, before)

    def test_flops_positive_and_scale_with_batch(self):
        layer = self.make()
        assert layer.flops(2) == 2 * layer.flops(1) > 0


class TestConnected:
    def test_shapes_and_flatten(self):
        layer = ConnectedLayer((3, 4, 4), outputs=10, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 3, 4, 4)).astype(np.float32)
        assert layer.forward(x).shape == (5, 10)

    def test_wrong_input_size_rejected(self):
        layer = ConnectedLayer((8,), outputs=4)
        with pytest.raises(ValueError, match="expects 8 inputs"):
            layer.forward(np.zeros((2, 9), dtype=np.float32))

    def test_gradients_numerical(self):
        layer = ConnectedLayer((6,), outputs=4, activation="linear",
                               rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 6)).astype(np.float64)
        delta = rng.normal(size=(3, 4)).astype(np.float64)
        layer.forward(x)
        dx = layer.backward(delta)
        # Linear layer: analytic forms are exact.
        np.testing.assert_allclose(layer.weight_updates, delta.T @ x, rtol=1e-5)
        np.testing.assert_allclose(layer.bias_updates, delta.sum(0), rtol=1e-5)
        np.testing.assert_allclose(dx, delta @ layer.weights, rtol=1e-5)

    def test_backward_restores_input_shape(self):
        layer = ConnectedLayer((3, 4, 4), outputs=10, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 3, 4, 4)).astype(np.float32)
        layer.forward(x)
        dx = layer.backward(np.ones((5, 10), dtype=np.float32))
        assert dx.shape == x.shape


class TestPooling:
    def test_maxpool_values(self):
        layer = MaxPoolLayer((1, 4, 4), size=2, stride=2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPoolLayer((1, 4, 4), size=2, stride=2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        expected = np.zeros((4, 4))
        for i, j in ((1, 1), (1, 3), (3, 1), (3, 3)):
            expected[i, j] = 1
        np.testing.assert_array_equal(dx[0, 0], expected)

    def test_maxpool_overlapping_windows(self):
        layer = MaxPoolLayer((1, 4, 4), size=2, stride=1)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 0, 0] == 5.0

    def test_maxpool_collapse_rejected(self):
        with pytest.raises(ValueError):
            MaxPoolLayer((1, 2, 2), size=4, stride=4)

    def test_avgpool_global(self):
        layer = AvgPoolLayer((2, 3, 3))
        x = np.ones((4, 2, 3, 3), dtype=np.float32)
        x[:, 1] = 5.0
        out = layer.forward(x)
        np.testing.assert_allclose(out, [[1.0, 5.0]] * 4)

    def test_avgpool_backward_spreads_evenly(self):
        layer = AvgPoolLayer((1, 2, 2))
        layer.forward(np.zeros((1, 1, 2, 2), dtype=np.float32))
        dx = layer.backward(np.array([[4.0]], dtype=np.float32))
        np.testing.assert_allclose(dx[0, 0], np.ones((2, 2)))


class TestDropout:
    def test_identity_at_inference(self):
        layer = DropoutLayer((10,), probability=0.5)
        x = np.ones((4, 10), dtype=np.float32)
        np.testing.assert_array_equal(
            layer.infer(x, TensorArena().workspace(0)), x
        )

    def test_expected_scale_preserved(self):
        layer = DropoutLayer((1000,), probability=0.3,
                             rng=np.random.default_rng(0))
        x = np.ones((8, 1000), dtype=np.float32)
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self):
        layer = DropoutLayer((100,), probability=0.5,
                             rng=np.random.default_rng(1))
        x = np.ones((2, 100), dtype=np.float32)
        out = layer.forward(x)
        dx = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal((out == 0), (dx == 0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            DropoutLayer((4,), probability=1.0)

    def test_zero_probability_is_identity(self):
        layer = DropoutLayer((4,), probability=0.0)
        x = np.ones((2, 4), dtype=np.float32)
        np.testing.assert_array_equal(layer.forward(x), x)


class TestSoftmax:
    def test_probabilities_sum_to_one(self):
        layer = SoftmaxLayer((5,))
        probs = layer.forward(np.random.default_rng(0).normal(size=(3, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    def test_numerically_stable_for_large_logits(self):
        layer = SoftmaxLayer((3,))
        probs = layer.forward(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(probs).all()

    def test_loss_of_perfect_prediction_near_zero(self):
        layer = SoftmaxLayer((3,))
        layer.forward(np.array([[100.0, 0.0, 0.0]]))
        loss = layer.loss(np.array([[1.0, 0.0, 0.0]]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_loss_of_uniform_prediction(self):
        layer = SoftmaxLayer((4,))
        layer.forward(np.zeros((1, 4)))
        loss = layer.loss(np.array([[0.0, 1.0, 0.0, 0.0]]))
        assert loss == pytest.approx(np.log(4), rel=1e-6)

    def test_delta_is_probs_minus_truth_over_n(self):
        layer = SoftmaxLayer((3,))
        probs = layer.forward(np.random.default_rng(1).normal(size=(2, 3)))
        truth = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        layer.loss(truth)
        delta = layer.backward()
        np.testing.assert_allclose(delta, (probs - truth) / 2, rtol=1e-6)

    def test_protocol_enforced(self):
        layer = SoftmaxLayer((3,))
        with pytest.raises(RuntimeError, match="forward"):
            layer.loss(np.zeros((1, 3)))
        layer.forward(np.zeros((1, 3)))
        with pytest.raises(RuntimeError, match="loss"):
            layer.backward()
