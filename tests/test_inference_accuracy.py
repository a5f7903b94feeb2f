"""Secure inference (Section VI): the trained CNN classifies the test
set at high accuracy.

The paper reports 98.52% on real MNIST with a 12-layer CNN; on the
synthetic substitute we assert the shape (>= 90%) at a reduced scale
that keeps the test affordable.  The full-scale run lives in
``benchmarks/bench_inference.py``.
"""

from __future__ import annotations

import pytest

from repro.bench import run_inference


@pytest.fixture(scope="module")
def result():
    return run_inference(
        n_conv_layers=6,
        iterations=200,
        n_train=2500,
        n_test=500,
    )


def test_accuracy_high(result):
    assert result.accuracy >= 0.90


def test_loss_converged(result):
    assert result.final_loss < 0.3


def test_metadata(result):
    assert result.test_samples == 500
    assert result.train_iterations == 200
