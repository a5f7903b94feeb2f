"""Secure inference (Section VI): 12-LReLU-conv CNN on the MNIST test set.

Paper: 98.52% on the 10,000-image MNIST test set.  Here the model trains
and classifies the synthetic MNIST substitute inside the simulated
enclave; the asserted shape is high-90s accuracy.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench import run_inference


def test_secure_inference_accuracy(benchmark):
    result = run_once(
        benchmark,
        run_inference,
        server="emlSGX-PM",
        n_conv_layers=12,
        iterations=400,
        n_train=6000,
        n_test=1000,
    )

    print("\nSecure inference — 12 LReLU-conv CNN")
    print(
        f"accuracy {result.accuracy:.2%} on {result.test_samples} test "
        f"images after {result.train_iterations} iterations "
        f"(final loss {result.final_loss:.4f}) — paper: 98.52%"
    )
    assert result.accuracy > 0.95
    benchmark.extra_info["accuracy"] = round(result.accuracy, 4)
