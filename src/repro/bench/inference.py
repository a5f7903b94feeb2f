"""Secure inference (Section VI): train a 12-layer CNN, classify the
test set inside the enclave.

The paper trains a CNN with 12 LReLU convolutional layers on MNIST and
classifies the 10,000-image test set at 98.52% accuracy.  Here the
model trains on the synthetic MNIST substitute; the check is the shape
(high-90s accuracy from in-enclave training + in-enclave inference),
not the exact percentage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import PliniusSystem
from repro.darknet.inference import accuracy
from repro.data import synthetic_mnist, to_data_matrix

#: Seeds the dataset, the system and every draw of this harness.
SEED = 7


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of the secure-inference experiment."""

    server: str
    train_iterations: int
    test_samples: int
    accuracy: float
    final_loss: float


def run_inference(
    server: str = "emlSGX-PM",
    n_conv_layers: int = 12,
    iterations: int = 400,
    n_train: int = 6000,
    n_test: int = 1000,
) -> InferenceResult:
    """Train an 8-filter model at batch 64, then evaluate; returns the
    measured accuracy."""
    train_images, train_labels, test_images, test_labels = synthetic_mnist(
        n_train, n_test, seed=SEED
    )
    train_data = to_data_matrix(train_images, train_labels)
    test_data = to_data_matrix(test_images, test_labels)

    system = PliniusSystem.create(server=server, seed=SEED, pm_size=160 << 20)
    system.load_data(train_data)
    network = system.build_model(n_conv_layers=n_conv_layers, filters=8, batch=64)
    result = system.train(network, iterations=iterations)
    acc = accuracy(network, test_data, input_shape=(1, 28, 28))
    return InferenceResult(
        server=server,
        train_iterations=iterations,
        test_samples=len(test_data),
        accuracy=acc,
        final_loss=result.final_loss,
    )
