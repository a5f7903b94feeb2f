"""Model zoo: the CNN families used in the paper's evaluation.

All evaluation models are convolutional neural networks whose
"convolutional layers use leaky rectified linear unit (LReLU) as
activation, and all output layers are softmax layers" (Section VI).
The paper varies model size for Fig. 7 "by increasing the total number
of convolutional layers"; Figs. 8/9 use 5 LReLU-conv layers and Fig. 10
and the inference experiment use 12.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.darknet.cfg import build_network, parse_cfg
from repro.darknet.network import Network

MNIST_INPUT_SHAPE = (1, 28, 28)


def cnn_cfg(
    n_conv_layers: int = 5,
    filters: int = 16,
    batch: int = 128,
) -> str:
    """Darknet ``.cfg`` text for an MNIST LReLU-CNN.

    ``n_conv_layers`` batch-normalized 3x3 LReLU convolutions, two
    early maxpools (keeping deep stacks affordable at 28x28), then a
    10-way connected + softmax head — the architecture family of the
    paper's experiments (SGD, learning rate 0.1, batch 128 defaults).
    """
    if n_conv_layers < 1:
        raise ValueError(f"need at least one conv layer, got {n_conv_layers}")
    lines = [
        "[net]",
        f"batch={batch}",
        "learning_rate=0.1",
        "momentum=0.9",
        "decay=0.0005",
        "height=28",
        "width=28",
        "channels=1",
    ]
    for i in range(n_conv_layers):
        lines += [
            "",
            "[convolutional]",
            "batch_normalize=1",
            f"filters={filters}",
            "size=3",
            "stride=1",
            "pad=1",
            "activation=leaky",
        ]
        if i in (0, 1):
            lines += ["", "[maxpool]", "size=2", "stride=2"]
    lines += ["", "[connected]", "output=10", "activation=linear", "", "[softmax]"]
    return "\n".join(lines) + "\n"


def build_mnist_cnn(
    n_conv_layers: int = 5,
    filters: int = 16,
    batch: int = 128,
    rng: Optional[np.random.Generator] = None,
) -> Network:
    """Build (with initialized weights) an MNIST LReLU-CNN."""
    config = parse_cfg(
        cnn_cfg(n_conv_layers=n_conv_layers, filters=filters, batch=batch)
    )
    return build_network(config, rng or np.random.default_rng(0))


def build_sized_cnn(
    target_bytes: int,
    rng: Optional[np.random.Generator] = None,
    filters: int = 512,
) -> Network:
    """A CNN whose parameter footprint approximates ``target_bytes``.

    This is the Fig. 7 model-size sweep knob: stacking 3x3
    ``filters``-to-``filters`` convolutions (~9.4 MB each at 512
    filters) until the requested size is reached.  The first
    convolution reads the 1-channel input and is therefore tiny, so the
    realized size undershoots the target by roughly one layer —
    harmless for the sweep, which reports the *actual* ``param_bytes``
    of every point.
    """
    per_layer = 4 * (filters * filters * 9 + 4 * filters)  # f32 weights + stats
    n_layers = max(1, round(target_bytes / per_layer))
    return build_mnist_cnn(
        n_conv_layers=n_layers,
        filters=filters,
        rng=rng or np.random.default_rng(0),
    )
