"""Darknet ``.cfg`` model-description parsing and network construction.

In Plinius' partitioning, "parsing of model configuration files" happens
in the *untrusted* runtime (``sgx-darknet-helper``) — hyper-parameters
are public information under the threat model — and the parsed config is
passed into the enclave via an ecall to build the enclave model.

The format is Darknet's INI-like syntax: ``[section]`` headers followed
by ``key=value`` lines; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.darknet.layers import (
    ConnectedLayer,
    ConvolutionalLayer,
    Layer,
    MaxPoolLayer,
    SoftmaxLayer,
)
from repro.darknet.network import Network
from repro.darknet.policy import LearningRatePolicy

Options = Dict[str, str]


@dataclass
class NetworkConfig:
    """A parsed ``.cfg``: the ``[net]`` options plus the layer sections."""

    net: Options = field(default_factory=dict)
    sections: List[Tuple[str, Options]] = field(default_factory=list)

    # Typed accessors with Darknet's defaults.
    @property
    def batch(self) -> int:
        return int(self.net.get("batch", 1))

    @property
    def learning_rate(self) -> float:
        return float(self.net.get("learning_rate", 0.001))

    @property
    def momentum(self) -> float:
        return float(self.net.get("momentum", 0.9))

    @property
    def decay(self) -> float:
        return float(self.net.get("decay", 0.0001))

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return (
            int(self.net.get("channels", 1)),
            int(self.net.get("height", 0)),
            int(self.net.get("width", 0)),
        )


def parse_cfg(text: str) -> NetworkConfig:
    """Parse Darknet ``.cfg`` text into a :class:`NetworkConfig`."""
    config = NetworkConfig()
    current: Optional[Options] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = {}
            if name in ("net", "network"):
                config.net = current
            else:
                config.sections.append((name, current))
            continue
        if "=" not in line:
            raise ValueError(f"cfg line {lineno}: expected key=value, got {raw!r}")
        if current is None:
            raise ValueError(f"cfg line {lineno}: option before any [section]")
        key, _, value = line.partition("=")
        current[key.strip().lower()] = value.strip()
    if not config.sections:
        raise ValueError("cfg defines no layers")
    return config


def build_network(
    config: NetworkConfig, rng: Optional[np.random.Generator] = None
) -> Network:
    """Instantiate a :class:`Network` from a parsed config.

    This is the enclave-side model construction (``create_enclave_model``
    of Algorithm 2); ``rng`` seeds the weight initialization.
    """
    rng = rng or np.random.default_rng(0)
    shape: Tuple[int, ...] = config.input_shape
    if shape[1] <= 0 or shape[2] <= 0:
        raise ValueError("[net] must define height and width")
    if config.batch <= 0:
        raise ValueError(f"[net] batch must be positive, got {config.batch}")

    layers: List[Layer] = []
    for name, options in config.sections:
        layer = _build_layer(name, options, shape, rng)
        layers.append(layer)
        shape = layer.out_shape
    return Network(
        layers,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        decay=config.decay,
        batch=config.batch,
        lr_policy=LearningRatePolicy.from_options(config.net),
    )


def _positive(name: str, options: Options, key: str, default: int) -> int:
    """``options[key]`` as an int, refusing zero and negative geometry."""
    value = int(options.get(key, default))
    if value <= 0:
        raise ValueError(f"[{name}] {key} must be positive, got {value}")
    return value


def _build_layer(
    name: str,
    options: Options,
    in_shape: Tuple[int, ...],
    rng: np.random.Generator,
) -> Layer:
    if name == "convolutional":
        if len(in_shape) != 3:
            raise ValueError(f"convolutional layer needs a 3-D input, got {in_shape}")
        return ConvolutionalLayer(
            in_shape,  # type: ignore[arg-type]
            filters=_positive(name, options, "filters", 1),
            kernel=_positive(name, options, "size", 3),
            stride=_positive(name, options, "stride", 1),
            pad=int(options.get("pad", 1)),
            activation=options.get("activation", "leaky"),
            batch_normalize=bool(int(options.get("batch_normalize", 0))),
            rng=rng,
        )
    if name == "maxpool":
        if len(in_shape) != 3:
            raise ValueError(f"maxpool layer needs a 3-D input, got {in_shape}")
        size = _positive(name, options, "size", 2)
        return MaxPoolLayer(
            in_shape,  # type: ignore[arg-type]
            size=size,
            stride=_positive(name, options, "stride", size),
        )
    if name == "connected":
        return ConnectedLayer(
            in_shape,
            outputs=_positive(name, options, "output", 1),
            activation=options.get("activation", "linear"),
            rng=rng,
        )
    if name == "softmax":
        return SoftmaxLayer(in_shape)
    raise ValueError(f"unsupported layer type [{name}]")
