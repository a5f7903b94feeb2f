"""SGX-Darknet: a from-scratch numpy port of the Darknet ML framework.

Darknet [Redmon 2013-2016] is the lightweight C framework Plinius builds
on ("efficient and lightweight implementation in C that facilitates
integration with SGX enclaves").  This package reimplements the pieces
Plinius exercises:

* the layer vocabulary of the paper's models — convolutional layers with
  batch normalization and leaky-ReLU activation, max/average pooling,
  fully-connected, dropout, and softmax output;
* Darknet's ``.cfg`` model-description format (parsed *outside* the
  enclave by ``sgx-darknet-helper``, per the paper's partitioning);
* Darknet's ``.weights``-style binary serialization (the checkpoint
  payload of the SSD baseline);
* single-threaded SGD training (learning rate / momentum / decay) and
  inference.

Each convolutional layer with batch normalization exposes exactly five
parameter buffers (weights, biases, scales, rolling mean, rolling
variance) — the paper's accounting of "5 parameter matrices per layer"
and hence 140 B of per-layer encryption metadata follows from this.
"""

from repro.darknet.activations import Activation, get_activation
from repro.darknet.network import Network
from repro.darknet.cfg import NetworkConfig, build_network, parse_cfg, render_cfg
from repro.darknet.weights import load_weights, save_weights
from repro.darknet.data import DataMatrix
from repro.darknet.train import TrainingLog, train
from repro.darknet.inference import accuracy
from repro.darknet.layers import (
    AvgPoolLayer,
    ConnectedLayer,
    ConvolutionalLayer,
    DropoutLayer,
    Layer,
    MaxPoolLayer,
    SoftmaxLayer,
)

__all__ = [
    "Activation",
    "get_activation",
    "Network",
    "NetworkConfig",
    "parse_cfg",
    "render_cfg",
    "build_network",
    "save_weights",
    "load_weights",
    "DataMatrix",
    "train",
    "TrainingLog",
    "accuracy",
    "Layer",
    "ConvolutionalLayer",
    "ConnectedLayer",
    "MaxPoolLayer",
    "AvgPoolLayer",
    "DropoutLayer",
    "SoftmaxLayer",
]
