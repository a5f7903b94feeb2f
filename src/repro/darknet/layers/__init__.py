"""Darknet layer implementations."""

from repro.darknet.layers.base import Layer
from repro.darknet.layers.convolutional import ConvolutionalLayer
from repro.darknet.layers.connected import ConnectedLayer
from repro.darknet.layers.pooling import MaxPoolLayer
from repro.darknet.layers.softmax import SoftmaxLayer

__all__ = [
    "Layer",
    "ConvolutionalLayer",
    "ConnectedLayer",
    "MaxPoolLayer",
    "SoftmaxLayer",
]
