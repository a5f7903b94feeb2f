"""The layer interface shared by all Darknet layers.

Two views of a layer's state matter to Plinius:

* ``trainable()`` — (parameter, gradient) pairs the SGD optimizer
  updates;
* ``parameter_buffers()`` — *every* persistent parameter array, in a
  stable order, which is what the mirroring module encrypts to PM.  For
  a batch-normalized convolutional layer this is the paper's five
  matrices: weights, biases, scales, rolling mean, rolling variance.
"""

from __future__ import annotations

import abc
from typing import Any, List, Tuple

import numpy as np

ParamPair = Tuple[np.ndarray, np.ndarray]
NamedBuffer = Tuple[str, np.ndarray]

#: Values per draw of :func:`uniform_weights`: a 512 KiB float64 window.
INIT_CHUNK = 1 << 16


def uniform_weights(
    rng: np.random.Generator, scale: float, shape: Tuple[int, ...]
) -> np.ndarray:
    """Darknet's weight initialisation, ``scale * U(-1, 1)`` as float32.

    The same bits, and the same draws from ``rng``, as
    ``(scale * rng.uniform(-1, 1, shape)).astype(np.float32)``, but
    drawn :data:`INIT_CHUNK` values at a time into the float32 array,
    so no float64 temporary as large as the layer is ever made.
    """
    weights = np.empty(shape, np.float32)
    flat = weights.reshape(-1)
    for start in range(0, flat.size, INIT_CHUNK):
        draw = rng.uniform(-1, 1, min(INIT_CHUNK, flat.size - start))
        draw *= scale
        flat[start : start + draw.size] = draw
    return weights


class GradientBuffer:
    """A gradient accumulator made on first read.

    Declared on a layer class against the parameter it accumulates for
    (``weight_updates = GradientBuffer("weights")``).  The first read —
    an accumulate, ``trainable()``, or the attribute itself — stores
    zeros shaped like the parameter on the instance, which from then on
    shadows this descriptor, so every later read is a plain attribute.
    """

    def __init__(self, param: str) -> None:
        self.param = param
        self.name = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, layer: Any, owner: Any = None) -> Any:
        if layer is None:
            return self
        buffer = np.zeros_like(getattr(layer, self.param))
        layer.__dict__[self.name] = buffer
        return buffer


class Layer(abc.ABC):
    """Base class for network layers.

    Subclasses must set ``out_shape`` (per-sample output shape) during
    construction and implement the training passes (``forward`` /
    ``backward``) and the one inference pass (``infer``).
    """

    #: Darknet section name, e.g. "convolutional".
    kind: str = "layer"
    out_shape: Tuple[int, ...] = ()

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training forward: batch statistics, dropout masks, and the
        caches ``backward`` reads.  Inference never runs it (see
        :meth:`infer`)."""

    @abc.abstractmethod
    def backward(self, delta: np.ndarray) -> np.ndarray:
        """Back-propagate ``delta``; accumulates parameter gradients.

        Layout contract: conv, pooling and activation kernels return
        the same bits — outputs, input deltas, gradient accumulators —
        whether ``x`` / ``delta`` arrive C-ordered, sample-minor (memory
        order C, H, W, N: what the batch-fused GEMM emits and training
        keeps) or as a non-contiguous view; their multi-axis reductions
        always run on sample-minor buffers.  ``ConnectedLayer`` is
        exempt (see its docstring), and so is the sign of a max-pool
        output that is zero over a window holding both ``+0`` and ``-0``.
        """

    def accumulate(self, delta: np.ndarray) -> None:
        """Back-propagate ``delta`` into the parameter gradients only.

        What ``Network.backward`` asks of the first layer: like Darknet,
        which hands layer 0 a NULL ``net.delta``, training never computes
        the delta of the network input.  The default runs ``backward``
        and drops the result; ``ConvolutionalLayer`` skips its input-delta
        GEMM and ``col2im`` and accumulates the same bits.
        """
        self.backward(delta)

    @abc.abstractmethod
    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        """The inference forward, into workspace (arena) buffers.

        The only inference path: serving, ``accuracy`` and the crash
        harness's reference responses all run it.  It reads the rolling
        batch-norm statistics, applies no dropout and caches nothing.
        Contract: each sample's output is **bitwise identical** whatever
        batch it rides in — the serving tier relies on this to coalesce
        requests without changing any sealed response byte.  The
        returned array may be a workspace view, valid until the next
        ``infer`` on the same workspace.
        """

    def trainable(self) -> List[ParamPair]:
        """(parameter, gradient) pairs for the optimizer."""
        return []

    def parameter_buffers(self) -> List[NamedBuffer]:
        """All persistent parameter arrays, in mirror order."""
        return []

    def set_parameter(self, name: str, values: np.ndarray) -> None:
        """Overwrite one named parameter buffer in place."""
        for buffer_name, buffer in self.parameter_buffers():
            if buffer_name == name:
                if buffer.size != values.size:
                    raise ValueError(
                        f"{self.kind}.{name}: size mismatch "
                        f"{values.size} != {buffer.size}"
                    )
                buffer[...] = values.reshape(buffer.shape)
                return
        raise KeyError(f"{self.kind} has no parameter {name!r}")

    @property
    def param_count(self) -> int:
        """Total number of parameter scalars."""
        return sum(buf.size for _, buf in self.parameter_buffers())

    @property
    def param_bytes(self) -> int:
        """Total parameter footprint in bytes."""
        return sum(buf.nbytes for _, buf in self.parameter_buffers())

    def flops(self, batch: int) -> float:
        """Approximate FLOPs of one forward+backward pass."""
        return 0.0
