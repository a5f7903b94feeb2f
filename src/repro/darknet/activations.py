"""Activation functions with their derivatives (Darknet's vocabulary).

The paper's models use *leaky rectified linear units* (LReLU) in every
convolutional layer; Darknet's ``leaky`` uses a fixed slope of 0.1.

Each activation carries two forward implementations:

* ``forward`` — the allocating one, used by training;
* ``forward_into`` — the arena-backed one, used by ``Layer.infer``, the
  only inference path.  It receives the pre-activation tensor and a
  workspace (and may overwrite the tensor) and must produce
  **bitwise-identical** values to ``forward`` while allocating nothing:
  every in-place formulation below is the same ufunc sequence as
  ``forward`` (multiplication and addition are exactly commutative in
  IEEE 754, and ``out=`` never changes a ufunc's rounding).  The test
  suite pins the equality for all five, signed zeros and NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

ArrayFn = Callable[[np.ndarray], np.ndarray]
#: (pre_activation, workspace) -> activated tensor; may write in place.
InplaceFn = Callable[[np.ndarray, object], np.ndarray]


@dataclass(frozen=True)
class Activation:
    """An elementwise activation and its derivative.

    ``gradient`` receives the *activated output* (Darknet convention:
    derivatives are computed from the forward output, which is exact for
    every activation implemented here) and returns a fresh array laid
    out like it, which the layers multiply their delta into.
    """

    name: str
    forward: ArrayFn
    gradient: ArrayFn
    forward_into: InplaceFn


def _leaky_forward(x: np.ndarray) -> np.ndarray:
    # max(0.1x, x) is x where x > 0 and 0.1x elsewhere — the value a
    # select on ``x > 0`` picks, bit for bit (0.1 * ±0 = ±0, NaN stays
    # NaN) — and, unlike a select, numpy vectorises it.
    out = 0.1 * x
    return np.maximum(out, x, out=out)


def _leaky_forward_into(x: np.ndarray, ws) -> np.ndarray:
    # The same ufunc chain as ``_leaky_forward``, into an arena buffer.
    out = ws.take("act.out", x.shape, x.dtype)
    np.multiply(x, 0.1, out=out)
    return np.maximum(out, x, out=out)


def _leaky_gradient(y: np.ndarray) -> np.ndarray:
    # 1 where y > 0, else 0.1: sign(y) is 1 / ±0 / -1 and the weak
    # scalar 0.1 rounds to y's dtype exactly as ``astype`` would.
    slope = np.sign(y)
    return np.maximum(slope, 0.1, out=slope)


def _relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def _relu_forward_into(x: np.ndarray, ws) -> np.ndarray:
    np.maximum(x, 0, out=x)
    return x


def _relu_gradient(y: np.ndarray) -> np.ndarray:
    return (y > 0).astype(y.dtype)


def _linear_forward(x: np.ndarray) -> np.ndarray:
    return x


def _linear_forward_into(x: np.ndarray, ws) -> np.ndarray:
    return x


def _linear_gradient(y: np.ndarray) -> np.ndarray:
    return np.ones_like(y)


def _logistic_forward(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _logistic_forward_into(x: np.ndarray, ws) -> np.ndarray:
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=x)
    np.divide(1.0, x, out=x)
    return x


def _logistic_gradient(y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_forward_into(x: np.ndarray, ws) -> np.ndarray:
    np.tanh(x, out=x)
    return x


def _tanh_gradient(y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


_ACTIVATIONS: Dict[str, Activation] = {
    a.name: a
    for a in (
        Activation("leaky", _leaky_forward, _leaky_gradient, _leaky_forward_into),
        Activation("relu", _relu_forward, _relu_gradient, _relu_forward_into),
        Activation("linear", _linear_forward, _linear_gradient, _linear_forward_into),
        Activation(
            "logistic", _logistic_forward, _logistic_gradient, _logistic_forward_into
        ),
        Activation("tanh", _tanh_forward, _tanh_gradient, _tanh_forward_into),
    )
}


def get_activation(name: str) -> Activation:
    """Look up an activation by its Darknet name."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None
