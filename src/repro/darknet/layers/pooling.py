"""Pooling layers: windowed max pooling and Darknet's global avgpool."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.darknet.layers.base import Layer

#: Bytes in a cache line: a pool input whose innermost memory run (the
#: batch axis, sample-minor) is shorter than this is gathered first.
_LINE_BYTES = 64


class MaxPoolLayer(Layer):
    """Max pooling with a square window."""

    kind = "maxpool"

    def __init__(
        self, in_shape: Tuple[int, int, int], size: int = 2, stride: int = 2
    ) -> None:
        c, h, w = in_shape
        out_h = (h - size) // stride + 1
        out_w = (w - size) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"maxpool collapses input {in_shape}")
        self.in_shape = in_shape
        self.size = size
        self.stride = stride
        self.out_shape = (c, out_h, out_w)
        self._argmax: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._gathered = False

    def _windows(self, x: np.ndarray) -> List[np.ndarray]:
        """One strided view of ``x`` per window offset, in ``(di, dj)`` order."""
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride
        return [
            x[:, :, di : di + st * out_h : st, dj : dj + st * out_w : st]
            for di in range(s)
            for dj in range(s)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Keep-first max over the windows, and the argmax plane
        ``backward`` routes through.

        When ``x``'s innermost memory run is a batch axis shorter than a
        cache line (sample-minor at federated batch sizes), every ufunc
        over a strided window would walk a handful of floats at a time,
        so the windows are gathered once into a contiguous block and the
        chain runs on that; otherwise it runs in ``x``'s layout, where a
        gather costs more than it saves.  Both select the same elements.

        ``np.maximum`` returns the bits a strict-``>`` scan selects:
        equal values are the same bits whichever operand is kept, and
        the argmax is first-equal, so gradients route keep-first
        everywhere.  The one exception: when a window's maximum is zero
        and it holds both ``+0`` and ``-0``, the sign of the result is
        unspecified (numpy does not say which zero ``maximum`` returns,
        so it may vary with layout and batch size); ``infer`` has the
        same carve-out.  The result is returned C-ordered (a copy only
        when the chain ran in a layout that is not), the operand a
        connected layer has always been handed after a pool.
        """
        gathered = (
            x.strides[0] == x.itemsize and x.shape[0] * x.itemsize < _LINE_BYTES
        )
        windows = self._windows(x)
        if gathered:  # one C-ordered (size², N, C, OH, OW) block
            windows = np.array(windows)
        out = windows[0].copy(order="K")
        for window in windows[1:]:
            np.maximum(window, out, out=out)
        # Index of the first window equal to the max = the number of
        # leading windows that all differ from it.
        unseen = windows[0] != out
        argmax = unseen.astype(np.min_scalar_type(len(windows)))
        for window in windows[1:-1]:
            unseen &= window != out
            argmax += unseen
        self._x_shape = x.shape
        self._argmax = argmax
        self._gathered = gathered
        return np.ascontiguousarray(out)

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        """Workspace-backed max pooling; elementwise per output cell, so
        any batch size is trivially bitwise-equal to a batch of one.

        Non-overlapping tilings (``size == stride``, the paper's
        configs) take a contiguous-reshape fast path: two single-axis
        ``np.max`` reductions (columns within each row, then rows).
        Keep-first ``np.maximum`` is associative — any reduction order
        selects the same element, bit for bit — and its ``>=`` tie
        behavior matches a strict-``>`` keep-accumulator loop, so values
        are identical while the memory walk stays sequential instead of
        strided.
        """
        n = x.shape[0]
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride
        out = ws.take("out", (n,) + self.out_shape, x.dtype)
        c = self.out_shape[0]
        if (
            s == st
            and x.shape[2] == out_h * s
            and x.shape[3] == out_w * s
            and x.flags.c_contiguous
        ):
            h = x.shape[2]
            colmax = ws.take("colmax", (n, c, h, out_w), x.dtype)
            tiles = x.reshape(n, c, h, out_w, s)
            np.copyto(colmax, tiles[..., 0])
            for j in range(1, s):
                np.maximum(colmax, tiles[..., j], out=colmax)
            rows = colmax.reshape(n, c, out_h, s, out_w)
            np.copyto(out, rows[:, :, :, 0, :])
            for i in range(1, s):
                np.maximum(out, rows[:, :, :, i, :], out=out)
            return out
        windows = self._windows(x)
        np.copyto(out, windows[0])
        for window in windows[1:]:
            np.maximum(window, out, out=out)
        return out

    def backward(self, delta: np.ndarray) -> np.ndarray:
        """Each window's ``delta * (argmax == idx)`` added into a zero
        input plane in window order: ``0 + δ`` at the argmax cell, ``+0``
        elsewhere.  After a gathered forward the window gradients are
        built as one contiguous block and scattered into a sample-minor
        plane (the forward input's layout); otherwise the plane is laid
        out like the argmax plane, i.e. like the forward input."""
        assert self._argmax is not None and self._x_shape is not None
        if self._gathered:
            n, c, h, w = self._x_shape
            dx = np.zeros((c, h, w, n), dtype=delta.dtype).transpose(3, 0, 1, 2)
            ids = np.arange(self.size**2, dtype=self._argmax.dtype)
            grads = delta * (self._argmax == ids.reshape(-1, 1, 1, 1, 1))
        else:
            dx = np.zeros_like(
                self._argmax, dtype=delta.dtype, shape=self._x_shape
            )
            grads = (delta * (self._argmax == idx) for idx in range(self.size**2))
        for window, grad in zip(self._windows(dx), grads):
            window += grad
        return dx


class AvgPoolLayer(Layer):
    """Darknet's ``[avgpool]``: global average over the spatial extent."""

    kind = "avgpool"

    def __init__(self, in_shape: Tuple[int, int, int]) -> None:
        c, h, w = in_shape
        self.in_shape = in_shape
        self.out_shape = (c,)
        self._spatial = h * w

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3))

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        out = ws.take("out", (x.shape[0],) + self.out_shape, x.dtype)
        np.mean(x, axis=(2, 3), out=out)
        return out

    def backward(self, delta: np.ndarray) -> np.ndarray:
        c, h, w = self.in_shape
        spread = delta.reshape(delta.shape[0], c, 1, 1) / self._spatial
        return np.broadcast_to(
            spread, (delta.shape[0], c, h, w)
        ).astype(delta.dtype).copy()
