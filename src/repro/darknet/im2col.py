"""im2col / col2im — the convolution lowering Darknet uses.

Convolution becomes a single GEMM over an unrolled patch matrix, which
is both how Darknet implements it in C and the efficient formulation in
numpy.

Hot-path notes
--------------
Neither direction builds patch-index tensors, and both work in the
**sample-minor** layout (memory order C, H, W, N) of the column matrix
they share, so no copy transposes:

* ``im2col`` unrolls through one read-only ``as_strided`` window view
  over the padded images (the stride folded into the window strides);
  the only copy is the reshape into the GEMM operand.  Bit-identical to
  a fancy-index gather over explicit ``(channel, row, col)`` index
  tensors.
* ``col2im`` scatters with k² vectorized slice additions — within one
  kernel offset the destination positions are distinct, so ``+=`` is
  exact — and returns the logical ``(N, C, H, W)`` view of its
  sample-minor accumulator.  The summation *order* across kernel
  offsets differs from an ``np.add.at`` scatter, so the two agree to
  float rounding (not bitwise); both orderings are deterministic.
  Training calls it for every convolution but the first: like
  Darknet, ``Network.backward`` never computes the delta of the
  network input, so a one-conv model never runs it.

The gather / ``np.add.at`` formulations live in
``tests/test_im2col_cache.py`` as the reference implementations these
kernels are checked against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    return (size + 2 * pad - kernel) // stride + 1


def _patch_windows(padded: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """``(N, C, OH, OW, k, k)`` read-only strided view of every
    kernel-sized patch.

    The shape and strides ``sliding_window_view(padded, (k, k),
    axis=(2, 3))[:, :, ::stride, ::stride]`` produces, built in one
    ``as_strided`` call: the window constructor's argument checks cost
    more than the view itself at the federated model's size.
    """
    n, c, h, w = padded.shape
    s_n, s_c, s_h, s_w = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(
            n, c, (h - kernel) // stride + 1, (w - kernel) // stride + 1,
            kernel, kernel,
        ),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )


def im2col_batched_into(
    padded: np.ndarray, kernel: int, stride: int, cols: np.ndarray
) -> np.ndarray:
    """Unroll pre-padded images into a **sample-major** column tensor.

    Writes ``(N, C*k*k, OH*OW)`` into ``cols`` (an arena buffer) and
    returns it.  Per sample, ``cols[i]`` holds exactly the columns
    :func:`im2col` would produce for that sample alone — the layout just
    keeps samples contiguous instead of interleaving them, so a 3-D
    ``np.matmul`` can run one GEMM per sample inside a single call (the
    serve path's bitwise-reproducibility requirement).  Allocation-free:
    the only copy is the write into ``cols``.
    """
    windows = _patch_windows(padded, kernel, stride)
    n, c, out_h, out_w = windows.shape[:4]
    cols6 = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    cols6[...] = windows.transpose(0, 1, 4, 5, 2, 3)
    return cols


def im2col(
    images: np.ndarray, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Unroll ``(N, C, H, W)`` images into ``(C*k*k, N*OH*OW)`` columns."""
    n, c, h, w = images.shape
    # Pad into a sample-minor buffer — the layout of the columns — so
    # the k²-fold unroll below copies whole per-sample runs.
    padded = np.zeros(
        (c, h + 2 * pad, w + 2 * pad, n), dtype=images.dtype
    ).transpose(3, 0, 1, 2)
    padded[:, :, pad : pad + h, pad : pad + w] = images
    windows = _patch_windows(padded, kernel, stride)
    out_h, out_w = windows.shape[2:4]
    # Row = (channel, kernel_row, kernel_col), column = (out_pos, image).
    return windows.transpose(1, 4, 5, 2, 3, 0).reshape(
        c * kernel * kernel, out_h * out_w * n
    )


def col2im(
    cols: np.ndarray,
    images_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add columns back into image space (gradient of im2col)."""
    n, c, h, w = images_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    # Accumulate sample-minor, the layout ``cols`` already has, so each
    # of the k² adds is a same-layout slice add; callers get the
    # logical (N, C, H, W) view of it.
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    cols6 = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += cols6[:, ki, kj]
    if pad:
        padded = padded[:, pad:-pad, pad:-pad]
    return padded.transpose(3, 0, 1, 2)
