"""im2col / col2im — the convolution lowering Darknet uses.

Convolution becomes a single GEMM over an unrolled patch matrix, which
is both how Darknet implements it in C and the efficient formulation in
numpy.

Hot-path notes
--------------
Building the patch-index tensors is O(C·k²·OH·OW) of integer work and
used to happen on *every* forward and backward call of every conv layer
— it dominated small-batch training.  Two optimizations apply (both on
by default, both bit-exact with the original formulation):

* ``_patch_indices`` is memoized on ``(channels, h, w, kernel, stride,
  pad)``; a training run touches a handful of distinct shapes, so every
  call after the first is a dictionary hit.
* ``im2col`` takes a strided-view fast path: a
  ``sliding_window_view`` over the padded images (plus a ``::stride``
  slice for stride > 1) replaces the fancy-index gather entirely.  The
  padded images are staged channel-major and batch-innermost, ``(C,
  H+2p, W+2p, N)``, the order of the column matrix's own axes, so the
  copy into the (unchanged) ``(C·k·k, OH·OW·N)`` GEMM operand runs
  along memory order instead of striding across whole images for every
  element.  A conv output is already batch-innermost in memory, so
  staging it is a near-contiguous copy too.  This path is bit-identical
  to the gather.
* ``col2im`` replaces the (buffered, element-at-a-time) ``np.add.at``
  scatter with k² vectorized slice additions — within one kernel
  offset the destination positions are distinct, so ``+=`` is exact.
  The additions land in a ``(C, H+2p, W+2p, N)`` buffer, the columns'
  layout, and the interior is copied out once in C-ordered ``(N, C, H,
  W)``, the axis order the input gradient always had.  Each element still
  sums its contributions in ``(ki, kj)`` order, so the bits do not
  depend on the staging.  That order differs from ``np.add.at``'s, so
  the two paths agree to float rounding (not bitwise); both orderings
  are deterministic.

``set_index_cache_enabled(False)`` restores the historical
rebuild-everything behavior; the wall-clock benchmark uses it as the
baseline for the cached-vs-uncached comparison.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

_INDEX_CACHE_SIZE = 64

_optimized = True


def set_index_cache_enabled(enabled: bool) -> bool:
    """Toggle the index cache + strided fast path; returns the old value.

    Disabling reproduces the pre-optimization behavior (indices rebuilt
    on every call, fancy-index gather) — used as the benchmark baseline.
    """
    global _optimized
    previous = _optimized
    _optimized = bool(enabled)
    return previous


def index_cache_enabled() -> bool:
    """Whether the cached/strided fast paths are active."""
    return _optimized


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    return (size + 2 * pad - kernel) // stride + 1


def _build_patch_indices(
    channels: int, height: int, width: int, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


@lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _cached_patch_indices(
    channels: int, height: int, width: int, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    k, i, j = _build_patch_indices(channels, height, width, kernel, stride, pad)
    # Shared across callers: freeze so nobody can corrupt the cache.
    for arr in (k, i, j):
        arr.setflags(write=False)
    return k, i, j


def _patch_indices(
    channels: int, height: int, width: int, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if _optimized:
        return _cached_patch_indices(channels, height, width, kernel, stride, pad)
    return _build_patch_indices(channels, height, width, kernel, stride, pad)


def patch_index_cache_info():
    """``functools.lru_cache`` statistics for the patch-index cache."""
    return _cached_patch_indices.cache_info()


def clear_patch_index_cache() -> None:
    """Drop all memoized patch indices (tests / benchmarks)."""
    _cached_patch_indices.cache_clear()


def _im2col_strided(
    images: np.ndarray, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Unroll via ``sliding_window_view`` over batch-innermost staging
    — no index tensors (see the hot-path notes)."""
    n, c, h, w = images.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=images.dtype)
    padded[:, pad : pad + h, pad : pad + w] = images.transpose(1, 2, 3, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(1, 2)
    )
    if stride > 1:
        windows = windows[:, ::stride, ::stride]
    out_h, out_w = windows.shape[1:3]
    # Row = (channel, kernel_row, kernel_col), column = (out_pos, image):
    # identical layout to the gather formulation below.
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(
        c * kernel * kernel, out_h * out_w * n
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
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(2, 3)
    )
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    n, c, out_h, out_w = windows.shape[:4]
    cols6 = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    cols6[...] = windows.transpose(0, 1, 4, 5, 2, 3)
    return cols


def im2col(
    images: np.ndarray, kernel: int, stride: int, pad: int
) -> np.ndarray:
    """Unroll ``(N, C, H, W)`` images into ``(C*k*k, N*OH*OW)`` columns."""
    if _optimized:
        return _im2col_strided(images, kernel, stride, pad)
    n, c, h, w = images.shape
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    k, i, j = _patch_indices(c, h, w, kernel, stride, pad)
    cols = padded[:, k, i, j]  # (N, C*k*k, OH*OW)
    return cols.transpose(1, 2, 0).reshape(c * kernel * kernel, -1)


def _col2im_strided(
    cols: np.ndarray,
    images_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add via k² vectorized slice additions (no ``np.add.at``)
    into batch-innermost staging (see the hot-path notes)."""
    n, c, h, w = images_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    cols6 = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += cols6[:, ki, kj]
    return padded[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2).copy()


def col2im(
    cols: np.ndarray,
    images_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add columns back into image space (gradient of im2col)."""
    if _optimized:
        return _col2im_strided(cols, images_shape, kernel, stride, pad)
    n, c, h, w = images_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    k, i, j = _patch_indices(c, h, w, kernel, stride, pad)
    reshaped = cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), reshaped)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]
