"""Pooling layers: windowed max pooling and Darknet's global avgpool."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.darknet.layers.base import Layer


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

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Keep-first max over the window offsets, branch-free.

        ``np.maximum`` returns its second operand on a tie (``+0`` vs
        ``-0`` is the only tie whose bits differ), so the accumulator
        goes second and keeps the first maximum, as a strict ``>``
        select would.  The train-only argmax records the offset of the
        latest strict improvement; offsets rise with ``idx``, so that is
        a running ``maximum`` of ``idx`` times the improvement mask.
        The accumulators follow the windows' memory layout (a conv
        output is batch-innermost) and the result is returned
        C-contiguous.
        """
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride
        index_type = np.min_scalar_type(s * s - 1).type

        out: Optional[np.ndarray] = None
        argmax: Optional[np.ndarray] = None
        for idx in range(s * s):
            di, dj = divmod(idx, s)
            window = x[
                :, :, di : di + st * out_h : st, dj : dj + st * out_w : st
            ]
            if out is None:
                out = window.copy(order="K")
                if train:
                    argmax = np.zeros_like(out, dtype=index_type)
                continue
            if train:
                improved = (window > out).view(np.uint8)
                np.maximum(argmax, improved * index_type(idx), out=argmax)
            np.maximum(window, out, out=out)
        assert out is not None
        if train:
            self._x_shape = x.shape
            self._argmax = np.ascontiguousarray(argmax)
        return np.ascontiguousarray(out)

    def infer(self, x: np.ndarray, ws) -> np.ndarray:
        """Workspace-backed max pooling; elementwise per output cell, so
        any batch size is trivially bitwise-equal to the per-sample
        reference.

        Non-overlapping tilings (``size == stride``, the paper's
        configs) take a contiguous-reshape fast path: two single-axis
        max passes (columns within each row, then rows).  With the
        accumulator as the second operand, ``np.maximum`` keeps the
        first maximum on ties as :meth:`forward` does, and keep-first
        max is associative — any reduction order selects the same
        element, bit for bit — so values are identical while the memory
        walk stays sequential instead of strided.
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
            _max_into([tiles[..., j] for j in range(s)], colmax)
            rows = colmax.reshape(n, c, out_h, s, out_w)
            _max_into([rows[:, :, :, i, :] for i in range(s)], out)
            return out
        windows = [
            x[:, :, di : di + st * out_h : st, dj : dj + st * out_w : st]
            for di, dj in (divmod(idx, s) for idx in range(s * s))
        ]
        _max_into(windows, out)
        return out

    def backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._argmax is not None and self._x_shape is not None
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride
        dx = np.zeros(self._x_shape, dtype=delta.dtype)
        for idx in range(s * s):
            di, dj = divmod(idx, s)
            mask = self._argmax == idx
            dx[
                :, :, di : di + st * out_h : st, dj : dj + st * out_w : st
            ] += delta * mask
        return dx


def _max_into(parts, out: np.ndarray) -> None:
    """Keep-first elementwise max of ``parts`` into ``out``: on a tie
    ``np.maximum`` returns its second operand, the earlier part."""
    if len(parts) == 1:
        np.copyto(out, parts[0])
        return
    np.maximum(parts[1], parts[0], out=out)
    for part in parts[2:]:
        np.maximum(part, out, out=out)


class AvgPoolLayer(Layer):
    """Darknet's ``[avgpool]``: global average over the spatial extent."""

    kind = "avgpool"

    def __init__(self, in_shape: Tuple[int, int, int]) -> None:
        c, h, w = in_shape
        self.in_shape = in_shape
        self.out_shape = (c,)
        self._spatial = h * w

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
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
