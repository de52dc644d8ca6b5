"""Reference darknet training kernels: the bit-exactness oracle.

These are the select-based, NCHW-staged formulations the training
kernels in ``repro.darknet`` were rewritten from, kept verbatim as
overrides on subclasses of the layers.  The rewritten kernels must
reproduce every byte they produce: outputs, input gradients, parameter
gradients, rolling statistics and, over whole training runs, losses and
parameters.

:func:`reference_network` copies a network onto these kernels, and
:func:`reference_train_batch` trains it with the historical loop, which
also computes layer 0's input gradient.
"""

from __future__ import annotations

import copy
from typing import Tuple

import numpy as np

from repro.darknet.activations import Activation
from repro.darknet.im2col import conv_output_size
from repro.darknet.layers.convolutional import ConvolutionalLayer
from repro.darknet.layers.pooling import MaxPoolLayer
from repro.darknet.network import Network

_BN_EPSILON = 1e-5
_BN_MOMENTUM = 0.9


# ----------------------------------------------------------------------
# Leaky activation
# ----------------------------------------------------------------------
def leaky_forward(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.1 * x)


def leaky_forward_into(x: np.ndarray, ws) -> np.ndarray:
    mask = ws.take("act.mask", x.shape, np.bool_)
    np.greater(x, 0, out=mask)
    out = ws.take("act.out", x.shape, x.dtype)
    np.multiply(x, 0.1, out=out)
    np.copyto(out, x, where=mask)
    return out


def leaky_gradient(y: np.ndarray) -> np.ndarray:
    return np.where(y > 0, 1.0, 0.1).astype(y.dtype)


LEAKY = Activation("leaky", leaky_forward, leaky_gradient, leaky_forward_into)


# ----------------------------------------------------------------------
# im2col / col2im (strided fast paths, NCHW staging)
# ----------------------------------------------------------------------
def im2col(images: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(2, 3)
    )
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    n, c, out_h, out_w = windows.shape[:4]
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
    n, c, h, w = images_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += cols6[:, ki, kj].transpose(3, 0, 1, 2)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
class ReferenceConvolutionalLayer(ConvolutionalLayer):
    """Convolution with the reference forward/backward kernels."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n = x.shape[0]
        cols = im2col(x, self.kernel, self.stride, self.pad)
        f, out_h, out_w = self.out_shape
        raw = (self.weights @ cols).reshape(f, out_h, out_w, n)
        raw = raw.transpose(3, 0, 1, 2)  # (N, F, OH, OW)

        if self.batch_normalize:
            raw = self._batchnorm_forward(raw, train)
        raw = raw + self.biases.reshape(1, -1, 1, 1)
        out = self.activation.forward(raw)
        if train:
            self._x_shape = x.shape
            self._cols = cols
            self._output = out
        return out

    def backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._output is not None
        delta = delta * self.activation.gradient(self._output)

        self.bias_updates += delta.sum(axis=(0, 2, 3))
        if self.batch_normalize:
            delta = self._batchnorm_backward(delta)

        f = self.filters
        d_flat = delta.transpose(1, 2, 3, 0).reshape(f, -1)
        self.weight_updates += d_flat @ self._cols.T
        d_cols = self.weights.T @ d_flat
        return col2im(
            d_cols, self._x_shape, self.kernel, self.stride, self.pad
        )

    def _batchnorm_forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        axes = (0, 2, 3)
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.rolling_mean[...] = (
                _BN_MOMENTUM * self.rolling_mean + (1 - _BN_MOMENTUM) * mean
            )
            self.rolling_variance[...] = (
                _BN_MOMENTUM * self.rolling_variance + (1 - _BN_MOMENTUM) * var
            )
        else:
            mean = self.rolling_mean
            var = self.rolling_variance
        inv_std = 1.0 / np.sqrt(var + _BN_EPSILON)
        x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        if train:
            self._bn_cache = (x_hat, inv_std)
        return self.scales.reshape(1, -1, 1, 1) * x_hat

    def _batchnorm_backward(self, delta: np.ndarray) -> np.ndarray:
        assert self._bn_cache is not None
        x_hat, inv_std = self._bn_cache
        axes = (0, 2, 3)
        m = delta.shape[0] * delta.shape[2] * delta.shape[3]

        self.scale_updates += (delta * x_hat).sum(axis=axes)
        d_xhat = delta * self.scales.reshape(1, -1, 1, 1)
        sum_d = d_xhat.sum(axis=axes).reshape(1, -1, 1, 1)
        sum_dx = (d_xhat * x_hat).sum(axis=axes).reshape(1, -1, 1, 1)
        return (
            inv_std.reshape(1, -1, 1, 1)
            * (d_xhat - sum_d / m - x_hat * sum_dx / m)
        )


class ReferenceMaxPoolLayer(MaxPoolLayer):
    """Max pooling with the reference select-based kernels."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        _, out_h, out_w = self.out_shape
        s, st = self.size, self.stride

        out = None
        argmax = None
        for idx in range(s * s):
            di, dj = divmod(idx, s)
            window = x[
                :, :, di : di + st * out_h : st, dj : dj + st * out_w : st
            ]
            if out is None:
                out = window.copy()
                if train:
                    argmax = np.zeros(window.shape, dtype=np.int32)
            else:
                mask = window > out
                np.copyto(out, window, where=mask)
                if train:
                    np.copyto(argmax, idx, where=mask)
        assert out is not None
        if train:
            self._x_shape = x.shape
            self._argmax = argmax
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


_REFERENCE_CLASSES = {
    ConvolutionalLayer: ReferenceConvolutionalLayer,
    MaxPoolLayer: ReferenceMaxPoolLayer,
}


def _use_reference_kernels(layer) -> None:
    cls = _REFERENCE_CLASSES.get(type(layer))
    if cls is not None:
        layer.__class__ = cls
    activation = getattr(layer, "activation", None)
    if activation is not None and activation.name == "leaky":
        layer.activation = LEAKY


def reference_layer(layer):
    """A deep copy of ``layer`` running the reference kernels."""
    ref = copy.deepcopy(layer)
    _use_reference_kernels(ref)
    return ref


def reference_network(net: Network) -> Network:
    """A deep copy of ``net`` whose layers run the reference kernels."""
    ref = copy.deepcopy(net)
    for layer in ref.layers:
        _use_reference_kernels(layer)
    return ref


def reference_train_batch(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    """One iteration with the historical loop: every layer's
    ``backward``, layer 0's input gradient included."""
    net.forward(x, train=True)
    loss = net.softmax.loss(y)
    delta = net.softmax.backward()
    for layer in reversed(net.layers[:-1]):
        delta = layer.backward(delta)
    net.update()
    net.iteration += 1
    return loss
