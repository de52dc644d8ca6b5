"""Bit-exactness of the darknet training kernels against the reference.

``tests/reference_kernels.py`` keeps the select-based, NCHW-staged
kernels the branch-free, batch-innermost ones replaced.  Every byte must
match: forward outputs, input gradients, parameter gradients, rolling
statistics and whole training runs.  The layer shapes straddle NumPy's
256 KiB temporary-elision threshold, which decides the memory layout of
``delta * gradient(y)`` and with it the reduction order of the bias and
batchnorm sums.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import build_mnist_cnn
from repro.darknet.activations import Activation, get_activation
from repro.darknet.arena import TensorArena
from repro.darknet.layers import ConvolutionalLayer, MaxPoolLayer

from tests import reference_kernels as ref

# (N, C, H, W).  With 8 filters at stride 1 the first two give a
# ``delta * gradient`` product of 784 KiB (elided into the gradient
# temporary) and 196 KiB (a fresh C-ordered array).
_CONV_INPUTS = [(32, 8, 28, 28), (32, 8, 14, 14), (4, 3, 9, 9), (2, 1, 6, 5)]
_ACTIVATIONS = ["leaky", "relu", "logistic", "linear", "tanh"]


def _axis_order(a: np.ndarray) -> tuple:
    """Axes from outermost to innermost in memory (size-1 axes have no
    place in the layout)."""
    axes = [axis for axis in range(a.ndim) if a.shape[axis] > 1]
    return tuple(sorted(axes, key=lambda axis: -a.strides[axis]))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _conv_pair(in_shape, filters, kernel, stride, pad, activation, bn, seed):
    layer = ConvolutionalLayer(
        in_shape, filters, kernel, stride, pad, activation, bn,
        rng=np.random.default_rng(seed),
    )
    return layer, ref.reference_layer(layer)


def _conv_mismatches(layer, reference, x, delta_seed) -> list:
    """Names of everything that differs after forward + backward."""
    bad = []
    out, ref_out = layer.forward(x), reference.forward(x)
    if not _same(out, ref_out) or _axis_order(out) != _axis_order(ref_out):
        bad.append("output")
    delta = np.random.default_rng(delta_seed).standard_normal(
        out.shape, dtype=np.float32
    )
    dx, ref_dx = layer.backward(delta), reference.backward(delta)
    if not _same(dx, ref_dx) or _axis_order(dx) != _axis_order(ref_dx):
        bad.append("input_grad")
    for name, buf in layer.parameter_buffers():
        if not _same(buf, getattr(reference, name)):
            bad.append(name)
    for name in ("weight_updates", "bias_updates", "scale_updates"):
        if hasattr(layer, name) and not _same(
            getattr(layer, name), getattr(reference, name)
        ):
            bad.append(name)
    return bad


@given(
    in_shape=st.sampled_from(_CONV_INPUTS),
    filters=st.sampled_from([8, 3]),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    pad=st.integers(0, 2),
    activation=st.sampled_from(_ACTIVATIONS),
    bn=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_conv_matches_reference_bitwise(
    in_shape, filters, kernel, stride, pad, activation, bn, seed
):
    n, c, h, w = in_shape
    if min(h, w) + 2 * pad < kernel:
        return
    layer, reference = _conv_pair(
        (c, h, w), filters, kernel, stride, pad, activation, bn, seed
    )
    x = np.random.default_rng(seed + 1).standard_normal(in_shape, dtype=np.float32)
    assert _conv_mismatches(layer, reference, x, seed + 2) == []
    # Inference forward and a second iteration's accumulation.
    assert _same(layer.forward(x, train=False), reference.forward(x, train=False))
    assert _conv_mismatches(layer, reference, x, seed + 3) == []


@pytest.mark.parametrize("in_shape", _CONV_INPUTS[:2])
def test_backward_params_accumulates_the_same_gradients(in_shape):
    n, c, h, w = in_shape
    layer, reference = _conv_pair((c, h, w), 8, 3, 1, 1, "leaky", True, 3)
    x = np.random.default_rng(4).standard_normal(in_shape, dtype=np.float32)
    delta = np.random.default_rng(5).standard_normal(
        (n, 8, h, w), dtype=np.float32
    )
    layer.forward(x)
    reference.forward(x)
    layer.backward_params(delta)
    reference.backward(delta)
    for name in ("weight_updates", "bias_updates", "scale_updates"):
        assert _same(getattr(layer, name), getattr(reference, name)), name


def test_oracle_catches_a_c_ordered_product():
    """A mutant whose ``delta * gradient`` product is C-ordered (as a
    contiguous gradient would make it) reduces the bias and batchnorm
    sums in another order; the oracle must see it."""
    layer, reference = _conv_pair((8, 28, 28), 8, 3, 1, 1, "leaky", True, 9)
    leaky = layer.activation
    layer.activation = Activation(
        "leaky",
        leaky.forward,
        lambda y: np.ascontiguousarray(leaky.gradient(y)),
        leaky.forward_into,
    )
    x = np.random.default_rng(10).standard_normal((32, 8, 28, 28), dtype=np.float32)
    bad = _conv_mismatches(layer, reference, x, 11)
    assert "output" not in bad
    assert "bias_updates" in bad


_POOL_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.5], dtype=np.float32)


@given(
    shape=st.sampled_from([(2, 3, 8, 8), (3, 2, 7, 9), (32, 8, 28, 28)]),
    size=st.sampled_from([2, 3]),
    stride=st.sampled_from([1, 2, 3]),
    ties=st.booleans(),
    batch_innermost=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_maxpool_matches_reference_bitwise(
    shape, size, stride, ties, batch_innermost, seed
):
    """Ties (including +0 against -0) keep the first window offset; a
    batch-innermost input (a conv output) pools to the same C-ordered
    output."""
    n, c, h, w = shape
    layer = MaxPoolLayer((c, h, w), size=size, stride=stride)
    reference = ref.reference_layer(layer)
    rng = np.random.default_rng(seed)
    if ties:
        x = rng.choice(_POOL_VALUES, size=shape)
    else:
        x = rng.standard_normal(shape, dtype=np.float32)
    if batch_innermost:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    out, ref_out = layer.forward(x), reference.forward(x)
    assert _same(out, ref_out) and out.flags.c_contiguous
    assert np.array_equal(layer._argmax, reference._argmax)
    delta = rng.choice(_POOL_VALUES, size=out.shape)
    assert _same(layer.backward(delta), reference.backward(delta))
    assert _same(layer.forward(x, train=False), ref_out)
    ws = TensorArena().workspace(0)
    assert _same(layer.infer(np.ascontiguousarray(x), ws), ref_out)


def _special_values(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    tiny_sub = np.nextafter(dtype(0), dtype(1))
    big_sub = info.tiny - tiny_sub
    values = [0.0, 1.0, 0.1, 3.0e-3, info.max, info.tiny, tiny_sub, big_sub, np.inf]
    pos = np.array(values, dtype=dtype)
    return np.concatenate([pos, -pos])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_special_values_match_reference(dtype):
    leaky = get_activation("leaky")
    x = _special_values(dtype)
    assert _same(leaky.forward(x), ref.leaky_forward(x))
    ws = TensorArena().workspace(0)
    assert _same(leaky.forward_into(x.copy(), ws), ref.leaky_forward(x))
    assert _same(leaky.gradient(x), ref.leaky_gradient(x))
    y = ref.leaky_forward(x)
    assert _same(leaky.gradient(y), ref.leaky_gradient(y))
    assert set(leaky.gradient(y).tolist()) == {dtype(1.0), dtype(0.1)}


def _digest(net) -> str:
    h = hashlib.sha256()
    for _, (_, buf) in net.parameter_buffers():
        h.update(buf.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("layers,filters,batch", [(5, 8, 32), (3, 16, 64)])
def test_training_run_matches_reference(layers, filters, batch):
    net = build_mnist_cnn(
        n_conv_layers=layers, filters=filters, batch=batch,
        rng=np.random.default_rng(7),
    )
    reference = ref.reference_network(net)
    rng = np.random.default_rng(8)
    losses, ref_losses = [], []
    for _ in range(20):
        x = rng.random((batch, 1, 28, 28), dtype=np.float32)
        y = np.eye(10, dtype=np.float32)[rng.integers(0, 10, batch)]
        losses.append(net.train_batch(x, y))
        ref_losses.append(ref.reference_train_batch(reference, x, y))
    assert losses == ref_losses
    assert _digest(net) == _digest(reference)
