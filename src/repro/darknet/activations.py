"""Activation functions with their derivatives (Darknet's vocabulary).

The paper's models use *leaky rectified linear units* (LReLU) in every
convolutional layer; Darknet's ``leaky`` uses a fixed slope of 0.1.

Each activation carries two forward implementations:

* ``forward`` — the allocating reference used by training;
* ``forward_into`` — an arena-backed variant used by the batched serve
  path.  It receives the pre-activation tensor and a workspace and must
  produce **bitwise-identical** values to ``forward`` while allocating
  nothing: every in-place formulation below is the same ufunc sequence
  as its reference (multiplication and addition are exactly commutative
  in IEEE 754, and ``out=`` never changes a ufunc's rounding).

Leaky is written without a data-dependent select.  ``np.where`` and
masked ``np.copyto`` run element by element with a branch each, which
mispredicts on activations whose sign is noise; ``np.maximum`` and
plain arithmetic vectorize.  The results are the same bits:

* forward: ``maximum(x, 0.1*x)`` picks ``x`` for ``x > 0`` (where
  ``0.1*x < x``) and ``0.1*x`` for ``x < 0``; at ``x = ±0`` and
  ``x = ±inf`` both operands are the same bits, so which one
  ``maximum`` returns on the tie does not matter.  Subnormals follow
  the same two cases.  Only a NaN input can differ: ``maximum`` may
  return the NaN ``x`` where ``where`` returned ``0.1*x``, so at most
  the NaN payload changes;
* gradient: ``(y > 0) * 0.9 + 0.1`` in the activation's own dtype is
  exactly ``{1.0, 0.1}`` (``0.9f + 0.1f`` rounds to ``1.0f``), the
  values ``where(y > 0, 1.0, 0.1).astype(dtype)`` produced.  It keeps
  ``y``'s memory layout, as ``astype`` did, and is a fresh temporary,
  which the layout of ``delta * gradient(y)`` depends on (see
  ``ConvolutionalLayer.backward``).
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
    every activation implemented here).
    """

    name: str
    forward: ArrayFn
    gradient: ArrayFn
    forward_into: InplaceFn


def _leaky_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.1 * x)


def _leaky_forward_into(x: np.ndarray, ws) -> np.ndarray:
    out = ws.take("act.out", x.shape, x.dtype)
    np.multiply(x, 0.1, out=out)
    np.maximum(x, out, out=out)
    return out


def _leaky_gradient(y: np.ndarray) -> np.ndarray:
    grad = (y > 0).astype(y.dtype)
    grad *= 0.9
    grad += 0.1
    return grad


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
