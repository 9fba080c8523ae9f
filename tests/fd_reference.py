"""Central-difference gradient oracle for the tape.

``finite_diff_grad`` evaluates a scalar function on plain perturbed copies
of its input and never touches the gradient tape, so tests compare every
op's backward pass against it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from dyncapmoe.autodiff import ShapeError, Tensor


def _scalar_value(v) -> float:
    if isinstance(v, Tensor):
        if v.data.size != 1:
            raise ShapeError("finite_diff_grad needs a scalar-valued function")
        return float(v.data.reshape(()))
    arr = np.asarray(v, dtype=np.float64)
    if arr.size != 1:
        raise ShapeError("finite_diff_grad needs a scalar-valued function")
    return float(arr.reshape(()))


def finite_diff_grad(f: Callable[[Tensor], object], x: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``f`` at ``x``: (f(x+eps*e_i) - f(x-eps*e_i)) / (2 eps).

    Completely independent of the tape; ``f`` is evaluated on plain
    perturbed copies, two per coordinate.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = x.data
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        plus = base.copy()
        plus[idx] += eps
        minus = base.copy()
        minus[idx] -= eps
        grad[idx] = (_scalar_value(f(Tensor(plus))) - _scalar_value(f(Tensor(minus)))) / (2.0 * eps)
    return grad
