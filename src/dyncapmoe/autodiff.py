"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array and
doubles as a node on the gradient tape.  Every differentiable operation
returns a new tensor holding references to its inputs plus a closure that
maps the upstream gradient to per-input gradients.  :func:`backward` walks
the resulting DAG once, in reverse topological order, and consumes it as
it goes: once a node's backward has run, the node drops its closure (and
with it the arrays the closure saved), its parents and its gradient.  So
the leaves are the only tensors that end a sweep holding a ``.grad``
(besides the loss), and a graph is differentiated once: a later sweep
that reaches a consumed node raises :class:`TapeError` rather than read a
stale gradient.  The engine never clears a leaf's ``.grad``: whoever
applies a gradient clears it (``harness.train`` does as it steps), and a
test that differentiates twice clears its leaves with
``tests/autodiff_reference.zero_grads``.

Three guarantees the rest of the package leans on:

* any op whose inputs are all constants folds into a constant (no parents,
  no backward hook), so constant subgraphs never appear on the tape, and a
  forward over parameters with ``requires_grad`` off builds no tape at all;
* :func:`stop_gradient` returns a plain constant copy, so gradient flow
  through it is exactly zero by construction;
* no code writes into a ``.grad`` array in place: :func:`backward` stores a
  node's first gradient as its op handed it and accumulates out of place,
  so one array may be the ``.grad`` of several tensors (both operands of
  an ``add``, say), and a reader that wants to modify one copies it first.

Checks sit at the boundaries.  A :class:`Tensor` built from data rejects
NaN and infinity; op results are not scanned, so a non-finite value
produced inside a graph propagates to its consumers, and the callers that
own a boundary (the training loss, the gradients before an update) check
it there.

Per-row products run in fixed blocks.  :func:`matvec_rows` (and the MoE
layer's fused op and expert FFN, through the same helpers) pads the rows with zeros to
a multiple of ``_ROW_BLOCK`` rows and takes one ``np.matmul`` of the
blocks [..., m / B, B, k] with ``w`` transposed: one GEMM of the same
fixed shape per block, the same kernel whatever the batch.  So a row has
the bits it has alone, in a zero-padded block of its own, wherever it
sits in its block and whatever the other rows are; the per-token oracles
rely on that.  One GEMM over all the rows may round a row differently
depending on the batch, and a matrix-vector product differently again.
The identity rests on the BLAS the blocks run on: a BLAS that breaks it
fails the property test in ``tests/test_autodiff.py``.

Fused ops (the MoE layer, its expert FFN, the harness's attention block)
are defined through :func:`op_node` with a hand-written backward.  A fused
op lists an input once for each consumer it replaces, and its backward
returns one term per entry.  :func:`backward` adds a node's terms to a
parent one at a time, left to right, so the input receives them in the
order the composed graph added them: a single summed term would round
differently, while one term per entry keeps every gradient bit-identical
to the composed graph.

The ops a frozen forward runs (``add``, ``matmul``, ``matvec_rows``, and
the fused ops defined outside the engine: the MoE layer, ``gated_ffn`` and
the attention block) also accept leading *probe axes*: an operand of shape
``[*lead, *core]`` broadcasts over ``lead`` as NumPy does, and each probe
computes the bits the unbatched call computes.  ``grad_check`` evaluates
the finite-difference probes of up to 64 consecutive coordinates of the
model, which may span parameters and stages, in one forward this way.  The
backward functions know only the core shapes, so a probe axis never
reaches the tape: :func:`op_node` raises :class:`ShapeError` when an op
with probe axes has a parent that requires gradients.

All randomness comes from numpy's PCG64 generator, so a fixed seed
reproduces bit-identical tensors.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "check_int",
    "check_real",
    "op_node",
    "zeros",
    "full",
    "seeded_normal",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "matvec_rows",
    "transpose",
    "sum",
    "index",
    "row",
    "stack_rows",
    "softmax",
    "silu",
    "stop_gradient",
    "backward",
    "max_rel_err",
]


class ShapeError(ValueError):
    """Operands disagree on shape, or an illegal shape was requested."""


class NonFiniteError(FloatingPointError):
    """A tensor built from data, or a checked boundary value, holds NaN or infinity."""


class TapeError(RuntimeError):
    """Backward was misused: non-scalar loss, re-entry, a graph an earlier
    backward consumed, or no tape."""


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A dense float64 array that is also a node on the gradient tape.

    ``op_kind`` names the producing operation ("leaf" for user-created
    tensors); on a leaf, ``grad`` is filled by :func:`backward` and holds
    an array of the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "op_kind",
                 "_parents", "_backward_fn", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_f64(data)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op_kind = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable | None = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return (f"Tensor(shape={self.data.shape}, op={self.op_kind!r}, "
                f"requires_grad={self.requires_grad})")


def op_node(data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], tuple], op_kind: str,
            probes: bool = False) -> Tensor:
    """Build the tensor produced by ``op_kind``.

    ``backward_fn(upstream)`` must return one gradient array per parent
    (``None`` for a parent that receives nothing).  If no parent requires
    gradients the result is folded into a constant.  ``probes`` says the
    operands carry leading probe axes (see the module notes); such an op
    with a parent that requires gradients raises :class:`ShapeError`.

    The result is not checked for NaN or infinity (see the module notes).

    This is the extension hook: modules outside the engine (rotary
    rotation, the training loss) define their own ops through it.
    """
    out = Tensor.__new__(Tensor)
    out.data = _as_f64(data)
    out.grad = None
    out.op_kind = op_kind
    out._backward_done = False
    if any(p.requires_grad for p in parents):
        if probes:
            raise ShapeError(f"{op_kind}: operands with probe axes cannot be differentiated")
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


# ---------------------------------------------------------------------------
# creation
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    """Counts and sizes are ints or NumPy integers, never bools or floats."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, name: str, low: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= ``low``."""
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(value, name: str, low: float, high: float = math.inf, *,
               include_low: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an int, float
    or NumPy real (never a bool or a string), finite as a float, in
    ``(low, high]``, or in ``[low, high]`` with ``include_low``."""
    try:
        finite = ((_is_int(value) or isinstance(value, (float, np.floating)))
                  and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (finite and (low <= value if include_low else low < value) and value <= high):
        if high < math.inf:
            bound = f"in {'[' if include_low else '('}{low:g}, {high:g}]"
        else:
            bound = f"{'>=' if include_low else '>'} {low:g}"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _validate_shape(shape) -> tuple[int, ...]:
    dims = tuple(shape)
    if len(dims) == 0:
        raise ShapeError("shape must have at least one dimension")
    if not all(_is_int(d) and d >= 1 for d in dims):
        raise ShapeError(f"all dimensions must be integers >= 1, got {dims}")
    return tuple(int(d) for d in dims)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_validate_shape(shape)), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_validate_shape(shape), float(value)), requires_grad=requires_grad)


def seeded_normal(shape, seed, std: float, requires_grad: bool = False) -> Tensor:
    """Normal(0, std) draw from a PCG64 stream keyed by ``seed``.

    ``seed`` may be an int or a sequence of ints (a derived stream key);
    identical seeds give bit-identical tensors.
    """
    dims = _validate_shape(shape)
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, float(std), size=dims), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _check_binary(a: Tensor, b: Tensor, op: str) -> bool:
    """Pass equal shapes, a scalar (size-1) side, or one side with leading
    probe axes the other lacks; return whether probe axes broadcast."""
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or a.data.size == 1 or b.data.size == 1:
        return False
    short, long = sorted((sa, sb), key=len)
    if len(short) < len(long) and long[len(long) - len(short):] == short:
        return True
    raise ShapeError(f"{op}: shapes {sa} and {sb} do not match")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # fold a broadcast gradient back onto a size-1 operand, as an array
    if grad.shape == shape:
        return grad
    return np.full(shape, np.sum(grad))


def add(a: Tensor, b: Tensor) -> Tensor:
    probes = _check_binary(a, b, "add")

    def backward_fn(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return op_node(a.data + b.data, (a, b), backward_fn, "add", probes)


def sub(a: Tensor, b: Tensor) -> Tensor:
    probes = _check_binary(a, b, "sub")

    def backward_fn(g):
        return _reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)

    return op_node(a.data - b.data, (a, b), backward_fn, "sub", probes)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Pointwise product; one operand may be a scalar (size-1) tensor."""
    probes = _check_binary(a, b, "mul")

    def backward_fn(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return op_node(a.data * b.data, (a, b), backward_fn, "mul", probes)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (not a tape node)."""
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return op_node(a.data * c, (a,), backward_fn, "scale")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for (m,k)@(k,n) and (m,k)@(k,); in the first form
    either side may carry leading probe axes."""
    ad, bd = a.data, b.data
    if ad.ndim >= 2 and bd.ndim >= 2:
        if ad.shape[-1] != bd.shape[-2]:
            raise ShapeError(f"matmul: inner dims {ad.shape} @ {bd.shape}")

        def backward_fn(g):
            return g @ bd.T, ad.T @ g

    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dims {ad.shape} @ {bd.shape}")

        def backward_fn(g):
            return np.outer(g, bd), ad.T @ g

    else:
        raise ShapeError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")

    return op_node(ad @ bd, (a, b), backward_fn, "matmul", ad.ndim > 2 or bd.ndim > 2)


# Rows per block of the per-row products (see the module notes).  A call
# pays for up to _ROW_BLOCK - 1 zero rows; 8 was no faster on 128-token
# batches and slower on the 3- and 10-token ones.
_ROW_BLOCK = 4


def _row_blocks(x: np.ndarray) -> np.ndarray:
    """The rows ``x`` [..., m, k], zero-padded to a multiple of
    ``_ROW_BLOCK`` rows, as blocks [..., ceil(m / _ROW_BLOCK), _ROW_BLOCK, k]."""
    m, k = x.shape[-2:]
    pad = -m % _ROW_BLOCK
    if pad:
        padded = np.zeros(x.shape[:-2] + (m + pad, k))
        padded[..., :m, :] = x
        x = padded
    return x.reshape(x.shape[:-2] + (-1, _ROW_BLOCK, k))


def _block_matvec(w: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """``w @ row`` for every row of the blocks ``xb`` [..., b, _ROW_BLOCK, k],
    one fixed-shape GEMM per block, for ``w`` [..., o, k]; the result is
    blocks [..., b, _ROW_BLOCK, o]."""
    wt = w.mT
    return np.matmul(xb, wt if wt.ndim == 2 else wt[..., None, :, :])


def _block_rows(yb: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` rows of the blocks ``yb`` [..., b, _ROW_BLOCK, o], as
    rows [..., m, o]."""
    return yb.reshape(yb.shape[:-3] + (-1, yb.shape[-1]))[..., :m, :]


def _matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x[..., i, :]`` for every row i, for ``w`` [..., o, k] and ``x``
    [..., m, k], one GEMM per block of ``_ROW_BLOCK`` rows (see the module
    notes): a row gets the bits it gets alone in a zero-padded block."""
    return _block_rows(_block_matvec(w, _row_blocks(x)), x.shape[-2])


def matvec_rows(w: Tensor, x: Tensor) -> Tensor:
    """Row ``i`` of the result is ``w @ x[i]``, for ``w`` (o,k) and ``x`` (m,k),
    either with leading probe axes.

    The rows run in fixed blocks of ``_ROW_BLOCK``, zero-padded, one GEMM
    per block (see the module notes), so row ``i`` is bit-identical to
    ``matvec_rows(w, x[i:i+1])`` whatever the other rows are and wherever
    it sits in its block.  A single ``x @ w.T`` over all the rows may round
    a row differently depending on the batch, and so may the matrix-vector
    product ``matmul(w, row(x, i))``.
    """
    wd, xd = w.data, x.data
    if wd.ndim < 2 or xd.ndim < 2 or wd.shape[-1] != xd.shape[-1]:
        raise ShapeError(f"matvec_rows: shapes {wd.shape} and {xd.shape} do not match")

    def backward_fn(g):
        return g.T @ xd, g @ wd

    return op_node(_matvec(wd, xd), (w, x), backward_fn, "matvec_rows",
                   wd.ndim > 2 or xd.ndim > 2)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")

    def backward_fn(g):
        return (g.T,)

    return op_node(a.data.T, (a,), backward_fn, "transpose")


# ---------------------------------------------------------------------------
# reductions and indexing
# ---------------------------------------------------------------------------

def sum(a: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Sum of all entries, as a scalar tensor."""

    def backward_fn(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return op_node(np.sum(a.data), (a,), backward_fn, "sum")


def index(a: Tensor, i: int) -> Tensor:
    """Scalar entry ``a[i]`` of a vector, kept on the tape."""
    if a.data.ndim != 1:
        raise ShapeError(f"index expects a vector, got shape {a.data.shape}")
    i = int(i)
    if not 0 <= i < a.data.shape[0]:
        raise ShapeError(f"index {i} out of range for length {a.data.shape[0]}")

    def backward_fn(g):
        out = np.zeros_like(a.data)
        out[i] = g
        return (out,)

    return op_node(a.data[i], (a,), backward_fn, "index")


def row(a: Tensor, i: int) -> Tensor:
    """Row ``a[i]`` of a matrix, kept on the tape."""
    if a.data.ndim != 2:
        raise ShapeError(f"row expects a matrix, got shape {a.data.shape}")
    i = int(i)
    if not 0 <= i < a.data.shape[0]:
        raise ShapeError(f"row {i} out of range for {a.data.shape[0]} rows")

    def backward_fn(g):
        out = np.zeros_like(a.data)
        out[i, :] = g
        return (out,)

    return op_node(a.data[i].copy(), (a,), backward_fn, "row")


def stack_rows(rows: Iterable[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one tape node."""
    rows = tuple(rows)
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    for r in rows:
        if r.data.shape != rows[0].data.shape or r.data.ndim != 1:
            raise ShapeError("stack_rows needs equal-length vectors")

    def backward_fn(g):
        return tuple(g[i].copy() for i in range(len(rows)))

    return op_node(np.stack([r.data for r in rows]), rows, backward_fn, "stack_rows")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the last axis (max-subtracted).

    Outputs are strictly positive and each row sums to 1.  Backward applies
    the softmax Jacobian: ``y * (g - sum(g * y))`` per row.
    """
    y = _softmax_data(x.data)

    def backward_fn(g):
        return (_softmax_vjp(y, g),)

    return op_node(y, (x,), backward_fn, "softmax")


def _softmax_data(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Upstream ``g`` through the Jacobian of the softmax ``y``, row by row."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def silu(x: Tensor) -> Tensor:
    """Sigmoid-weighted linear unit ``u * sigmoid(u)``, pointwise."""
    s = _sigmoid(x.data)
    y = x.data * s

    def backward_fn(g):
        return (g * _silu_slope(x.data, s),)

    return op_node(y, (x,), backward_fn, "silu")


def _sigmoid(u: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp overflow saturates sigmoid to 0 exactly
        return 1.0 / (1.0 + np.exp(-u))


def _silu_slope(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d silu(u) / du, given ``s = sigmoid(u)``."""
    return s * (1.0 + u * (1.0 - s))


def stop_gradient(x: Tensor) -> Tensor:
    """Copy of ``x`` with zero gradient flow to it (a fresh constant)."""
    out = Tensor(x.data.copy())
    out.op_kind = "stop_gradient"
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss that consumes its graph.

    Fills ``.grad`` on every leaf reachable through gradient-requiring
    links, accumulating over fan-out out of place, so a ``.grad`` may be
    shared with other tensors (see the module notes).  The loss gets a
    ``.grad`` of ones.  Each op node's backward runs exactly once, and
    right after it the node drops its backward function, its parents and
    its ``.grad`` (the loss keeps its own), so the arrays its closure saved
    are freed as the sweep goes and only the leaves hold gradients at the
    end.  A later backward whose graph reaches a consumed node, the loss
    included, raises: the node no longer links to its inputs.
    """
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise TapeError("backward already ran for this loss; zero grads and rebuild the tape")
    if not loss.requires_grad:
        raise TapeError("loss is not connected to any tensor that requires gradients")

    # iterative postorder over the op nodes: parents land before their
    # consumers; a leaf is not walked, it only receives its gradient
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [] if loss._backward_fn is None else [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward_done:
                raise TapeError(f"{node.op_kind} reads a {p.op_kind} node whose backward "
                                "already ran; zero grads and rebuild the tape")
            if p._backward_fn is not None and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node.grad is not None:
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            if node is not loss:
                node.grad = None
        node._backward_fn = None
        node._parents = ()
        node._backward_done = True


def max_rel_err(a, b) -> float:
    """max |a-b| scaled by max(1, |b|_inf); below unit scale this is absolute error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    return float(np.max(np.abs(a - b)) / denom)
