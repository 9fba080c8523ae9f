"""Row ops of the composed MoE layer, generic row ops with repeated
indices as their reference, and the backward that keeps its tape, the
reference for the engine's.

The MoE layer is one fused op.  The graph it replaced, kept in
``moe_reference.composed_mix``, dispatched its (token, slot) pairs through
four row ops, kept here as that oracle's parts: a gather of distinct rows
or cells (:func:`gather_distinct_rows`), the experts' output rows one after
the other (:func:`concat_rows`), a gate per row (:func:`scale_rows`) and a
rank fold (:func:`fold_rows`).  The gather and the fold take only distinct
indices: a gathered row gets its one gradient term as ``0.0 + g``, and the
fold adds a token's rows rank by rank.

The generic ops take any index, repeats included, and add with
``np.add.at`` in index order.  So they are the oracle the distinct-index
ops are checked against, bit for bit, and ``moe_reference.scatter_fill_mix``
builds the layer's mixture from them.

``ad.backward`` consumes the graph it walks.  :func:`backward` here is the
sweep it replaced: it walks leaves and op nodes alike, keeps every node's
closure, parents and ``.grad`` until it returns, and leaves a ``.grad`` on
every tensor it reached.  Its leaf gradients are the oracle the consuming
sweep's are checked against, bit for bit.

:func:`zero_grads` clears the ``.grad`` of tensors that a test
differentiates more than once; training clears each gradient as it
applies it, so the package itself has no use for it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dyncapmoe import autodiff as ad


def gather_distinct_rows(a: ad.Tensor, idx) -> ad.Tensor:
    """The rows ``a[idx]`` of a matrix, or with a pair ``(rows, cols)`` the
    cells ``a[rows[i], cols[i]]``.  The matrix may carry leading probe
    axes, and the rows are then taken along the axis after them.

    Precondition: ``idx`` is a non-empty 1-D integer array of distinct
    in-range rows, or a pair of such arrays of one length naming distinct
    cells.  Each row then receives one gradient term, ``0.0 + g``, and no
    two terms need adding up.
    """

    def backward_fn(g):
        out = np.zeros_like(a.data)
        out[idx] += g
        return (out,)

    data = a.data[(..., *idx)] if isinstance(idx, tuple) else a.data[..., idx, :]
    return ad.op_node(data, (a,), backward_fn, "gather_rows", a.data.ndim > 2)


def fold_rows(n: int, tok: np.ndarray, rank: np.ndarray, rows: ad.Tensor) -> ad.Tensor:
    """An [n, d] matrix whose row t sums the rows ``rows[i]`` with
    ``tok[i] == t`` in ascending ``rank[i]``, as the left fold
    ``((0.0 + r0) + r1) + ...``.  ``rows`` may carry leading probe axes,
    which the result takes.

    One assignment puts row i at ``slab[rank[i], tok[i]]`` of a zeros slab
    [R, n, d], R = max rank + 1, and R dense adds fold the slab's ranks
    into a zeros result.  That is exact: the chain starts at +0.0, so it
    never holds -0.0, and the +0.0 a token gets for a rank it lacks
    changes no bit.

    Precondition: ``tok`` and ``rank`` are non-empty 1-D integer arrays of
    one length, ``tok`` in [0, n) and ``rank`` >= 0, with no (rank, tok)
    pair twice; ``rows`` is ``[len(tok), d]``.
    """
    rd = rows.data
    slab = np.zeros(rd.shape[:-2] + (int(rank.max()) + 1, n, rd.shape[-1]))
    slab[..., rank, tok, :] = rd
    out = np.zeros(slab.shape[:-3] + slab.shape[-2:])
    for r in range(slab.shape[-3]):
        out += slab[..., r, :, :]

    def backward_fn(g):
        return (g[tok],)

    return ad.op_node(out, (rows,), backward_fn, "fold_rows", rd.ndim > 2)


def concat_rows(parts: Sequence[ad.Tensor]) -> ad.Tensor:
    """The rows of every part [m_i, d], one part after the other, as one
    tape node; each part's gradient is its block of the upstream rows.
    Parts may carry leading probe axes, which the result takes."""
    lead = max((part.data.shape[:-2] for part in parts), key=len)
    blocks, m = [], 0
    for part in parts:
        blocks.append(slice(m, m + part.data.shape[-2]))
        m = blocks[-1].stop
    out = np.empty(lead + (m, parts[0].data.shape[-1]))
    for part, rows in zip(parts, blocks):
        out[..., rows, :] = part.data

    def backward_fn(g):
        return tuple(g[rows] for rows in blocks)

    return ad.op_node(out, parts, backward_fn, "concat_rows", len(lead) > 0)


def scale_rows(a: ad.Tensor, c: ad.Tensor) -> ad.Tensor:
    """Row ``i`` of matrix ``a`` times entry ``i`` of vector ``c``; either
    may carry leading probe axes."""
    av, cd = a.data, c.data
    if av.ndim < 2 or cd.ndim < 1 or cd.shape[-1] != av.shape[-2]:
        raise ad.ShapeError(f"scale_rows: shapes {av.shape} and {cd.shape} do not match")
    col = cd[..., None]

    def backward_fn(g):
        return g * col, (g * av).sum(axis=1)

    return ad.op_node(av * col, (a, c), backward_fn, "scale_rows",
                      av.ndim > 2 or cd.ndim > 1)


def gather_rows(a: ad.Tensor, idx) -> ad.Tensor:
    """``a[idx]`` along the first axis; an index may repeat, and a repeated
    row's gradients add up in index order.  A pair ``(rows, cols)`` on a
    matrix takes the cells ``a[rows[i], cols[i]]``.  A matrix may carry
    leading probe axes, and the rows are then taken along the axis after
    them."""

    def backward_fn(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    probes = a.data.ndim > 2
    if isinstance(idx, tuple):
        data = a.data[(..., *idx)]
    else:
        data = a.data[..., idx, :] if probes else a.data[idx]
    return ad.op_node(data, (a,), backward_fn, "gather_rows", probes)


def scatter_add_rows(base: ad.Tensor, idx: np.ndarray, rows: ad.Tensor) -> ad.Tensor:
    """Copy of matrix ``base`` with ``rows[i]`` added to row ``idx[i]``;
    either operand may carry leading probe axes.

    Rows sharing an index are added in index order, so a target row
    receives its terms as the left fold ``((base + r0) + r1) + ...``.
    """
    bd, rd = base.data, rows.data
    lead = max(bd.shape[:-2], rd.shape[:-2], key=len)
    out = np.empty(lead + bd.shape[-2:])
    out[...] = bd
    np.add.at(out, (..., idx, slice(None)), rd)

    def backward_fn(g):
        return g, g[idx]

    return ad.op_node(out, (base, rows), backward_fn, "scatter_add_rows", len(lead) > 0)


def backward(loss: ad.Tensor) -> None:
    """Reverse-mode sweep from a scalar loss that keeps the whole tape.

    Fills ``.grad`` on every tensor reachable through gradient-requiring
    links, accumulating over fan-out out of place.  Each tape node is
    visited exactly once.  Re-running on the same loss raises.
    """
    if loss.data.size != 1:
        raise ad.TapeError(f"loss must be scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise ad.TapeError("backward already ran for this loss; zero grads and rebuild the tape")
    if not loss.requires_grad:
        raise ad.TapeError("loss is not connected to any tensor that requires gradients")
    loss._backward_done = True

    # iterative postorder: parents land before their consumers
    topo: list[ad.Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[ad.Tensor, bool]] = [(loss, False)]
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
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is None or node.grad is None:
            continue
        grads = node._backward_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def zero_grads(tensors) -> None:
    """Clear the ``.grad`` of each tensor."""
    for t in tensors:
        t.grad = None
