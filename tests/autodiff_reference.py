"""Generic row ops with repeated indices, the reference for the engine's own,
and the backward that keeps its tape, the reference for the engine's.

The engine's row ops take only distinct indices: ``ad._gather_rows`` hands
each gathered row its one gradient term, and ``ad._fold_rows`` adds a
token's rows rank by rank.  The ops here take any index, repeats included,
and add with ``np.add.at`` in index order, as the engine did before.  So
they are the oracle the engine's ops are checked against, bit for bit, and
``moe_reference.scatter_fill_mix`` builds the layer's mixture from them.

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

import numpy as np

from dyncapmoe import autodiff as ad


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
