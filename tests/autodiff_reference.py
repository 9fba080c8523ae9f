"""Generic row ops with repeated indices, the reference for the engine's own.

The engine's row ops take only distinct indices: ``ad._gather_rows`` hands
each gathered row its one gradient term, and ``ad._fold_rows`` adds a
token's rows rank by rank.  The ops here take any index, repeats included,
and add with ``np.add.at`` in index order, as the engine did before.  So
they are the oracle the engine's ops are checked against, bit for bit, and
``moe_reference.scatter_fill_mix`` builds the layer's mixture from them.
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
