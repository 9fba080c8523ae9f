"""The composed layer's row ops against the generic ones of ``autodiff_reference``.

The generic ops take repeated indices and add with ``np.add.at`` in index
order; their own tests and finite-difference checks live here.  The
distinct-index ``fold_rows`` and ``gather_distinct_rows`` backward must
return their bits, compared with ``tobytes`` so the sign of zero counts,
on the routed pairs a ``moe.Routing`` lists: expert-major, with the ranks
of null slots skipped, rows holding signed zeros, subnormals and values
near the float64 limit, with and without a probe axis.  The reference
fold adds in index order, so it takes the same pairs rank-major; the
distinct-index fold must not depend on the order of its pairs at all.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autodiff_reference as adr
from fd_reference import finite_diff_grad
from dyncapmoe import autodiff as ad
from dyncapmoe import moe

# signed zeros, the smallest subnormal and values whose sums overflow
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 8.9e307, -8.9e307,
                        1e16, -1e16, 1.0, -1.0])


def test_gather_rows_repeated_index_accumulates_grad():
    a = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    g = adr.gather_rows(a, np.array([1, 1, 2]))
    npt.assert_array_equal(g.data, [[2.0, 3.0], [2.0, 3.0], [4.0, 5.0]])
    ad.backward(ad.sum(g))
    npt.assert_array_equal(a.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    v = adr.gather_rows(ad.Tensor([5.0, 6.0, 7.0]), np.array([2, 0]))
    npt.assert_array_equal(v.data, [7.0, 5.0])


def test_gather_rows_cells_take_one_entry_per_pair_and_accumulate_grad():
    a = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    g = adr.gather_rows(a, (np.array([2, 0, 2, 1]), np.array([1, 0, 1, 0])))
    npt.assert_array_equal(g.data, [5.0, 0.0, 5.0, 2.0])
    ad.backward(ad.sum(ad.mul(g, ad.Tensor([1.0, 2.0, 3.0, 4.0]))))
    npt.assert_array_equal(a.grad, [[2.0, 0.0], [4.0, 0.0], [0.0, 4.0]])


def test_scatter_add_rows_folds_repeated_rows_in_index_order():
    rows = np.array([[1e16], [1.0], [-1e16]])
    out = adr.scatter_add_rows(ad.zeros((2, 1)), np.array([0, 0, 0]), ad.Tensor(rows))
    npt.assert_array_equal(out.data, [[((0.0 + 1e16) + 1.0) - 1e16], [0.0]])
    assert out.data[0, 0] == 0.0  # a different order would leave 1.0


@pytest.mark.parametrize("seed", range(20))
def test_reference_row_ops_backward_match_finite_differences(seed):
    """The draws are those of ``test_autodiff``'s every-op check."""
    rng = np.random.default_rng(seed)
    xv = rng.uniform(-2, 2, size=(3, 4))
    yv = rng.uniform(-2, 2, size=(3, 4))
    rng.uniform(-2, 2, size=(4, 2))
    rng.uniform(-1, 1, size=(3, 2))
    gv = rng.uniform(-1, 1, size=(4, 4))
    cases = {
        "gather_rows": lambda t: ad.sum(ad.mul(adr.gather_rows(t, np.array([2, 0, 2, 2])),
                                               ad.Tensor(gv))),
        "gather_rows.cells": lambda t: ad.sum(ad.mul(adr.gather_rows(
            t, (np.array([2, 0, 2, 1]), np.array([3, 1, 3, 0]))), ad.Tensor(gv[0]))),
        "scatter_add_rows.base": lambda t: ad.sum(ad.mul(adr.scatter_add_rows(
            t, np.array([1, 1, 0]), ad.Tensor(yv)), ad.Tensor(gv[:3]))),
        "scatter_add_rows.rows": lambda t: ad.sum(ad.mul(adr.scatter_add_rows(
            ad.Tensor(gv), np.array([3, 0, 3]), t), ad.Tensor(gv))),
    }
    for name, f in cases.items():
        x = ad.Tensor(xv, requires_grad=True)
        ad.backward(f(x))
        fd = finite_diff_grad(f, x, eps=1e-6)
        assert ad.max_rel_err(x.grad, fd) <= 1e-6, name


def edge_rows(rng, shape):
    """Normal draws, a third of the entries replaced by edge values."""
    rows = rng.normal(size=shape)
    pick = rng.random(shape) < 1 / 3
    rows[pick] = rng.choice(EDGE_VALUES, size=int(pick.sum()))
    return rows


def routing_pairs(rng, n, n_slots, n_routed):
    """A Routing of ``n`` tokens whose slots from ``n_routed`` on are null,
    its routed pairs ``(tok, slot, rank)`` and the bounds of each routed
    expert's block of them: each token activates k random slots, so the
    ranks of its null slots are missing from its routed pairs."""
    rank = np.full((n, n_slots), -1)
    for t in range(n):
        order = rng.permutation(n_slots)[:rng.integers(1, n_slots + 1)]
        rank[t, order] = np.arange(order.size)
    routing = moe.Routing(rank, np.ones((n, n_slots)), np.zeros((n, n_slots), bool), None,
                          n_routed)
    tok, slot, rank, _, bounds = routing._active
    m = bounds[n_routed]
    return tok[:m], slot[:m], rank[:m], bounds[:n_routed + 1]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 128), n_slots=st.integers(1, 5), data=st.data(),
       d=st.integers(1, 3), probes=st.sampled_from((None, 1, 3)), seed=st.integers(0, 2**32))
def test_fold_and_gather_backward_carry_the_reference_bits(n, n_slots, data, d, probes,
                                                           seed):
    n_routed = data.draw(st.integers(1, n_slots))
    rng = np.random.default_rng(seed)
    tok, slot, rank, bounds = routing_pairs(rng, n, n_slots, n_routed)
    if not tok.size:  # every token chose null slots only
        return
    lead = () if probes is None else (probes,)
    rows = edge_rows(rng, lead + (tok.size, d))
    rank_major = np.lexsort((tok, rank))
    with np.errstate(over="ignore"):
        folded = adr.fold_rows(n, tok, rank, ad.Tensor(rows)).data
        want = adr.scatter_add_rows(ad.zeros((n, d)), tok[rank_major],
                                    ad.Tensor(rows[..., rank_major, :])).data
    assert folded.shape == want.shape == lead + (n, d)
    assert folded.tobytes() == want.tobytes()

    probs = ad.Tensor(edge_rows(rng, (n, n_slots)), requires_grad=True)
    X = ad.Tensor(edge_rows(rng, (n, d)), requires_grad=True)
    block = tok[bounds[slot[0]]:bounds[slot[0] + 1]]
    for a, idx, g in ((probs, (tok, slot), edge_rows(rng, tok.shape)),
                      (X, block, edge_rows(rng, (block.size, d)))):
        got, ref = adr.gather_distinct_rows(a, idx), adr.gather_rows(a, idx)
        assert got.data.tobytes() == ref.data.tobytes()
        assert got._backward_fn(g)[0].tobytes() == ref._backward_fn(g)[0].tobytes()
        stack = ad.Tensor(np.stack([a.data, -a.data]))
        assert adr.gather_distinct_rows(stack, idx).data.tobytes() == \
            adr.gather_rows(stack, idx).data.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 16), m=st.integers(1, 24), n_ranks=st.integers(1, 4),
       d=st.integers(1, 3), probes=st.sampled_from((None, 1, 3)), seed=st.integers(0, 2**32))
def test_fold_rows_does_not_depend_on_the_order_of_its_pairs(n, m, n_ranks, d, probes,
                                                             seed):
    """Any permutation of the (tok, rank, row) triples folds to the same bytes."""
    rng = np.random.default_rng(seed)
    cells = rng.permutation(n * n_ranks)[:m]  # distinct (rank, tok) cells
    rank, tok = np.divmod(cells, n)
    lead = () if probes is None else (probes,)
    rows = edge_rows(rng, lead + (tok.size, d))
    perm = rng.permutation(tok.size)
    with np.errstate(over="ignore"):
        folded = adr.fold_rows(n, tok, rank, ad.Tensor(rows)).data
        permuted = adr.fold_rows(n, tok[perm], rank[perm], ad.Tensor(rows[..., perm, :])).data
    assert folded.tobytes() == permuted.tobytes()
