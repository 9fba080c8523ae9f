import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autodiff_reference as adr
import moe_reference as ref
from fd_reference import finite_diff_grad
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp


def test_zeros_and_full():
    z = ad.zeros([2, 2])
    npt.assert_array_equal(z.data, np.zeros((2, 2)))
    c = ad.full([3], 1.0)
    npt.assert_array_equal(c.data, np.ones(3))


def test_create_rejects_bad_shapes():
    with pytest.raises(ad.ShapeError):
        ad.zeros([])
    with pytest.raises(ad.ShapeError):
        ad.zeros([0, 2])
    with pytest.raises(ad.ShapeError):
        ad.full([-1], 3.0)
    with pytest.raises(ad.ShapeError):
        ad.zeros((2.5,))
    with pytest.raises(ad.ShapeError):
        ad.full([True], 1.0)
    with pytest.raises(ad.ShapeError):
        ad.seeded_normal((3.9, 2), seed=0, std=1.0)
    assert ad.zeros((np.int64(2), 3)).data.shape == (2, 3)


def test_seeded_normal_is_bit_reproducible():
    a = ad.seeded_normal([4], seed=7, std=0.02)
    b = ad.seeded_normal([4], seed=7, std=0.02)
    assert a.data.tobytes() == b.data.tobytes()
    c = ad.seeded_normal([4], seed=8, std=0.02)
    assert a.data.tobytes() != c.data.tobytes()


def test_tensor_rejects_non_finite():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([1.0, float("nan")])
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([float("inf")])


def test_matmul_identity_and_hand_case():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.Tensor(np.eye(2))
    npt.assert_array_equal(ad.matmul(eye, a).data, a.data)
    out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
    npt.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch():
    for a_shape, b_shape, message in (
            ((2, 3), (2, 3), "inner dims"), ((2, 3), (2,), "inner dims"),
            ((3,), (3, 2), "unsupported ranks 1 and 2"),
            ((2, 2, 3), (3,), "unsupported ranks 3 and 1")):
        with pytest.raises(ad.ShapeError, match=message):
            ad.matmul(ad.Tensor(np.ones(a_shape)), ad.Tensor(np.ones(b_shape)))


def test_elementwise_identities():
    x = ad.Tensor([1.0, -2.0, 3.0])
    npt.assert_array_equal(ad.add(x, ad.zeros([3])).data, x.data)
    npt.assert_array_equal(ad.mul(x, ad.full([3], 1.0)).data, x.data)
    with pytest.raises(ad.ShapeError):
        ad.add(x, ad.zeros([4]))


def test_scale_grad_is_constant_times_upstream():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = ad.sum(ad.scale(x, 2.0))
    ad.backward(loss)
    npt.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    fd = finite_diff_grad(lambda t: ad.sum(ad.scale(t, 2.0)), x)
    npt.assert_allclose(x.grad, fd, atol=1e-8)


def test_softmax_symmetry_and_closed_form():
    y = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    npt.assert_allclose(y.data, [1 / 3] * 3, atol=1e-15)
    y2 = ad.softmax(ad.Tensor([math.log(2.0), 0.0]))
    npt.assert_allclose(y2.data, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_overflow_stability():
    y = ad.softmax(ad.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(y.data))
    npt.assert_allclose(y.data, [1.0, 0.0], atol=1e-12)


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = ad.Tensor(rng.uniform(-30, 30, size=rng.integers(1, 9)))
        y = ad.softmax(x).data
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y > 0)


def test_silu_values():
    assert ad.silu(ad.Tensor([0.0])).data[0] == 0.0
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    npt.assert_allclose(ad.silu(ad.Tensor([1.0])).data[0], 1.0 * sig1, rtol=1e-15)


def test_silu_grad_matches_finite_differences():
    x = ad.Tensor([0.5], requires_grad=True)
    loss = ad.sum(ad.silu(x))
    ad.backward(loss)
    fd = finite_diff_grad(lambda t: ad.sum(ad.silu(t)), x)
    assert ad.max_rel_err(x.grad, fd) <= 1e-8


def test_stop_gradient_forward_identity_and_zero_flow():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    sg = ad.stop_gradient(x)
    npt.assert_array_equal(sg.data, x.data)
    # sum(stop_gradient(x)) has no connection to x at all
    with pytest.raises(ad.TapeError):
        ad.backward(ad.sum(sg))


def test_stop_gradient_mixed_path():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.sum(ad.add(x, ad.stop_gradient(x)))
    ad.backward(loss)
    npt.assert_array_equal(x.grad, [1.0, 1.0])


def test_stop_gradient_composite_equals_constant_substitution():
    # h(x + stop_gradient(k(x))) must differentiate like h(x + const)
    rng = np.random.default_rng(3)
    for _ in range(10):
        xv = rng.uniform(-2, 2, size=4)

        def h(t):
            return ad.sum(ad.mul(t, t))

        x = ad.Tensor(xv, requires_grad=True)
        k = ad.mul(x, ad.scale(x, 3.0))
        loss = h(ad.add(x, ad.stop_gradient(k)))
        ad.backward(loss)

        const = ad.Tensor(3.0 * xv * xv)
        x2 = ad.Tensor(xv, requires_grad=True)
        ad.backward(h(ad.add(x2, const)))
        npt.assert_allclose(x.grad, x2.grad, rtol=0, atol=0)


def test_backward_sum_and_quadratic():
    x = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    ad.backward(ad.sum(x))
    npt.assert_array_equal(x.grad, np.ones(3))

    y = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    ad.backward(ad.sum(ad.mul(y, y)))
    npt.assert_allclose(y.grad, 2 * y.data, atol=1e-15)
    fd = finite_diff_grad(lambda t: ad.sum(ad.mul(t, t)), y)
    assert ad.max_rel_err(y.grad, fd) <= 1e-8


def test_backward_rejects_non_scalar_and_reentry():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.TapeError):
        ad.backward(ad.mul(x, x))
    loss = ad.sum(x)
    ad.backward(loss)
    with pytest.raises(ad.TapeError):
        ad.backward(loss)


def test_backward_disconnected_tape():
    with pytest.raises(ad.TapeError):
        ad.backward(ad.Tensor(1.0))


def test_backward_through_a_consumed_node_raises_instead_of_double_counting():
    """``y`` keeps no ``.grad`` after the first sweep, so the second cannot
    add its stale gradient into ``x``: it raises.  The sweep that kept its
    tape returned ``6x`` here, where ``4x`` is right."""
    x = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    y = ad.mul(x, x)
    ad.backward(ad.sum(y))
    adr.zero_grads([x])
    with pytest.raises(ad.TapeError):
        ad.backward(ad.sum(ad.scale(y, 2.0)))
    assert x.grad is None  # the check runs before any gradient moves

    x = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    y = ad.mul(x, x)
    adr.backward(ad.sum(y))
    adr.zero_grads([x])
    adr.backward(ad.sum(ad.scale(y, 2.0)))
    npt.assert_array_equal(x.grad, 6.0 * x.data)


def test_backward_consumes_interior_nodes_and_leaves_keep_their_gradients():
    x = ad.Tensor([1.0, -2.0], requires_grad=True)
    w = ad.Tensor([0.5, 3.0], requires_grad=True)
    c = ad.Tensor([2.0, 2.0])
    y = ad.mul(x, w)
    z = ad.add(y, ad.mul(y, c))
    loss = ad.sum(z)
    ad.backward(loss)
    for node in (y, z):
        assert node._backward_fn is None and node._parents == () and node.grad is None
        assert node._backward_done
    npt.assert_array_equal(loss.grad, 1.0)
    npt.assert_array_equal(x.grad, 3.0 * w.data)
    npt.assert_array_equal(w.grad, 3.0 * x.data)
    assert c.grad is None and not x._backward_done and not w._backward_done


def test_chained_matmul_softmax_vs_finite_differences():
    rng = np.random.default_rng(11)
    w = ad.Tensor(rng.uniform(-2, 2, size=(3, 3)), requires_grad=True)
    xv = rng.uniform(-2, 2, size=3)

    def f(wt):
        z = ad.matmul(wt, ad.Tensor(xv))
        p = ad.softmax(z)
        return ad.sum(ad.mul(p, p))

    ad.backward(f(w))
    fd = finite_diff_grad(f, w)
    assert ad.max_rel_err(w.grad, fd) <= 1e-6


def test_finite_diff_trivial_and_norm():
    x = ad.Tensor([1.0, 2.0])
    npt.assert_allclose(finite_diff_grad(lambda t: ad.sum(t), x), [1.0, 1.0], atol=1e-10)
    g = finite_diff_grad(lambda t: ad.scale(ad.sum(ad.mul(t, t)), 0.5), x)
    npt.assert_allclose(g, [1.0, 2.0], atol=1e-8)


def test_finite_diff_rejects_non_scalar_f():
    x = ad.Tensor([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        finite_diff_grad(lambda t: ad.mul(t, t), x)


def test_index_row_stack_grads():
    a = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.index(ad.row(a, 1), 2))
    expect = np.zeros((2, 3))
    expect[1, 2] = 1.0
    npt.assert_array_equal(a.grad, expect)

    r0 = ad.Tensor([1.0, 2.0], requires_grad=True)
    r1 = ad.Tensor([3.0, 4.0], requires_grad=True)
    ad.backward(ad.sum(ad.stack_rows([r0, r1])))
    npt.assert_array_equal(r0.grad, [1.0, 1.0])
    npt.assert_array_equal(r1.grad, [1.0, 1.0])


def test_gather_rows_hands_each_distinct_row_or_cell_its_gradient():
    a = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    g = adr.gather_distinct_rows(a, np.array([2, 0]))
    npt.assert_array_equal(g.data, [[4.0, 5.0], [0.0, 1.0]])
    ad.backward(ad.sum(ad.mul(g, ad.Tensor([[1.0, -0.0], [3.0, 4.0]]))))
    npt.assert_array_equal(a.grad, [[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    assert not np.signbit(a.grad).any()  # 0.0 + g, so no row keeps a -0.0
    b = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    cells = adr.gather_distinct_rows(b, (np.array([2, 0, 1]), np.array([1, 0, 0])))
    npt.assert_array_equal(cells.data, [5.0, 0.0, 2.0])
    ad.backward(ad.sum(ad.mul(cells, ad.Tensor([1.0, 2.0, 4.0]))))
    npt.assert_array_equal(b.grad, [[2.0, 0.0], [4.0, 0.0], [0.0, 1.0]])


def test_fold_rows_adds_a_tokens_rows_in_rank_order_from_zeros():
    rows = np.array([[1.0], [-1e16], [1e16], [-0.0]])
    out = adr.fold_rows(3, np.array([0, 0, 0, 2]), np.array([1, 2, 0, 0]),
                        ad.Tensor(rows, requires_grad=True))
    npt.assert_array_equal(out.data, [[((0.0 + 1e16) + 1.0) - 1e16], [0.0], [0.0]])
    assert out.data[0, 0] == 0.0  # the pair order would leave -1e16 + 1e16 + 1.0 = 1.0
    assert not np.signbit(out.data).any()  # the chain starts at +0.0
    g = np.array([[1.0], [2.0], [3.0]])
    (grad,) = out._backward_fn(g)
    npt.assert_array_equal(grad, [[1.0], [1.0], [1.0], [3.0]])


def test_concat_rows_puts_the_parts_one_after_the_other_and_hands_back_their_rows():
    parts = [ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True),
             ad.Tensor([[5.0, 6.0]], requires_grad=True)]
    out = adr.concat_rows(parts)
    npt.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    ad.backward(ad.sum(ad.mul(out, ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))))
    npt.assert_array_equal(parts[0].grad, [[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(parts[1].grad, [[5.0, 6.0]])
    probed = adr.concat_rows([ad.Tensor(np.stack([parts[0].data, -parts[0].data])),
                              ad.Tensor(parts[1].data)])
    npt.assert_array_equal(probed.data, [out.data, [[-1.0, -2.0], [-3.0, -4.0], [5.0, 6.0]]])


def test_matvec_rows_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.normal(size=(7, 32)))
    x = rng.normal(size=(40, 32))
    batched = ad.matvec_rows(w, ad.Tensor(x)).data
    for i in range(len(x)):
        npt.assert_array_equal(batched[i], ad.matvec_rows(w, ad.Tensor(x[i:i + 1])).data[0])
    npt.assert_array_equal(ad.matvec_rows(w, ad.Tensor(x[::-1])).data, batched[::-1])


B = ad._ROW_BLOCK


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       m=st.one_of(st.integers(1, 3 * B + 1), st.integers(3 * B + 2, 129)),
       pick=st.integers(0, 128), o=st.integers(1, 64), k=st.integers(1, 64),
       probes=st.sampled_from(("none", "w", "x", "both")))
@example(seed=0, m=3 * B + 1, pick=3 * B, o=1, k=1, probes="none")
@example(seed=1, m=2 * B, pick=B - 1, o=B - 1, k=B + 1, probes="w")
@example(seed=2, m=B + 1, pick=B, o=64, k=B - 1, probes="x")
@example(seed=3, m=1, pick=0, o=7, k=32, probes="both")
@example(seed=0, m=128, pick=5, o=64, k=32, probes="none")
def test_a_row_of_a_batch_has_the_bits_it_has_alone(seed, m, pick, o, k, probes):
    """Row ``pick % m`` of a batch, at any position in its block of B rows,
    has the bits of that row computed alone, for any o x k weight up to
    64 x 64 and with two probes on ``w``, on ``x``, on both or on neither;
    each probe is checked against a call without probe axes.  Batches of 1
    to 3B+1 rows cover every block position and a partial last block; the
    larger batches, up to 129 rows, are where one GEMM over all the rows
    rounds a row differently from the row alone."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=((2,) if probes in ("w", "both") else ()) + (o, k))
    x = rng.normal(size=((2,) if probes in ("x", "both") else ()) + (m, k))
    i = pick % m
    batched = ad.matvec_rows(ad.Tensor(w), ad.Tensor(x)).data
    for p in range(2 if probes != "none" else 1):
        wp = w[p] if w.ndim > 2 else w
        xp = x[p] if x.ndim > 2 else x
        got = batched[p, i] if batched.ndim > 2 else batched[i]
        alone = ad.matvec_rows(ad.Tensor(wp), ad.Tensor(xp[i:i + 1])).data[0]
        assert got.tobytes() == alone.tobytes()


@pytest.mark.parametrize("call", [
    lambda: adr.scale_rows(ad.zeros((3, 2)), ad.zeros((2,))),
    lambda: adr.scale_rows(ad.zeros((3,)), ad.zeros((3,))),
    lambda: adr.scale_rows(ad.zeros((3, 2)), ad.zeros((3, 1))),
    lambda: ad.matvec_rows(ad.zeros((4, 3)), ad.zeros((2, 4))),
    lambda: ad.matvec_rows(ad.zeros((4, 3)), ad.zeros((3,))),
])
def test_row_ops_reject_bad_shapes(call):
    with pytest.raises(ad.ShapeError):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: ad.transpose(ad.zeros((3,))), "transpose expects a matrix"),
    (lambda: ad.transpose(ad.zeros((2, 2, 2))), "transpose expects a matrix"),
    (lambda: ad.index(ad.zeros((2, 3)), 0), "index expects a vector"),
    (lambda: ad.index(ad.zeros((3,)), 3), "index 3 out of range for length 3"),
    (lambda: ad.index(ad.zeros((3,)), -1), "index -1 out of range for length 3"),
    (lambda: ad.row(ad.zeros((3,)), 0), "row expects a matrix"),
    (lambda: ad.row(ad.zeros((2, 3)), 2), "row 2 out of range for 2 rows"),
    (lambda: ad.row(ad.zeros((2, 3)), -1), "row -1 out of range for 2 rows"),
    (lambda: ad.stack_rows([]), "stack_rows needs at least one row"),
    (lambda: ad.stack_rows([ad.zeros((2,)), ad.zeros((3,))]), "equal-length vectors"),
    (lambda: ad.stack_rows([ad.zeros((2, 2)), ad.zeros((2, 2))]), "equal-length vectors"),
], ids=["transpose-vector", "transpose-cube", "index-matrix", "index-past-end",
        "index-negative", "row-vector", "row-past-end", "row-negative", "stack-none",
        "stack-unequal", "stack-matrices"])
def test_transpose_index_row_and_stack_rows_reject_bad_shapes_and_indices(call, message):
    with pytest.raises(ad.ShapeError, match=message):
        call()


def test_scalar_broadcast_mul_grads():
    s = ad.Tensor(2.0, requires_grad=True)
    v = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.backward(ad.sum(ad.mul(s, v)))
    npt.assert_allclose(s.grad, 6.0)
    npt.assert_allclose(v.grad, [2.0, 2.0, 2.0])


_PIDS = (rp.PositionId(0, 1, 2), rp.PositionId(3, 1, 0), rp.PositionId(5, 4, 4))


def attend(X, w_q, w_k, w_v, w_o):
    """``ToyTransformer._attend`` of a one-layer model with these weights,
    token i at ``_PIDS[i]``."""
    d_model, head_dim = w_q.data.shape
    model = hn.ToyTransformer(hn.ToyModelConfig(
        moe=moe.MoEConfig(d_model=d_model, n_routed=1, expert_hidden=1),
        segments=(rp.TextSegment(1),), layers=1, head_dim=head_dim))
    model.attn[0] = hn._AttentionParams(w_q, w_k, w_v, w_o)
    return model._attend(X, _PIDS[:len(X.data)], 0)


def gated_ffn(x, w_gate, w_up, w_down):
    return moe.gated_ffn(x, moe.ExpertParams(w_gate, w_up, w_down))


@pytest.mark.parametrize("seed", range(20))
def test_every_op_backward_matches_finite_differences(seed):
    """Each differentiable op agrees with central differences on random input."""
    rng = np.random.default_rng(seed)
    xv = rng.uniform(-2, 2, size=(3, 4))
    yv = rng.uniform(-2, 2, size=(3, 4))
    wv = rng.uniform(-2, 2, size=(4, 2))
    mv = rng.uniform(-1, 1, size=(3, 2))
    gv = rng.uniform(-1, 1, size=(4, 4))
    cv = rng.uniform(-1, 1, size=3)
    av = rng.uniform(-1, 1, size=(4, 4, 6))
    T = ad.Tensor

    cases = {
        "add": lambda t: ad.sum(ad.mul(ad.add(t, ad.Tensor(yv)), ad.Tensor(yv))),
        "sub": lambda t: ad.sum(ad.mul(ad.sub(t, ad.Tensor(yv)), ad.Tensor(yv))),
        "mul": lambda t: ad.sum(ad.mul(t, ad.Tensor(yv))),
        "scale": lambda t: ad.sum(ad.scale(t, -1.7)),
        "matmul": lambda t: ad.sum(ad.mul(ad.matmul(t, ad.Tensor(wv)), ad.Tensor(mv))),
        "transpose": lambda t: ad.sum(ad.mul(ad.transpose(t), ad.Tensor(yv.T))),
        "softmax": lambda t: ad.sum(ad.mul(ad.softmax(t), ad.Tensor(yv))),
        "silu": lambda t: ad.sum(ad.mul(ad.silu(t), ad.Tensor(yv))),
        "sum": lambda t: ad.scale(ad.sum(t), 2.0),
        "row": lambda t: ad.sum(ad.mul(ad.row(t, 1), ad.Tensor(yv[1]))),
        "gather_rows": lambda t: ad.sum(ad.mul(adr.gather_distinct_rows(t, np.array([2, 0])),
                                               ad.Tensor(gv[:2]))),
        "gather_rows.cells": lambda t: ad.sum(ad.mul(adr.gather_distinct_rows(
            t, (np.array([2, 0, 1, 2]), np.array([3, 1, 0, 1]))), ad.Tensor(gv[0]))),
        "fold_rows": lambda t: ad.sum(ad.mul(adr.fold_rows(
            4, np.array([3, 0, 3]), np.array([1, 0, 0]), t), ad.Tensor(gv))),
        "scale_rows.a": lambda t: ad.sum(ad.mul(adr.scale_rows(t, ad.Tensor(cv)),
                                                ad.Tensor(yv))),
        "scale_rows.c": lambda t: ad.sum(ad.mul(
            adr.scale_rows(ad.Tensor(yv), ad.matmul(t, ad.Tensor(wv[:, 0]))), ad.Tensor(yv))),
        "matvec_rows.x": lambda t: ad.sum(ad.mul(ad.matvec_rows(ad.Tensor(wv.T), t),
                                                 ad.Tensor(mv))),
        "matvec_rows.w": lambda t: ad.sum(ad.mul(ad.matvec_rows(t, ad.Tensor(gv)),
                                                 ad.Tensor(gv[:, :3]))),
        "concat_rows.first": lambda t: ad.sum(ad.mul(
            adr.concat_rows([t, ad.Tensor(yv[:2])]), ad.Tensor(np.vstack([gv, yv[:1]])))),
        "concat_rows.last": lambda t: ad.sum(ad.mul(
            adr.concat_rows([ad.Tensor(yv[:2]), t]), ad.Tensor(np.vstack([gv, yv[:1]])))),
        "gated_ffn.x": lambda t: ad.sum(ad.mul(
            gated_ffn(t, T(wv.T), T(gv[:2]), T(wv)), ad.Tensor(yv))),
        "gated_ffn.w_gate": lambda t: ad.sum(ad.mul(
            gated_ffn(T(gv), t, T(yv), T(gv[:, :3])), ad.Tensor(gv))),
        "gated_ffn.w_up": lambda t: ad.sum(ad.mul(
            gated_ffn(T(gv), T(yv), t, T(gv[:, :3])), ad.Tensor(gv))),
        "gated_ffn.w_down": lambda t: ad.sum(ad.mul(
            gated_ffn(T(yv[:, :3]), T(gv[:, :3]), T(yv.T), t), ad.Tensor(yv[:, :3]))),
        "attention.X": lambda t: ad.sum(ad.mul(
            attend(t, T(av[0]), T(av[1]), T(av[2]), T(av[3].T)), ad.Tensor(yv))),
        "attention.w_q": lambda t: ad.sum(ad.mul(
            attend(T(yv[:, :3]), t, T(av[1, :3, :4]), T(av[2, :3, :4]), T(av[3, :4, :3])),
            ad.Tensor(mv[:, :1] * yv[:, :3]))),
        "attention.w_k": lambda t: ad.sum(ad.mul(
            attend(T(yv[:, :3]), T(av[0, :3, :4]), t, T(av[2, :3, :4]), T(av[3, :4, :3])),
            ad.Tensor(mv[:, :1] * yv[:, :3]))),
        "attention.w_v": lambda t: ad.sum(ad.mul(
            attend(T(yv[:, :3]), T(av[0, :3, :4]), T(av[1, :3, :4]), t, T(av[3, :4, :3])),
            ad.Tensor(mv[:, :1] * yv[:, :3]))),
        "attention.w_o": lambda t: ad.sum(ad.mul(
            attend(T(yv[:, :3]), T(av[0, :3, :4]), T(av[1, :3, :4]), T(av[2, :3, :4]),
                   ad.transpose(t)),
            ad.Tensor(mv[:, :1] * yv[:, :3]))),
    }
    for name, f in cases.items():
        x = ad.Tensor(xv, requires_grad=True)
        ad.backward(f(x))
        fd = finite_diff_grad(f, x, eps=1e-6)
        assert ad.max_rel_err(x.grad, fd) <= 1e-6, name


def test_two_layer_net_gradcheck():
    """backward() vs finite differences through a small two-layer network."""
    rng = np.random.default_rng(42)
    w1v = rng.uniform(-1, 1, size=(5, 4))
    w2v = rng.uniform(-1, 1, size=(3, 5))
    xv = rng.uniform(-1, 1, size=4)

    def net(w1t):
        h = ad.silu(ad.matmul(w1t, ad.Tensor(xv)))
        out = ad.softmax(ad.matmul(ad.Tensor(w2v), h))
        return ad.sum(ad.mul(out, out))

    w1 = ad.Tensor(w1v, requires_grad=True)
    ad.backward(net(w1))
    fd = finite_diff_grad(net, w1)
    assert ad.max_rel_err(w1.grad, fd) <= 1e-6


def test_determinism_same_seed_same_bytes():
    def run():
        w = ad.seeded_normal([4, 4], seed=123, std=0.5, requires_grad=True)
        x = ad.seeded_normal([4], seed=456, std=1.0)
        loss = ad.sum(ad.mul(ad.softmax(ad.matmul(w, x)), ad.Tensor([1.0, 2.0, 3.0, 4.0])))
        ad.backward(loss)
        return loss.data.tobytes(), w.grad.tobytes()

    assert run() == run()


def _op_nodes(rng):
    """One result of every op in the package, each parent requiring gradients."""
    def leaf(*shape):
        return ad.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    rope = rp.RopeFreqConfig(6)
    pids = [rp.PositionId(0, 1, 2), rp.PositionId(3, 1, 0)]
    return {
        "add": ad.add(leaf(3, 2), leaf(3, 2)),
        "add.scalar": ad.add(leaf(3, 2), leaf(1)),
        "sub": ad.sub(leaf(3, 2), leaf(3, 2)),
        "mul.scalar": ad.mul(leaf(), leaf(3)),
        "scale": ad.scale(leaf(3, 2), 0.5),
        "matmul": ad.matmul(leaf(3, 2), leaf(2, 4)),
        "matmul.vector": ad.matmul(leaf(3, 2), leaf(2)),
        "matvec_rows": ad.matvec_rows(leaf(4, 2), leaf(3, 2)),
        "transpose": ad.transpose(leaf(3, 2)),
        "sum": ad.sum(leaf(3, 2)),
        "index": ad.index(leaf(3), 1),
        "row": ad.row(leaf(3, 2), 2),
        "stack_rows": ad.stack_rows([leaf(2), leaf(2)]),
        "gather_rows": adr.gather_distinct_rows(leaf(3, 2), np.array([2, 0])),
        "gather_rows.cells": adr.gather_distinct_rows(leaf(3, 2), (np.array([2, 0]), np.array([1, 1]))),
        "fold_rows": adr.fold_rows(3, np.array([1, 1, 0]), np.array([0, 1, 0]), leaf(3, 2)),
        "concat_rows": adr.concat_rows([leaf(2, 2), leaf(1, 2)]),
        "scale_rows": adr.scale_rows(leaf(3, 2), leaf(3)),
        "softmax": ad.softmax(leaf(3, 2)),
        "silu": ad.silu(leaf(3, 2)),
        "rope3d": rp.apply_rope3d(leaf(6), pids[0], rope),
        "rope3d_rows": rp.apply_rope3d_rows(leaf(2, 6), pids, rope),
        "cross_entropy": hn.cross_entropy(leaf(3, 4), np.array([0, 3, 1])),
        "gated_ffn": gated_ffn(leaf(3, 2), leaf(4, 2), leaf(4, 2), leaf(2, 4)),
        "attention": attend(leaf(2, 4), leaf(4, 6), leaf(4, 6), leaf(4, 6), leaf(6, 4)),
    }


@pytest.mark.parametrize("seed", range(3))
def test_every_op_hands_each_parent_a_float64_gradient_of_its_shape(seed):
    """backward stores a node's first gradient as its op returned it, so
    each op's own output must already be a float64 array of the parent's
    shape."""
    rng = np.random.default_rng(seed)
    for name, out in _op_nodes(rng).items():
        assert out.requires_grad, name
        grads = out._backward_fn(rng.uniform(-1, 1, size=out.data.shape))
        assert len(grads) == len(out._parents), name
        for parent, g in zip(out._parents, grads):
            assert isinstance(g, np.ndarray), name
            assert g.dtype == np.float64, name
            assert g.shape == parent.data.shape, name


def test_a_shared_gradient_survives_an_update_of_the_other_tensor():
    """Fan-out may leave one gradient array on several tensors; an SGD step
    writes only into ``.data``, so the other tensor's gradient stays put."""
    a = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    b = ad.Tensor([0.5, 0.25, -1.0], requires_grad=True)
    ad.backward(ad.sum(ad.add(a, b)))
    before = b.grad.copy()
    a.data -= 0.1 * a.grad
    npt.assert_array_equal(a.data, [1.0 - 0.1, -2.0 - 0.1, 3.0 - 0.1])
    npt.assert_array_equal(b.grad, before)
    npt.assert_array_equal(b.grad, [1.0, 1.0, 1.0])
    npt.assert_array_equal(b.data, [0.5, 0.25, -1.0])


@pytest.mark.parametrize("shared_first", [True, False])
def test_accumulating_into_a_shared_gradient_leaves_the_other_tensor_alone(shared_first):
    """``a`` first takes the gradient array it shares with ``b`` (or the
    other branch's) and then accumulates; either way ``b.grad`` stays put."""
    a = ad.Tensor([1.0, -2.0], requires_grad=True)
    b = ad.Tensor([0.5, 0.25], requires_grad=True)
    shared, other = ad.sum(ad.add(a, b)), ad.sum(ad.scale(a, 3.0))
    ad.backward(ad.add(shared, other) if shared_first else ad.add(other, shared))
    npt.assert_array_equal(a.grad, [4.0, 4.0])
    npt.assert_array_equal(b.grad, [1.0, 1.0])


# Random small DAGs: each step applies one op to tensors already built, so
# interior nodes are shared, and every tensor no step read ends in the loss.
# An op takes two (3, 4) tensors ``a`` and ``b``, a small int ``j`` and the
# weight leaves ``w``, and returns a (3, 4) tensor.
_DAG_OPS = {
    "add": lambda a, b, j, w: ad.add(a, b),
    "sub": lambda a, b, j, w: ad.sub(a, b),
    "mul": lambda a, b, j, w: ad.mul(a, b),
    "mul.self": lambda a, b, j, w: ad.mul(a, a),
    "add.scalar": lambda a, b, j, w: ad.add(a, ad.sum(b)),
    "scale": lambda a, b, j, w: ad.scale(a, -0.75),
    "matmul": lambda a, b, j, w: ad.matmul(a, w["square"]),
    "matvec_rows": lambda a, b, j, w: ad.matvec_rows(w["square"], a),
    "transpose": lambda a, b, j, w: ad.transpose(ad.transpose(a)),
    "scale_rows": lambda a, b, j, w: adr.scale_rows(a, ad.row(ad.transpose(b), j % 4)),
    "stack_rows": lambda a, b, j, w: ad.stack_rows([ad.row(a, 0), ad.row(b, 1), ad.row(a, 2)]),
    "softmax": lambda a, b, j, w: ad.softmax(a),
    "silu": lambda a, b, j, w: ad.silu(a),
    "gather_rows": lambda a, b, j, w: adr.gather_distinct_rows(a, np.array([2, 0, 1])),
    "fold_rows": lambda a, b, j, w: adr.fold_rows(3, np.array([0, 2, 0]),
                                                  np.array([0, 0, 1]), a),
    "concat_rows": lambda a, b, j, w: adr.concat_rows(
        [adr.gather_distinct_rows(a, np.array([2, 0])), adr.gather_distinct_rows(b, np.array([1]))]),
    "gated_ffn": lambda a, b, j, w: gated_ffn(a, *w["ffn"]),
    "attention": lambda a, b, j, w: attend(a, *w["attention"]),
}


def _build_dag(seed, steps):
    """The leaves and the loss of the DAG that ``steps`` describe, with
    values drawn from ``seed``: two (3, 4) leaves and a (3, 4) constant to
    start from, and weight leaves the matrix and fused ops share."""
    rng = np.random.default_rng(seed)

    def leaf(*shape, requires_grad=True):
        return ad.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=requires_grad)

    pool = [leaf(3, 4), leaf(3, 4), leaf(3, 4, requires_grad=False)]
    w = {"square": leaf(4, 4),
         "ffn": (leaf(5, 4), leaf(5, 4, requires_grad=False), leaf(4, 5)),
         "attention": (leaf(4, 6), leaf(4, 6), leaf(4, 6), leaf(6, 4))}
    leaves = [*pool, w["square"], *w["ffn"], *w["attention"]]
    read: set[int] = set()
    for op, i, j in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        read.update((id(a), id(b)))
        pool.append(_DAG_OPS[op](a, b, j, w))
    sinks = [t for t in pool if id(t) not in read and t.requires_grad]
    loss = ad.sum(ad.mul(pool[0], pool[2]))
    for t in sinks:
        loss = ad.add(loss, ad.sum(ad.mul(t, ad.Tensor(rng.uniform(-1, 1, size=t.shape)))))
    return leaves, loss


def _grad_bytes(leaves):
    return [None if t.grad is None else t.grad.tobytes() for t in leaves]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(sorted(_DAG_OPS)), st.integers(0, 63),
                                st.integers(0, 63)), min_size=1, max_size=8))
def test_consuming_backward_matches_the_tape_keeping_one_bit_for_bit(seed, steps):
    """A sweep consumes its graph, so each side builds its own copy."""
    leaves, loss = _build_dag(seed, steps)
    adr.backward(loss)
    expect = _grad_bytes(leaves)
    leaves, loss = _build_dag(seed, steps)
    ad.backward(loss)
    assert _grad_bytes(leaves) == expect
    assert loss.grad.tobytes() == np.ones_like(loss.data).tobytes()


@pytest.mark.parametrize("make_cfg", [
    lambda s: dataclasses.replace(hn.smoke_train_config(s), steps=1), ref.trainval_config],
    ids=["smoke", "trainval"])
@pytest.mark.parametrize("seed", range(2))
def test_model_step_gradients_match_the_tape_keeping_backward(make_cfg, seed):
    cfg = make_cfg(seed)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    grads = []
    for sweep in (adr.backward, ad.backward):
        model = hn.ToyTransformer(cfg)
        loss, _, _ = model.forward(batch, mode="train")
        sweep(loss)
        grads.append(_grad_bytes(model.parameters().values()))
    assert grads[0] == grads[1]
    assert any(g is not None for g in grads[1])
