import math

import numpy as np
import numpy.testing as npt
import pytest

from dyncapmoe import autodiff as ad


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
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


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
    fd = ad.finite_diff_grad(lambda t: ad.sum(ad.scale(t, 2.0)), x)
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
    fd = ad.finite_diff_grad(lambda t: ad.sum(ad.silu(t)), x)
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
    fd = ad.finite_diff_grad(lambda t: ad.sum(ad.mul(t, t)), y)
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


def test_chained_matmul_softmax_vs_finite_differences():
    rng = np.random.default_rng(11)
    w = ad.Tensor(rng.uniform(-2, 2, size=(3, 3)), requires_grad=True)
    xv = rng.uniform(-2, 2, size=3)

    def f(wt):
        z = ad.matmul(wt, ad.Tensor(xv))
        p = ad.softmax(z)
        return ad.sum(ad.mul(p, p))

    ad.backward(f(w))
    fd = ad.finite_diff_grad(f, w)
    assert ad.max_rel_err(w.grad, fd) <= 1e-6


def test_finite_diff_trivial_and_norm():
    x = ad.Tensor([1.0, 2.0])
    npt.assert_allclose(ad.finite_diff_grad(lambda t: ad.sum(t), x), [1.0, 1.0], atol=1e-10)
    g = ad.finite_diff_grad(lambda t: ad.scale(ad.sum(ad.mul(t, t)), 0.5), x)
    npt.assert_allclose(g, [1.0, 2.0], atol=1e-8)


def test_finite_diff_rejects_non_scalar_f():
    x = ad.Tensor([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.finite_diff_grad(lambda t: ad.mul(t, t), x)


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


def test_gather_rows_repeated_index_accumulates_grad():
    a = ad.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    g = ad.gather_rows(a, [1, 1, 2])
    npt.assert_array_equal(g.data, [[2.0, 3.0], [2.0, 3.0], [4.0, 5.0]])
    ad.backward(ad.sum(g))
    npt.assert_array_equal(a.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    v = ad.gather_rows(ad.Tensor([5.0, 6.0, 7.0]), [2, 0])
    npt.assert_array_equal(v.data, [7.0, 5.0])


def test_scatter_add_rows_folds_repeated_rows_in_index_order():
    rows = np.array([[1e16], [1.0], [-1e16]])
    out = ad.scatter_add_rows(ad.zeros((2, 1)), [0, 0, 0], ad.Tensor(rows))
    npt.assert_array_equal(out.data, [[((0.0 + 1e16) + 1.0) - 1e16], [0.0]])
    assert out.data[0, 0] == 0.0  # a different order would leave 1.0


def test_matvec_rows_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.normal(size=(7, 32)))
    x = rng.normal(size=(40, 32))
    batched = ad.matvec_rows(w, ad.Tensor(x)).data
    for i in range(len(x)):
        npt.assert_array_equal(batched[i], ad.matmul(w, ad.Tensor(x[i])).data)
    npt.assert_array_equal(ad.matvec_rows(w, ad.Tensor(x[::-1])).data, batched[::-1])


@pytest.mark.parametrize("call", [
    lambda: ad.gather_rows(ad.zeros((3, 2)), [3]),
    lambda: ad.gather_rows(ad.zeros((3, 2)), [-1]),
    lambda: ad.gather_rows(ad.zeros((3, 2)), []),
    lambda: ad.gather_rows(ad.zeros((3, 2)), [[0]]),
    lambda: ad.gather_rows(ad.zeros((3, 2)), [0.0]),
    lambda: ad.scatter_add_rows(ad.zeros((3, 2)), [0, 1], ad.zeros((3, 2))),
    lambda: ad.scatter_add_rows(ad.zeros((3, 2)), [0], ad.zeros((1, 3))),
    lambda: ad.scatter_add_rows(ad.zeros((3, 2)), [5], ad.zeros((1, 2))),
    lambda: ad.scale_rows(ad.zeros((3, 2)), ad.zeros((2,))),
    lambda: ad.scale_rows(ad.zeros((3,)), ad.zeros((3,))),
    lambda: ad.scale_rows(ad.zeros((3, 2)), ad.zeros((3, 1))),
    lambda: ad.matvec_rows(ad.zeros((4, 3)), ad.zeros((2, 4))),
    lambda: ad.matvec_rows(ad.zeros((4, 3)), ad.zeros((3,))),
])
def test_row_ops_reject_bad_shapes(call):
    with pytest.raises(ad.ShapeError):
        call()


def test_scalar_broadcast_mul_grads():
    s = ad.Tensor(2.0, requires_grad=True)
    v = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    ad.backward(ad.sum(ad.mul(s, v)))
    npt.assert_allclose(s.grad, 6.0)
    npt.assert_allclose(v.grad, [2.0, 2.0, 2.0])


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
        "gather_rows": lambda t: ad.sum(ad.mul(ad.gather_rows(t, [2, 0, 2, 2]),
                                               ad.Tensor(gv))),
        "scatter_add_rows.base": lambda t: ad.sum(ad.mul(
            ad.scatter_add_rows(t, [1, 1, 0], ad.Tensor(yv)), ad.Tensor(gv[:3]))),
        "scatter_add_rows.rows": lambda t: ad.sum(ad.mul(
            ad.scatter_add_rows(ad.Tensor(gv), [3, 0, 3], t), ad.Tensor(gv))),
        "scale_rows.a": lambda t: ad.sum(ad.mul(ad.scale_rows(t, ad.Tensor(cv)),
                                                ad.Tensor(yv))),
        "scale_rows.c": lambda t: ad.sum(ad.mul(
            ad.scale_rows(ad.Tensor(yv), ad.matmul(t, ad.Tensor(wv[:, 0]))), ad.Tensor(yv))),
        "matvec_rows.x": lambda t: ad.sum(ad.mul(ad.matvec_rows(ad.Tensor(wv.T), t),
                                                 ad.Tensor(mv))),
        "matvec_rows.w": lambda t: ad.sum(ad.mul(ad.matvec_rows(t, ad.Tensor(gv)),
                                                 ad.Tensor(gv[:, :3]))),
    }
    for name, f in cases.items():
        x = ad.Tensor(xv, requires_grad=True)
        ad.backward(f(x))
        fd = ad.finite_diff_grad(f, x, eps=1e-6)
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
    fd = ad.finite_diff_grad(net, w1)
    assert ad.max_rel_err(w1.grad, fd) <= 1e-6


def test_determinism_same_seed_same_bytes():
    def run():
        w = ad.seeded_normal([4, 4], seed=123, std=0.5, requires_grad=True)
        x = ad.seeded_normal([4], seed=456, std=1.0)
        loss = ad.sum(ad.mul(ad.softmax(ad.matmul(w, x)), ad.Tensor([1.0, 2.0, 3.0, 4.0])))
        ad.backward(loss)
        return loss.data.tobytes(), w.grad.tobytes()

    assert run() == run()
