import numpy as np
import numpy.testing as npt
import pytest

import estimator_reference as est_ref
from fd_reference import finite_diff_grad
from dyncapmoe import autodiff as ad
from dyncapmoe import estimator as est


def random_objective(rng, n_experts, d, degree):
    return est.ClosedFormObjective(
        degree=degree,
        projection=rng.uniform(-1, 1, size=d),
        expert_outputs=[rng.uniform(-1, 1, size=d) for _ in range(n_experts)],
    )


class TestHybridScale:
    def test_branch_table(self):
        assert est.hybrid_scale(1, 0) == 1.0
        assert est.hybrid_scale(1, 1) == 1.0
        assert est.hybrid_scale(0, 1) == 1.0
        assert est.hybrid_scale(0, 0) == pytest.approx(1 / 3, abs=0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            est.hybrid_scale(2, 0)
        with pytest.raises(ValueError):
            est.hybrid_scale(0, -1)
        with pytest.raises(ValueError):
            est.hybrid_scale(np.array([0, 1]), np.array([1, 2]))

    def test_arrays_follow_the_scalar_rule_bit_for_bit(self):
        rng = np.random.default_rng(31)
        pairs = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])]
        for delta, bern in (pairs, rng.integers(0, 2, size=(2, 5, 7)),
                            rng.integers(0, 2, size=(2, 9)).astype(bool)):
            scales = est.hybrid_scale(delta, bern)
            assert scales.shape == delta.shape
            for idx in np.ndindex(delta.shape):
                want = est.hybrid_scale(int(delta[idx]), int(bern[idx]))
                assert scales[idx].tobytes() == np.float64(want).tobytes()

    def test_draw_invariants(self):
        d = est_ref.EstimatorDraw(expert_index=3, delta=0, bern=0)
        assert d.forward_scale == pytest.approx(1 / 3, abs=0)
        assert d.bernoulli_prob == 5 / 8
        assert est_ref.EstimatorDraw(0, 1, 0).forward_scale == 1.0
        assert est_ref.EstimatorDraw(0, 1, 1).forward_scale == 1.0


class TestApplyEstimator:
    def test_zero_input_stays_zero(self):
        w = ad.Tensor([0.0, 0.0], requires_grad=True)
        out = est.apply_estimator(w, est.hybrid_scale(0, 0))
        npt.assert_array_equal(out.data, [0.0, 0.0])
        ad.backward(ad.sum(out))
        npt.assert_array_equal(w.grad, [2.0, 2.0])  # path doubled even at zero value

    @pytest.mark.parametrize("delta,bern", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_forward_value_is_scaled(self, delta, bern):
        rng = np.random.default_rng(5)
        o = ad.Tensor(rng.uniform(-2, 2, size=6))
        out = est.apply_estimator(o, est.hybrid_scale(delta, bern))
        assert out.data.tobytes() == (est.hybrid_scale(delta, bern) * o.data).tobytes()

    @pytest.mark.parametrize("delta,bern", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_gradient_is_exactly_doubled(self, delta, bern):
        rng = np.random.default_rng(9)
        wv = rng.uniform(-1, 1, size=(4, 3))
        xv = rng.uniform(-1, 1, size=3)
        up = rng.uniform(-1, 1, size=4)

        w = ad.Tensor(wv, requires_grad=True)
        o = ad.matmul(w, ad.Tensor(xv))
        ad.backward(ad.sum(ad.mul(est.apply_estimator(o, est.hybrid_scale(delta, bern)),
                                  ad.Tensor(up))))
        grad_est = w.grad

        w2 = ad.Tensor(wv, requires_grad=True)
        o2 = ad.matmul(w2, ad.Tensor(xv))
        ad.backward(ad.sum(ad.mul(ad.scale(o2, 2.0), ad.Tensor(up))))
        npt.assert_allclose(grad_est, w2.grad, rtol=0, atol=1e-12)

    def test_per_row_draws_match_row_by_row_application(self):
        rng = np.random.default_rng(12)
        ov = rng.uniform(-2, 2, size=(4, 3))
        delta, bern = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        o = ad.Tensor(ov, requires_grad=True)
        out = est.apply_estimator(o, est.hybrid_scale(delta, bern))
        for i in range(4):
            one = est.apply_estimator(ad.Tensor(ov[i]), est.hybrid_scale(delta[i], bern[i]))
            npt.assert_array_equal(out.data[i], one.data)
        ad.backward(ad.sum(out))
        npt.assert_array_equal(o.grad, np.full((4, 3), 2.0))

    @pytest.mark.parametrize("delta,bern,error", [
        ([0, 1], [0, 1, 1], ad.ShapeError),
        ([0, 1, 1], [0, 1], ad.ShapeError),
        ([0, 2, 1], [0, 1, 1], ValueError),
        ([0, 1, 1], [0, 1, -1], ValueError),
    ])
    def test_per_row_draws_are_validated(self, delta, bern, error):
        # the draws are checked where their scales are derived
        with pytest.raises(error):
            est.apply_estimator(ad.Tensor(np.ones((3, 2))),
                                est.hybrid_scale(np.array(delta), np.array(bern)))

    @pytest.mark.parametrize("shape,scale", [
        ((3, 2), np.ones(2)),
        ((3, 2), np.ones(4)),
        ((3, 2), np.ones((3, 1))),
        ((3,), np.ones(3)),
    ])
    def test_per_row_scales_need_one_entry_per_row(self, shape, scale):
        with pytest.raises(ad.ShapeError):
            est.apply_estimator(ad.Tensor(np.ones(shape)), scale)


class TestClosedFormObjective:
    @pytest.mark.parametrize("degree", [0, 4, -1])
    def test_refuses_a_degree_outside_one_to_three(self, degree):
        with pytest.raises(ValueError, match=f"degree must be 1, 2 or 3, got {degree}"):
            est.ClosedFormObjective(degree=degree, projection=np.ones(3),
                                    expert_outputs=[np.ones(3)])

    @pytest.mark.parametrize("outputs", [[np.ones(2)], [np.ones(3), np.ones(4)],
                                         [np.ones((3, 1))], [np.ones(3), np.ones(())]],
                             ids=["shorter", "second-longer", "column", "scalar"])
    def test_refuses_expert_outputs_shaped_unlike_the_projection(self, outputs):
        with pytest.raises(ad.ShapeError, match="expert outputs and projection must share"):
            est.ClosedFormObjective(degree=1, projection=np.ones(3), expert_outputs=outputs)


class TestExactGradientOracle:
    def test_identical_experts_uniform_probs_zero_grad(self):
        e = np.array([0.3, -0.7, 1.1])
        obj = est.ClosedFormObjective(degree=1, projection=np.array([1.0, 0.5, -0.25]),
                                      expert_outputs=[e, e, e])
        grad = est.exact_gradient_oracle(obj, np.zeros(3))
        npt.assert_allclose(grad, np.zeros(3), atol=1e-14)

    def test_matches_finite_differences_two_experts(self):
        rng = np.random.default_rng(21)
        obj = random_objective(rng, n_experts=2, d=4, degree=2)
        zv = rng.uniform(-1, 1, size=2)
        grad = est.exact_gradient_oracle(obj, zv)

        def loss(z):
            p = ad.softmax(z)
            total = None
            for i in range(2):
                p_i = ad.index(p, i)
                term = ad.mul(p_i, obj.downstream(ad.mul(p_i, ad.Tensor(obj.expert_outputs[i]))))
                total = term if total is None else ad.add(total, term)
            return total

        fd = finite_diff_grad(loss, ad.Tensor(zv))
        assert ad.max_rel_err(grad, fd) <= 1e-8

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(22)
        for degree in (1, 2, 3):
            obj = random_objective(rng, n_experts=4, d=3, degree=degree)
            grad = est.exact_gradient_oracle(obj, rng.uniform(-2, 2, size=4))
            assert abs(grad.sum()) <= 1e-10


class TestEstimatorExpectation:
    @pytest.mark.parametrize("n_experts", [2, 3, 4])
    def test_unbiased_for_linear_downstream(self, n_experts):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            obj = random_objective(rng, n_experts, d=8, degree=1)
            zv = rng.uniform(-2, 2, size=n_experts)
            expect = est.estimator_expectation(obj, zv)
            truth = est.exact_gradient_oracle(obj, zv)
            assert np.max(np.abs(expect - truth)) <= 1e-10

    def test_unbiased_on_draws_keyed_by_seed_and_width(self):
        """2-4 experts, d=8, one generator keyed ``[seed, n_experts]`` per
        draw, seeds 0-4: the estimator's exact mean is the exact gradient."""
        for n_experts in (2, 3, 4):
            for seed in range(5):
                rng = np.random.default_rng([seed, n_experts])
                obj = random_objective(rng, n_experts, d=8, degree=1)
                zv = rng.uniform(-2, 2, size=n_experts)
                diff = (est.estimator_expectation(obj, zv)
                        - est.exact_gradient_oracle(obj, zv))
                assert np.max(np.abs(diff)) <= 1e-10

    def test_heun_branch_exact_per_expert_for_cubic(self):
        rng = np.random.default_rng(77)
        obj = random_objective(rng, n_experts=3, d=5, degree=3)
        zv = rng.uniform(-1.5, 1.5, size=3)
        expert_terms = est.estimator_expectation(obj, zv, force_delta=0, per_expert=True)
        oracle_terms = est.exact_gradient_oracle(obj, zv, per_expert=True)
        for got, want in zip(expert_terms, oracle_terms):
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_euler_only_biased_for_quadratic(self):
        rng = np.random.default_rng(31)
        obj = random_objective(rng, n_experts=3, d=4, degree=2)
        zv = rng.uniform(-1, 1, size=3)
        expect = est.estimator_expectation(obj, zv, force_delta=1)
        truth = est.exact_gradient_oracle(obj, zv)
        bias = np.max(np.abs(expect - truth))
        assert bias > 1e-8  # measurably biased; exact magnitude not pinned

    def test_expectation_sums_to_zero(self):
        rng = np.random.default_rng(13)
        obj = random_objective(rng, n_experts=4, d=4, degree=1)
        grad = est.estimator_expectation(obj, rng.uniform(-1, 1, size=4))
        assert abs(grad.sum()) <= 1e-10


class TestCoefficientReferences:
    def test_euler_reference(self):
        ref = est_ref.euler_scale_reference()
        assert ref == {"outer": 2.0, "inner": 1.0}

    def test_heun_table_and_product_identity(self):
        table = est_ref.heun_scale_reference()
        assert table[1]["outer"] == 2.0 and table[1]["inner"] == 1.0
        assert table[0]["outer"] == 6.0 and table[0]["inner"] == pytest.approx(1 / 3, abs=0)
        for bern in (0, 1):
            assert (6 - 4 * bern) * (1 + 2 * bern) / 3 == 2.0

    def test_expected_outer_coefficient(self):
        table = est_ref.heun_scale_reference()
        mean_outer = est.BERNOULLI_P * table[1]["outer"] + (1 - est.BERNOULLI_P) * table[0]["outer"]
        assert mean_outer == 3.5

    def test_quadrature_exact_through_degree_two(self):
        for a in (0.7, -1.3, 2.0):
            assert est_ref.heun_quadrature(lambda t: 1.0, a) == pytest.approx(a, abs=1e-12)
            assert est_ref.heun_quadrature(lambda t: t, a) == pytest.approx(a * a / 2, abs=1e-12)
            assert est_ref.heun_quadrature(lambda t: t * t, a) == pytest.approx(a ** 3 / 3, abs=1e-12)

    def test_quadrature_not_exact_at_degree_three(self):
        a = 1.5
        assert abs(est_ref.heun_quadrature(lambda t: t ** 3, a) - a ** 4 / 4) > 1e-3
