import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import moe_reference as ref
from fd_reference import finite_diff_grad
from dyncapmoe import autodiff as ad
from dyncapmoe import moe


# --------------------------------------------------------------------------
# independent straight-line oracles
# --------------------------------------------------------------------------

def prefix_oracle(p, top_p):
    """Sort by (-p, index), walk until the running sum reaches top_p."""
    order = sorted(range(len(p)), key=lambda i: (-p[i], i))
    total = 0.0
    chosen = []
    for i in order:
        chosen.append(i)
        total += p[i]
        if total >= top_p:
            return chosen
    return chosen  # rounding deficit: everything active


def ordered_prefixes_exact(p, top_p):
    """Exact probability of every ordered Top-P prefix: draws without
    replacement in proportion to the remaining mass (Plackett-Luce), until
    the drawn mass reaches top_p."""
    prefixes = {}

    def walk(remaining, drawn, mass, prob):
        total = sum(p[i] for i in remaining)
        if mass >= top_p or not remaining or total <= 0.0:
            prefixes[tuple(drawn)] = prefixes.get(tuple(drawn), 0.0) + prob
            return
        for i in remaining:
            if p[i] == 0.0:
                continue
            walk([j for j in remaining if j != i], drawn + [i],
                 mass + p[i], prob * p[i] / total)

    walk(list(range(len(p))), [], 0.0, 1.0)
    return prefixes


def sampled_inclusion_exact(p, top_p):
    """Exact per-slot inclusion probabilities by enumerating draw orders."""
    incl = np.zeros(len(p))
    for drawn, prob in ordered_prefixes_exact(p, top_p).items():
        incl[list(drawn)] += prob
    return incl


def silu_np(u):
    s = 1.0 / (1.0 + np.exp(-u))
    return u * s


def matvec_np(w, x):
    """``w @ x`` as the layer computes a token's row: row 0 of one GEMM over
    a block of ``_ROW_BLOCK`` rows whose other rows are zeros."""
    block = np.zeros((ad._ROW_BLOCK, len(x)))
    block[0] = x
    return (block @ w.T)[0]


def gated_ffn_np(x, params):
    return matvec_np(params.w_down.data, silu_np(matvec_np(params.w_gate.data, x))
                     * matvec_np(params.w_up.data, x))


def softmax_np(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def random_prob_vector(rng, n, with_ties):
    if with_ties:
        raw = rng.integers(1, 9, size=n).astype(np.float64)  # grid values force exact ties
    else:
        raw = rng.uniform(0.05, 1.0, size=n)
    return raw / raw.sum()


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

class TestMoEConfig:
    def test_shared_hidden_default_is_one_eighth(self):
        assert moe.MoEConfig(d_model=4, n_routed=2, expert_hidden=16).shared_hidden == 2
        assert moe.MoEConfig(d_model=4, n_routed=2, expert_hidden=64).shared_hidden == 8

    def test_shared_hidden_default_never_below_one(self):
        assert moe.MoEConfig(d_model=4, n_routed=2, expert_hidden=4).shared_hidden == 1

    def test_n_slots_counts_null(self):
        cfg = moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=8, n_null=2)
        assert cfg.n_slots == 5

    @pytest.mark.parametrize("kwargs", [
        {"d_model": 0, "n_routed": 1, "expert_hidden": 4},
        {"d_model": 4, "n_routed": 0, "expert_hidden": 4},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "n_null": -1},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "top_p": 0.0},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "top_p": 1.2},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "routing_mode": "greedy"},
        {"d_model": 4.5, "n_routed": 1, "expert_hidden": 4},
        {"d_model": 4, "n_routed": 2.5, "expert_hidden": 4},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 8.5},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "n_null": 1.0},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "n_shared": True},
        {"d_model": 4, "n_routed": 1, "expert_hidden": 4, "shared_hidden": 2.5},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            moe.MoEConfig(**kwargs)


# --------------------------------------------------------------------------
# router
# --------------------------------------------------------------------------

class TestRoute:
    def test_zero_weights_give_uniform_probs(self):
        cfg = moe.MoEConfig(d_model=3, n_routed=4, expert_hidden=4, seed=1)
        layer = moe.DynamicCapacityMoE(cfg)
        layer.router.data[:] = 0.0
        state = layer.route(ad.Tensor([0.3, -0.2, 0.9]))
        npt.assert_allclose(state.probs.data, np.full(4, 0.25), atol=1e-15)

    def test_closed_form_two_slot_softmax(self):
        cfg = moe.MoEConfig(d_model=1, n_routed=2, expert_hidden=4, seed=1)
        layer = moe.DynamicCapacityMoE(cfg)
        layer.router.data[:] = np.array([[math.log(2.0)], [0.0]])
        state = layer.route(ad.Tensor([1.0]))
        npt.assert_allclose(state.probs.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_probs_sum_to_one(self):
        cfg = moe.MoEConfig(d_model=6, n_routed=5, expert_hidden=4, n_null=2, seed=3)
        layer = moe.DynamicCapacityMoE(cfg)
        rng = np.random.default_rng(0)
        for _ in range(100):
            state = layer.route(ad.Tensor(rng.normal(size=6)))
            assert abs(state.probs.data.sum() - 1.0) <= 1e-12

    def test_logits_are_the_tokens_row_of_forward_rows_bit_for_bit(self, monkeypatch):
        """A token's logits and probabilities alone are its row of a batch,
        byte for byte, wherever the token sits in its block of rows."""
        cfg = moe.MoEConfig(d_model=6, n_routed=5, expert_hidden=4, n_null=2, seed=3)
        layer = moe.DynamicCapacityMoE(cfg)
        B = ad._ROW_BLOCK
        X = np.random.default_rng(4).normal(size=(2 * B + 3, cfg.d_model))
        batch_logits = []
        softmax_data = ad._softmax_data

        def spy(z):  # the fused layer takes the softmax of its router logits
            batch_logits.append(z)
            return softmax_data(z)

        monkeypatch.setattr(ad, "_softmax_data", spy)
        _, routing, _ = layer.forward_rows(ad.Tensor(X))
        monkeypatch.undo()
        (logits,) = batch_logits
        for t in (0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 2):
            state = layer.route(ad.Tensor(X[t]))
            assert state.logits.data.tobytes() == logits[t].tobytes()
            assert state.probs.data.tobytes() == routing.gate[t].tobytes()

    def test_dim_mismatch_raises(self):
        layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=3, n_routed=2, expert_hidden=4))
        with pytest.raises(ad.ShapeError):
            layer.route(ad.Tensor([1.0, 2.0]))


# --------------------------------------------------------------------------
# deterministic Top-P
# --------------------------------------------------------------------------

class TestSelectDeterministic:
    def test_worked_examples(self):
        d = moe.select_top_p_deterministic(np.array([0.5, 0.3, 0.2]), 0.7)
        assert d.active == (0, 1) and d.k == 2
        d = moe.select_top_p_deterministic(np.array([0.8, 0.1, 0.1]), 0.7)
        assert d.active == (0,) and d.k == 1

    def test_p_equal_one_activates_all(self):
        rng = np.random.default_rng(4)
        for n in (1, 3, 8):
            p = random_prob_vector(rng, n, with_ties=False)
            d = moe.select_top_p_deterministic(p, 1.0)
            assert d.k == n and sorted(d.active) == list(range(n))

    def test_stable_tie_break_prefers_lower_index(self):
        d = moe.select_top_p_deterministic(np.array([0.3, 0.4, 0.3]), 0.6)
        assert d.active == (1, 0) and d.k == 2

    def test_threshold_below_max_prob_gives_argmax_only(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_prob_vector(rng, 6, with_ties=False)
            d = moe.select_top_p_deterministic(p, float(p.max()) * 0.5)
            assert d.k == 1 and d.active == (int(np.argmax(p)),)

    def test_k_monotone_in_p(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_prob_vector(rng, 7, with_ties=True)
            ks = [moe.select_top_p_deterministic(p, t).k
                  for t in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
            assert ks == sorted(ks)

    def test_matches_prefix_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for trial in range(2000):
            n = int(rng.integers(1, 17))
            p = random_prob_vector(rng, n, with_ties=bool(trial % 2))
            for top_p in (0.1, 0.7, 1.0):
                d = moe.select_top_p_deterministic(p, top_p)
                assert list(d.active) == prefix_oracle(p.tolist(), top_p)

    def test_gate_mass_is_raw_prefix_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_prob_vector(rng, 6, with_ties=False)
            d = moe.select_top_p_deterministic(p, 0.7)
            oracle = sum(p[i] for i in d.active)
            mass = sum(e.gate_prob for e in d.per_expert)
            assert abs(mass - oracle) <= 1e-12
            if d.k < 6:
                assert mass < 1.0  # never renormalized to 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            moe.select_top_p_deterministic(np.array([0.5, 0.5]), 0.0)
        with pytest.raises(ValueError):
            moe.select_top_p_deterministic(np.array([0.5, 0.5]), 1.5)


# --------------------------------------------------------------------------
# sampled Top-P
# --------------------------------------------------------------------------

def _select_sampled(p, top_p):
    return moe.select_top_p_sampled(p, top_p, np.random.default_rng(0))


@pytest.mark.parametrize("select", [moe.select_top_p_deterministic, _select_sampled],
                         ids=["deterministic", "sampled"])
@pytest.mark.parametrize("p,message", [
    (np.full((2, 2), 0.25), "1-D and non-empty"),
    (np.full((1, 1), 1.0), "1-D and non-empty"),
    (np.array([]), "1-D and non-empty"),
    (np.array([0.5, 0.4]), "must sum to 1"),
    (np.array([0.5, 0.6]), "must sum to 1"),
], ids=["matrix", "one-by-one", "empty", "short", "over"])
def test_selection_refuses_a_probability_vector_it_cannot_take(select, p, message):
    with pytest.raises(ValueError, match=message):
        select(p, 0.7)


def _activation(slot, rank):
    return moe.ExpertActivation(index=slot, role=moe.ExpertRole.ROUTED, gate_prob=0.5,
                                rank=rank, is_argmax=rank == 0)


class TestRoutingDecision:
    @pytest.mark.parametrize("active,k,ranks", [
        ((0,), 2, (0,)),
        ((0, 1), 2, (0,)),
        ((0, 1), 1, (0, 1)),
    ], ids=["k-over-active", "fewer-activations", "k-under-both"])
    def test_refuses_a_k_other_than_its_activated_slots(self, active, k, ranks):
        with pytest.raises(ValueError, match="k must equal the number of activated"):
            moe.RoutingDecision(active=active, k=k,
                                per_expert=tuple(_activation(active[r], r) for r in ranks))

    def test_refuses_no_active_slot(self):
        with pytest.raises(ValueError, match="at least one routable slot must be active"):
            moe.RoutingDecision(active=(), k=0, per_expert=())

    def test_refuses_a_repeated_slot(self):
        with pytest.raises(ValueError, match="active slots must be unique"):
            moe.RoutingDecision(active=(1, 1), k=2,
                                per_expert=(_activation(1, 0), _activation(1, 1)))


class TestSelectSampled:
    def test_one_hot_always_selects_the_hot_slot(self):
        p = np.array([1.0, 0.0, 0.0])
        for seed in range(50):
            d = moe.select_top_p_sampled(p, 1.0, np.random.default_rng(seed))
            assert d.active == (0,) and d.k == 1

    def test_uniform_four_p03_always_k2(self):
        p = np.full(4, 0.25)
        for seed in range(100):
            d = moe.select_top_p_sampled(p, 0.3, np.random.default_rng(seed))
            assert d.k == 2

    def test_draw_order_recorded_and_unique(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        d = moe.select_top_p_sampled(p, 1.0, np.random.default_rng(11))
        assert sorted(d.active) == [0, 1, 2, 3]
        assert [e.rank for e in d.per_expert] == [0, 1, 2, 3]

    def test_stops_at_original_mass_threshold(self):
        p = np.array([0.5, 0.3, 0.2])
        for seed in range(200):
            d = moe.select_top_p_sampled(p, 0.7, np.random.default_rng(seed))
            mass = sum(e.gate_prob for e in d.per_expert)
            assert mass >= 0.7 - 1e-12
            # removing the last draw must leave the mass short of the threshold
            assert mass - d.per_expert[-1].gate_prob < 0.7

    def test_marginal_inclusion_matches_enumeration(self):
        p = np.array([0.5, 0.3, 0.2])
        top_p = 0.7
        exact = sampled_inclusion_exact(p.tolist(), top_p)
        trials = 100_000
        counts = np.zeros(3)
        rng = np.random.default_rng(1234)
        for _ in range(trials):
            d = moe.select_top_p_sampled(p, top_p, rng)
            for i in d.active:
                counts[i] += 1
        freq = counts / trials
        npt.assert_allclose(freq, exact, atol=0.01)
        assert freq[0] >= p[0]  # argmax slot included at least as often as its prob

    @pytest.mark.parametrize("p,top_p", [((0.5, 0.3, 0.2), 0.7),
                                         ((0.1, 0.4, 0.2, 0.3), 0.8)])
    def test_gumbel_prefixes_match_plackett_luce_enumeration(self, p, top_p):
        exact = ordered_prefixes_exact(list(p), top_p)
        assert math.isclose(sum(exact.values()), 1.0, abs_tol=1e-12)
        n, trials = len(p), 200_000
        U = np.random.default_rng([n, 8191]).random((trials, n))
        rank = moe._prefix_ranks(np.tile(p, (trials, 1)), top_p, U)
        # each row's ordered prefix as one base-(n+1) code: digit r is 1 + the
        # slot of rank r, 0 past the prefix
        k = (rank >= 0).sum(axis=1)
        order = np.argsort(np.where(rank >= 0, rank, n), axis=1, kind="stable")
        digits = np.where(np.arange(n) < k[:, None], order + 1, 0)
        place = (n + 1) ** np.arange(n)
        codes, counts = np.unique(digits @ place, return_counts=True)
        want = {sum((slot + 1) * place[r] for r, slot in enumerate(drawn)): prob
                for drawn, prob in exact.items()}
        assert set(codes.tolist()) <= set(want)  # no prefix the rule cannot take
        freq = dict(zip(codes.tolist(), (counts / trials).tolist()))
        for code, prob in want.items():
            # four standard errors of a 200k-trial frequency
            se = math.sqrt(prob * (1.0 - prob) / trials)
            assert abs(freq.get(code, 0.0) - prob) <= 4.0 * se, (code, prob)

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any),
           top_p=st.sampled_from((1e-6, 0.3, 0.5, 0.7, 0.9, 1.0)))
    def test_enumerated_prefixes_are_minimal_and_their_probabilities_sum_to_one(
            self, weights, top_p):
        # integer weights make ties and zero probabilities common
        p = (np.array(weights, dtype=float) / sum(weights)).tolist()
        exact = ordered_prefixes_exact(p, top_p)
        assert math.isclose(math.fsum(exact.values()), 1.0, rel_tol=0.0, abs_tol=1e-12)
        positive = {i for i, q in enumerate(p) if q > 0.0}
        for drawn, prob in exact.items():
            assert prob > 0.0 and drawn and len(set(drawn)) == len(drawn)
            assert set(drawn) <= positive
            mass = 0.0
            for i in drawn:  # left to right, as the draw adds it up
                before, mass = mass, mass + p[i]
            assert mass >= top_p or set(drawn) == positive, drawn
            assert before < top_p, drawn


@st.composite
def prefix_problems(draw):
    """Probability rows ``P`` [n, slots] or [probes, n, slots], from small
    integer weights (so ties and zero probabilities are common), with a
    threshold and, half the time, one uniform per (token, slot)."""
    n_slots = draw(st.integers(1, 10), label="n_slots")
    shape = draw(st.sampled_from(((), (1,), (3,))), label="probes") + (
        draw(st.integers(1, 5), label="n"), n_slots)
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape)))), dtype=float)
    weights = weights.reshape(shape)
    weights[..., 0] += weights.sum(axis=-1) == 0  # a row needs some mass
    P = weights / weights.sum(axis=-1, keepdims=True)
    top_p = draw(st.one_of(st.sampled_from((1.0, 0.5, 0.7, 1e-9)),
                           st.floats(0.0, 1.0, exclude_min=True)), label="top_p")
    U = None
    if draw(st.booleans(), label="sampled"):
        u = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
        size = shape[-2] * n_slots
        U = np.array(draw(st.lists(u, min_size=size, max_size=size))).reshape(shape[-2:])
    return P, top_p, U


class TestPrefixRanks:
    @settings(max_examples=300, deadline=None)
    @given(problem=prefix_problems())
    # ten slots of 0.1 sum to 0.9999999999999999, short of top_p = 1
    @example(problem=(np.full((1, 10), 0.1), 1.0, None))
    @example(problem=(np.full((2, 1, 10), 0.1), 1.0, np.linspace(0.0, 0.9, 10)[None, :]))
    def test_every_row_equals_the_per_row_walk(self, problem):
        P, top_p, U = problem
        rank = moe._prefix_ranks(P, top_p, U)
        assert rank.shape == P.shape and rank.dtype == np.int64
        for index in np.ndindex(P.shape[:-1]):
            p = P[index]
            if U is None:
                want = ref.prefix_decision(p, top_p, 0, p.size)
            else:
                want = ref.gumbel_decision(p, U[index[-1]], top_p, 0, p.size)
            expect = np.full(p.size, -1)
            expect[list(want.active)] = np.arange(want.k)
            assert rank[index].tolist() == expect.tolist(), index


# --------------------------------------------------------------------------
# expert forward
# --------------------------------------------------------------------------

def small_layer(**overrides):
    kwargs = dict(d_model=4, n_routed=2, expert_hidden=6, n_null=1, n_shared=1,
                  top_p=0.7, seed=9)
    kwargs.update(overrides)
    return moe.DynamicCapacityMoE(moe.MoEConfig(**kwargs))


class TestExpertForward:
    def test_null_slot_outputs_exact_zero_constant(self):
        layer = small_layer()
        out = ref.expert_output(layer, ad.Tensor([1.0, -2.0, 3.0, 0.5]), 2)
        npt.assert_array_equal(out.data, np.zeros(4))
        assert not out.requires_grad

    def test_zero_weights_give_zero_output(self):
        layer = small_layer()
        for t in (layer.routed[0].w_gate, layer.routed[0].w_up, layer.routed[0].w_down):
            t.data[:] = 0.0
        out = moe.gated_ffn(ad.Tensor([[1.0, 2.0, 3.0, 4.0]]), layer.routed[0])
        npt.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_matches_numpy_oracle(self):
        layer = small_layer()
        X = np.array([[0.3, -0.8, 0.1, 1.2], [-1.1, 0.4, 0.9, -0.2], [0.0, 0.5, -0.6, 0.7]])
        for params in (layer.routed[1], layer.shared[0]):
            out = moe.gated_ffn(ad.Tensor(X), params)
            for i, x in enumerate(X):
                npt.assert_array_equal(out.data[i], gated_ffn_np(x, params))

    def test_takes_token_rows_only(self):
        layer = small_layer()
        with pytest.raises(ad.ShapeError):
            moe.gated_ffn(ad.Tensor([0.3, -0.8, 0.1, 1.2]), layer.routed[0])
        with pytest.raises(ad.ShapeError):
            moe.gated_ffn(ad.Tensor(np.zeros((2, 3))), layer.routed[0])

    def test_gradient_matches_finite_differences(self):
        layer = small_layer()
        xv = np.array([[0.4, -0.2, 0.7, -0.5], [0.1, 0.8, -0.3, 0.6]])
        params = layer.routed[0]
        up = np.array([[0.3, -1.1, 0.6, 0.9], [-0.5, 0.2, 0.4, -0.7]])

        out = moe.gated_ffn(ad.Tensor(xv), params)
        ad.backward(ad.sum(ad.mul(out, ad.Tensor(up))))

        def f(w):
            rebuilt = dataclasses.replace(params, w_gate=w)
            return ad.sum(ad.mul(moe.gated_ffn(ad.Tensor(xv), rebuilt), ad.Tensor(up)))

        fd = finite_diff_grad(f, ad.Tensor(params.w_gate.data))
        assert ad.max_rel_err(params.w_gate.grad, fd) <= 1e-6


# --------------------------------------------------------------------------
# layer forward, inference
# --------------------------------------------------------------------------

class TestForwardInfer:
    def test_saturated_gate_reduces_to_single_expert(self):
        layer = small_layer(n_null=0, n_shared=0)
        layer.router.data[:] = 0.0
        layer.router.data[0, :] = 250.0   # softmax saturates to exactly [1, 0]
        x = ad.Tensor([1.0, 1.0, 1.0, 1.0])
        y, decision = layer.forward_infer(x)
        assert decision.active == (0,) and decision.per_expert[0].gate_prob == 1.0
        expert = moe.gated_ffn(ad.Tensor([x.data]), layer.routed[0])
        npt.assert_array_equal(y.data, expert.data[0])

    def test_matches_straight_line_oracle(self):
        layer = small_layer()
        rng = np.random.default_rng(13)
        for _ in range(20):
            xv = rng.normal(size=4)
            y, decision = layer.forward_infer(ad.Tensor(xv))
            p = softmax_np(matvec_np(layer.router.data, xv))
            acc = np.zeros(4)
            for entry in decision.per_expert:
                if entry.role is moe.ExpertRole.NULL:
                    continue
                acc = acc + p[entry.index] * gated_ffn_np(xv, layer.routed[entry.index])
            acc = acc + gated_ffn_np(xv, layer.shared[0])
            npt.assert_array_equal(y.data, acc)

    def test_active_null_slot_leaves_output_unchanged(self):
        layer = small_layer(top_p=1.0)  # every slot active, including the null one
        xv = np.array([0.6, -0.3, 0.2, 0.8])
        y, decision = layer.forward_infer(ad.Tensor(xv))
        assert any(e.role is moe.ExpertRole.NULL for e in decision.per_expert)
        p = softmax_np(matvec_np(layer.router.data, xv))
        acc = np.zeros(4)
        for entry in decision.per_expert:
            if entry.role is moe.ExpertRole.NULL:
                continue
            acc = acc + p[entry.index] * gated_ffn_np(xv, layer.routed[entry.index])
        acc = acc + gated_ffn_np(xv, layer.shared[0])
        npt.assert_array_equal(y.data, acc)

    def test_shared_expert_listed_for_every_token(self):
        layer = small_layer()
        rng = np.random.default_rng(14)
        for _ in range(25):
            _, decision = layer.forward_infer(ad.Tensor(rng.normal(size=4)))
            assert len(decision.shared) == 1
            assert decision.shared[0].role is moe.ExpertRole.SHARED
            assert decision.shared[0].index == layer.config.n_slots


# --------------------------------------------------------------------------
# layer forward, training
# --------------------------------------------------------------------------

class TestForwardTrain:
    def test_single_contribution_forward_equals_scaled_output(self):
        """The one routed term is scale * o bit for bit, in all four
        (delta, B) branches (the null slot adds nothing)."""
        layer = small_layer(n_routed=1, n_null=1, n_shared=0, routing_mode="sampled",
                            top_p=1.0)
        rng = np.random.default_rng(11)
        branches = set()
        for seed in range(40):
            xv = rng.normal(size=4)
            y, decision = layer.forward_train(ad.Tensor(xv), np.random.default_rng(seed))
            entry = next(e for e in decision.per_expert if e.role is moe.ExpertRole.ROUTED)
            o = entry.gate_prob * gated_ffn_np(xv, layer.routed[0])
            assert y.data.tobytes() == (entry.forward_scale * o).tobytes()
            branches.add((entry.is_argmax, entry.bern))
        assert branches == {(False, 0), (False, 1), (True, 0), (True, 1)}

    def test_argmax_contribution_passes_through_exactly(self):
        layer = small_layer(n_shared=0, top_p=0.05)  # only the argmax slot activates
        xv = np.array([0.2, 0.7, -0.5, 0.4])
        y, decision = layer.forward_train(ad.Tensor(xv), np.random.default_rng(3))
        entry = decision.per_expert[0]
        assert entry.is_argmax and entry.forward_scale == 1.0
        y_plain, _ = layer.forward_infer(ad.Tensor(xv))
        npt.assert_array_equal(y.data, y_plain.data)

    def test_multi_expert_forward_matches_scaled_oracle(self):
        layer = small_layer(routing_mode="sampled", top_p=0.9)
        xv = np.array([0.5, 0.1, -0.7, 0.3])
        for seed in range(10):
            y, decision = layer.forward_train(ad.Tensor(xv), np.random.default_rng(seed))
            p = softmax_np(matvec_np(layer.router.data, xv))
            acc = np.zeros(4)
            for entry in decision.per_expert:
                assert entry.bern in (0, 1)
                if entry.role is moe.ExpertRole.NULL:
                    continue
                o = p[entry.index] * gated_ffn_np(xv, layer.routed[entry.index])
                acc = acc + entry.forward_scale * o
            acc = acc + gated_ffn_np(xv, layer.shared[0])
            npt.assert_allclose(y.data, acc, rtol=0, atol=1e-14)

    def test_gradients_doubled_versus_plain_graph(self):
        cfg = dict(n_shared=0, routing_mode="sampled", top_p=0.9)
        layer_est = small_layer(**cfg)
        layer_plain = small_layer(**cfg)  # identical parameters via identical seed
        xv = np.array([0.4, -0.6, 0.2, 0.9])

        y, routing, _ = layer_est.forward_rows(ad.Tensor([xv]), "train", key=(21,))
        ad.backward(ad.sum(y))

        replay = dataclasses.replace(routing, bern=None)
        y_plain, matches = layer_plain.forward_frozen(ad.Tensor(xv), replay)
        assert matches
        ad.backward(ad.sum(y_plain))

        est_params, plain_params = layer_est.parameters(), layer_plain.parameters()
        checked = 0
        for name, t in est_params.items():
            g_plain = plain_params[name].grad
            if t.grad is None:
                assert g_plain is None
                continue
            npt.assert_allclose(t.grad, 2.0 * g_plain, rtol=0, atol=1e-12)
            checked += 1
        assert checked >= 4  # router plus at least one full expert

    def test_null_slot_contributes_no_gradient_terms(self):
        layer = small_layer(n_routed=1, n_null=1, n_shared=0, top_p=1.0)
        xv = np.array([0.3, 0.3, -0.1, 0.2])
        y, decision = layer.forward_train(ad.Tensor(xv), np.random.default_rng(5))
        assert {e.role for e in decision.per_expert} == {moe.ExpertRole.ROUTED,
                                                         moe.ExpertRole.NULL}
        ad.backward(ad.sum(y))
        # router still receives gradient through the routed gate only; finite values
        assert np.all(np.isfinite(layer.router.grad))

    def test_frozen_replay_detects_argmax_flip(self):
        layer = small_layer(n_shared=0)
        xv = np.array([0.4, -0.6, 0.2, 0.9])
        _, routing, _ = layer.forward_rows(ad.Tensor([xv]), "train", key=(8,))
        flipped = dataclasses.replace(routing, is_argmax=~routing.is_argmax)
        _, matches = layer.forward_frozen(ad.Tensor(xv), flipped)
        assert not matches

    def test_frozen_token_equals_the_frozen_row(self):
        token_layer, rows_layer = (small_layer(routing_mode="sampled", top_p=0.9)
                                   for _ in range(2))
        xv = np.array([0.5, -0.3, 0.8, -0.1])
        _, routing, _ = token_layer.forward_rows(ad.Tensor([xv]), "train", key=(4,))
        x = ad.Tensor(xv, requires_grad=True)
        y, matches = token_layer.forward_frozen(x, routing)
        ad.backward(ad.sum(y))
        X = ad.Tensor([xv], requires_grad=True)
        Y, replayed, matches_rows = rows_layer.forward_rows(X, frozen=routing)
        ad.backward(ad.sum(Y))
        assert matches and matches_rows and replayed is routing
        assert y.data.tobytes() == Y.data[0].tobytes()
        assert x.grad.tobytes() == X.grad[0].tobytes()
        rows_params = rows_layer.parameters()
        for name, t in token_layer.parameters().items():
            assert t.grad.tobytes() == rows_params[name].grad.tobytes(), name
        _, two_rows, _ = token_layer.forward_rows(ad.Tensor([xv, xv]), "infer")
        with pytest.raises(ValueError, match="cover 1 tokens"):
            token_layer.forward_frozen(x, two_rows)


class TestPerTokenForwardShapes:
    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), ()])
    @pytest.mark.parametrize("forward", ["infer", "train", "frozen"])
    def test_a_token_of_another_shape_is_refused(self, forward, shape):
        layer = small_layer()
        _, recorded, _ = layer.forward_rows(ad.Tensor(np.ones((1, 4))), "infer")
        x = ad.Tensor(np.ones(shape))
        call = {"infer": lambda: layer.forward_infer(x),
                "train": lambda: layer.forward_train(x, np.random.default_rng(0)),
                "frozen": lambda: layer.forward_frozen(x, recorded)}[forward]
        with pytest.raises(ad.ShapeError, match=r"token must have shape \(4,\), got"):
            call()


# --------------------------------------------------------------------------
# batched application
# --------------------------------------------------------------------------

class TestLayerApply:
    def test_single_token_batch_equals_direct_call(self):
        layer = small_layer()
        xv = np.array([0.1, 0.2, 0.3, 0.4])
        ys, ds, _ = layer.forward_rows(ad.Tensor([xv]), "infer")
        y_direct, d_direct = layer.forward_infer(ad.Tensor(xv))
        npt.assert_array_equal(ys.data[0], y_direct.data)
        assert ds[0].active == d_direct.active

    def test_infer_outputs_permute_with_the_batch(self):
        layer = small_layer()
        rng = np.random.default_rng(17)
        batch = rng.normal(size=(6, 4))
        ys, _, _ = layer.forward_rows(ad.Tensor(batch), "infer")
        perm = [3, 0, 5, 1, 4, 2]
        ys_perm, _, _ = layer.forward_rows(ad.Tensor(batch[perm]), "infer")
        for j, src in enumerate(perm):
            npt.assert_array_equal(ys_perm.data[j], ys.data[src])

    def test_train_mode_is_reproducible(self):
        layer = small_layer(routing_mode="sampled")
        rng = np.random.default_rng(18)
        batch = rng.normal(size=(5, 4))
        key = (layer.config.seed, 7)
        ys1, ds1, _ = layer.forward_rows(ad.Tensor(batch), "train", key=key)
        ys2, ds2, _ = layer.forward_rows(ad.Tensor(batch), "train", key=key)
        for a, b in zip(ys1.data, ys2.data):
            npt.assert_array_equal(a, b)
        assert [d.active for d in ds1] == [d.active for d in ds2]

    def test_distinct_steps_draw_distinct_streams(self):
        layer = small_layer(routing_mode="sampled", top_p=0.9)
        rng = np.random.default_rng(19)
        batch = rng.normal(size=(8, 4))
        _, ds1, _ = layer.forward_rows(ad.Tensor(batch), "train", key=(layer.config.seed, 0))
        _, ds2, _ = layer.forward_rows(ad.Tensor(batch), "train", key=(layer.config.seed, 1))
        draws1 = [(d.active, tuple(e.bern for e in d.per_expert)) for d in ds1]
        draws2 = [(d.active, tuple(e.bern for e in d.per_expert)) for d in ds2]
        assert draws1 != draws2

    def test_construction_is_deterministic(self):
        a, b = small_layer(), small_layer()
        for name, t in a.parameters().items():
            npt.assert_array_equal(t.data, b.parameters()[name].data)
