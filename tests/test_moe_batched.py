"""The token-batched layer against the per-token reference in moe_reference.

Discrete outcomes (active sets, ranks, gate probabilities, B draws, forward
scales, argmax flags, the frozen ``matches`` flag) and forward values must
agree exactly: each row is computed as it would be alone and sums its terms
in the same order.  Gradients sum over tokens in another order, so they
agree within 1e-12.

The fused layer is also checked against the composed graph built from the
generic row ops of ``autodiff_reference`` (one
``scatter_add_rows`` per expert, and one that adds the pairs into the
output in pair order with ``np.add.at``), bit for bit in outputs and
gradients alike, on the shipped model shapes.
"""

import dataclasses
import functools
import itertools

import numpy as np
import numpy.testing as npt
import pytest

import autodiff_reference as adr
import moe_reference as ref
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
from dyncapmoe import moe

SEEDS = range(20)
TOKEN_COUNTS = (1, 3, 10, 128)
TOL = 1e-12
# top_p == 1.0 activates every slot; small P activates the argmax only, which
# leaves routed experts with empty token groups
TOP_PS = (1.0, 0.3, 0.5, 0.7, 0.9)


def make_layer(seed, routing_mode, n_null, n_shared):
    return moe.DynamicCapacityMoE(moe.MoEConfig(
        d_model=5, n_routed=3, expert_hidden=4, n_null=n_null, n_shared=n_shared,
        shared_hidden=3, top_p=TOP_PS[seed % len(TOP_PS)],
        routing_mode=routing_mode, seed=seed))


def run_and_backward(layer, X, upstream, forward):
    """forward(X) -> (rows, decisions, matches); returns them with gradients."""
    rows, decisions, matches = forward(X)
    ad.backward(ad.sum(ad.mul(rows, ad.Tensor(upstream))))
    tensors = {"X": X, **layer.parameters()}
    grads = {name: (None if t.grad is None else t.grad.copy())
             for name, t in tensors.items()}
    adr.zero_grads(tensors.values())
    return rows.data.copy(), decisions, matches, grads


def assert_grads_close(got, want):
    assert got.keys() == want.keys()
    for name in want:
        if want[name] is None:
            assert got[name] is None or not np.any(got[name]), name
        else:
            npt.assert_allclose(got[name], want[name], rtol=0, atol=TOL, err_msg=name)


@pytest.mark.parametrize("routing_mode,n_null,n_shared,n", list(itertools.product(
    ("deterministic", "sampled"), (0, 1), (0, 2), TOKEN_COUNTS)))
def test_forward_rows_matches_per_token_reference(routing_mode, n_null, n_shared, n):
    empty_groups = 0
    flags = set()
    for seed in SEEDS:
        layer = make_layer(seed, routing_mode, n_null, n_shared)
        rng = np.random.default_rng([seed, n, 31])
        X = ad.Tensor(rng.normal(size=(n, 5)), requires_grad=True)
        upstream = rng.normal(size=(n, 5))
        key = (seed, 7)

        def batched(mode, frozen=None):
            def forward(X):
                Y, decisions, matches = layer.forward_rows(X, mode, key=key, frozen=frozen)
                return ad.add(X, Y), decisions, matches
            return forward

        def reference(mode, frozen=None):
            return lambda X: ref.moe_rows(layer, X, mode, key, frozen)

        recorded = None
        for mode in ("infer", "train"):
            want = run_and_backward(layer, X, upstream, reference(mode))
            got = run_and_backward(layer, X, upstream, batched(mode))
            assert list(got[1]) == want[1], (seed, mode)
            npt.assert_array_equal(got[0], want[0])
            assert_grads_close(got[3], want[3])
            recorded = got[1]
        used = {e.index for d in recorded for e in d.per_expert
                if e.role is moe.ExpertRole.ROUTED}
        empty_groups += len(used) < layer.config.n_routed

        # replay at the recorded parameters, then at perturbed ones where
        # some live selections flip
        for shift in (0.0, 0.6):
            layer.router.data += shift * rng.normal(size=layer.router.data.shape)
            want = run_and_backward(layer, X, upstream, reference("train", recorded))
            got = run_and_backward(layer, X, upstream, batched("train", recorded))
            assert got[2] == want[2], (seed, shift)
            flags.add(got[2])
            npt.assert_array_equal(got[0], want[0])
            assert_grads_close(got[3], want[3])
    assert flags == {True, False}  # some perturbed replays flip a live choice
    if n <= 3:
        assert empty_groups > 0  # the sweep covers experts that no token chose


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make_config", [hn.smoke_train_config, hn.gradcheck_default_config,
                                         ref.trainval_config])
def test_pair_buffer_fill_matches_per_expert_scatters_bit_for_bit(make_config, seed):
    cfg = make_config(seed)
    layer = moe.DynamicCapacityMoE(cfg.moe)
    tokens = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                               cfg.noise, cfg.theta).tokens
    upstream = np.random.default_rng([seed, 41]).normal(size=tokens.shape)
    key = (seed, 5077)

    def run(forward, mode, frozen=None):
        X = ad.Tensor(tokens, requires_grad=True)
        Y, routing, matches = forward(X, mode, key, frozen)
        ad.backward(ad.sum(ad.mul(Y, ad.Tensor(upstream))))
        tensors = {"X": X, **layer.parameters()}
        grads = {name: None if t.grad is None else t.grad.copy()
                 for name, t in tensors.items()}
        adr.zero_grads(tensors.values())
        return Y.data.copy(), routing, matches, grads

    recorded = {}
    for mode, frozen in (("infer", None), ("train", None), ("train", "train"),
                         ("train", "infer")):
        replay = recorded.get(frozen)
        got = run(layer.forward_rows, mode, replay)
        want = run(functools.partial(ref.scatter_fill_forward_rows, layer), mode, replay)
        assert got[0].tobytes() == want[0].tobytes(), (mode, frozen)
        for name in ("rank", "gate", "is_argmax", "scale"):
            npt.assert_array_equal(getattr(got[1], name), getattr(want[1], name))
        assert got[2] == want[2]
        assert got[3].keys() == want[3].keys()
        for name, grad in want[3].items():
            if grad is None:
                assert got[3][name] is None, name
            else:
                assert got[3][name].tobytes() == grad.tobytes(), (mode, frozen, name)
        if frozen is None:
            recorded[mode] = got[1]
    assert recorded["train"].bern is not None and recorded["infer"].bern is None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make_config", [hn.smoke_train_config, hn.gradcheck_default_config])
def test_model_forward_matches_per_token_reference(make_config, seed):
    cfg = make_config(seed)
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    params = model.parameters()

    def run(forward, **kwargs):
        loss, per_layer, matches = forward(batch, **kwargs)
        ad.backward(loss)
        grads = {name: t.grad.copy() for name, t in params.items() if t.grad is not None}
        adr.zero_grads(params.values())
        return float(loss.data), per_layer, matches, grads

    recorded = None
    for kwargs in ({"mode": "train"}, {"mode": "infer"}):
        got = run(model.forward, **kwargs)
        want = run(lambda b, **kw: ref.model_forward(model, b, **kw), **kwargs)
        assert [list(r) for r in got[1]] == want[1]
        assert got[0] == want[0]
        assert got[3].keys() == want[3].keys()
        for name in want[3]:
            npt.assert_allclose(got[3][name], want[3][name], rtol=0, atol=TOL, err_msg=name)
        if kwargs["mode"] == "train":
            recorded = got[1]
    got = run(model.forward, frozen=recorded)
    want = run(lambda b, **kw: ref.model_forward(model, b, **kw), frozen=recorded)
    assert got[2] == want[2]
    assert got[0] == want[0]
    for name in want[3]:
        npt.assert_allclose(got[3][name], want[3][name], rtol=0, atol=TOL, err_msg=name)


def test_sampled_model_infers_with_the_deterministic_prefix():
    cfg = hn.smoke_train_config()
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    loss, per_layer, _ = hn.ToyTransformer(cfg).forward(batch, mode="infer")
    det = dataclasses.replace(cfg, moe=dataclasses.replace(cfg.moe,
                                                           routing_mode="deterministic"))
    det_loss, det_layers, _ = hn.ToyTransformer(det).forward(batch, mode="infer")
    _, ref_layers, _ = ref.model_forward(hn.ToyTransformer(cfg), batch, mode="infer")
    assert [list(r) for r in per_layer] == [list(r) for r in det_layers] == ref_layers
    assert float(loss.data) == float(det_loss.data)
    for decisions in per_layer:
        for d in decisions:
            gates = [e.gate_prob for e in d.per_expert]
            assert gates == sorted(gates, reverse=True)
            assert all(e.bern is None and e.forward_scale == 1.0 for e in d.per_expert)


def test_train_mode_needs_a_key_and_rows_need_the_model_width():
    layer = make_layer(0, "sampled", 1, 0)
    with pytest.raises(ValueError):
        layer.forward_rows(ad.Tensor(np.ones((2, 5))), "train")
    with pytest.raises(ValueError):
        layer.forward_rows(ad.Tensor(np.ones((2, 5))), "sample")
    with pytest.raises(ad.ShapeError):
        layer.forward_rows(ad.Tensor(np.ones((2, 4))), "infer")
    with pytest.raises(ValueError):
        layer.forward_rows(ad.Tensor(np.ones((2, 5))), frozen=[])


def test_a_gradient_rule_is_known_and_needs_b_draws():
    layer = make_layer(0, "sampled", 1, 0)
    X = ad.Tensor(np.ones((2, 5)))
    recorded = layer.forward_rows(X, "train", key=(0, 1))[1]
    with pytest.raises(ValueError, match="grad_rule must be one of"):
        layer.forward_rows(X, "train", key=(0, 1), grad_rule="straight-through")
    for mode, frozen in (("infer", None), ("train", dataclasses.replace(recorded, bern=None))):
        for rule in ("estimator", "constant"):
            with pytest.raises(ValueError, match="a gradient rule needs B draws"):
                layer.forward_rows(X, mode, key=(0, 1), frozen=frozen, grad_rule=rule)


@pytest.mark.parametrize("mode", ["infer", "train", "frozen"])
def test_zero_token_rows_are_refused_by_the_row_shape_check(mode):
    layer = make_layer(0, "sampled", 1, 1)
    n_slots = layer.config.n_slots
    frozen = None if mode != "frozen" else moe.Routing(
        np.zeros((0, n_slots), dtype=np.int64), np.zeros((0, n_slots)),
        np.zeros((0, n_slots), dtype=bool), None, layer.config.n_routed, 1)
    with pytest.raises(ad.ShapeError, match=r"token rows must have shape \(n, 5\) with n >= 1, "
                                            r"got \(0, 5\)"):
        layer.forward_rows(ad.Tensor(np.ones((0, 5))), "infer" if mode == "frozen" else mode,
                           key=(0, 1), frozen=frozen)
