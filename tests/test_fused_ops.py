"""The one-node expert FFN and attention block against their composed graphs.

``moe.gated_ffn`` and ``ToyTransformer._attend`` are single tape nodes with
hand-written backwards.  ``moe_reference.composed_gated_ffn`` and
``composed_attend`` build the same functions from engine ops.  A fused op
lists an input once for each consumer it replaces, so ``backward`` adds
the input's terms one at a time in the composed graph's order: values and
gradients must match bit for bit, not within a tolerance.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import autodiff_reference as adr
import moe_reference as ref
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp


@pytest.fixture
def composed(monkeypatch):
    """Switch the model to the composed graphs until the test ends."""

    def use():
        monkeypatch.setattr(moe, "gated_ffn", ref.composed_gated_ffn)
        monkeypatch.setattr(moe.DynamicCapacityMoE, "_forward_rows", ref.composed_rows)
        monkeypatch.setattr(hn.ToyTransformer, "_attend", ref.composed_attend)

    return use


def one_token_config(seed):
    return dataclasses.replace(hn.smoke_train_config(seed), segments=(rp.TextSegment(1),))


def no_shared_config(seed):
    cfg = hn.smoke_train_config(seed)
    return dataclasses.replace(cfg, moe=dataclasses.replace(cfg.moe, n_shared=0))


CONFIGS = {
    "smoke": hn.smoke_train_config,
    "gradcheck": hn.gradcheck_default_config,
    "trainval": ref.trainval_config,
    "one_token": one_token_config,
    "no_shared": no_shared_config,
}
MODES = ("train", "infer", "replay_b", "replay_unit")


def setup(config, seed):
    cfg = CONFIGS[config](seed)
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    return model, batch


def forward_kwargs(model, batch, mode):
    if mode in ("train", "infer"):
        return {"mode": mode}
    _, recorded, _ = model.forward(batch, mode="train")
    if mode == "replay_unit":
        recorded = [dataclasses.replace(r, bern=None) for r in recorded]
    return {"frozen": recorded}


def bits(arrays):
    return [None if a is None else (a.shape, np.asarray(a).tobytes()) for a in arrays]


def model_run(config, seed, mode):
    """Loss, routing arrays and every parameter gradient of one forward and
    backward of a fresh model."""
    model, batch = setup(config, seed)
    loss, per_layer, matches = model.forward(batch, **forward_kwargs(model, batch, mode))
    ad.backward(loss)
    routing = [a for r in per_layer for a in (r.rank, r.gate, r.is_argmax, r.bern, r.scale)]
    return (bits([loss.data]), bits(routing), matches,
            {name: bits([t.grad]) for name, t in model.parameters().items()})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("config", CONFIGS)
def test_model_matches_the_composed_graph_bit_for_bit(composed, config, seed, mode):
    fused = model_run(config, seed, mode)
    composed()
    assert model_run(config, seed, mode) == fused


def stage_runs(config, seed, mode):
    """Value and every gradient, the stage input's included, of each stage
    of the forward, run on that stage's recorded input as a leaf."""
    model, batch = setup(config, seed)
    kwargs = forward_kwargs(model, batch, mode)
    stage_inputs = []
    model.forward(batch, **kwargs, stage_inputs=stage_inputs)
    frozen = kwargs.get("frozen")
    rng = np.random.default_rng([seed, 77])
    out = []
    for stage, (x, _) in enumerate(stage_inputs[:-1]):
        li = stage // 2
        X = ad.Tensor(x, requires_grad=True)
        params = model.stage_parameters()[stage]
        if stage % 2 == 0:
            Z = model._attend(X, batch.position_ids, li)
        else:
            Y, _, _ = model.blocks[li].forward_rows(
                X, kwargs.get("mode", "infer"), key=(model.cfg.seed, 5077 + li),
                frozen=None if frozen is None else frozen[li])
            Z = ad.add(X, Y)
        ad.backward(ad.sum(ad.mul(Z, ad.Tensor(rng.normal(size=Z.data.shape)))))
        out.append((bits([Z.data, X.grad]), {n: bits([t.grad]) for n, t in params.items()}))
        adr.zero_grads(params.values())
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("config", CONFIGS)
def test_every_stage_input_gradient_matches_the_composed_graph(composed, config, seed, mode):
    fused = stage_runs(config, seed, mode)
    composed()
    assert stage_runs(config, seed, mode) == fused


def ffn_run(op, x, params, cot):
    leaves = [ad.Tensor(a, requires_grad=True) for a in (x, *params)]
    out = op(leaves[0], moe.ExpertParams(*leaves[1:]))
    ad.backward(ad.sum(ad.mul(out, ad.Tensor(cot))))
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("rows", [1, 5])
def test_saturated_gate_matches_the_composed_ffn_without_warnings(rows):
    """Gate pre-activations below -710 overflow ``exp``: silu and its slope
    saturate to zero, with no NaN and no warning, so a saturated gate unit
    passes no gradient to its ``w_gate`` and ``w_up`` rows."""
    rng = np.random.default_rng(rows)
    d, hidden = 4, 3
    x = np.abs(rng.normal(size=(rows, d))) + 0.5
    w_gate = rng.normal(size=(hidden, d))
    w_gate[0] = -800.0  # unit 0's pre-activation is below -1600 on every row
    params = (w_gate, rng.normal(size=(hidden, d)), rng.normal(size=(d, hidden)))
    cot = rng.normal(size=(rows, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = ffn_run(moe.gated_ffn, x, params, cot)
        oracle = ffn_run(ref.composed_gated_ffn, x, params, cot)
    assert bits([fused[0], *fused[1]]) == bits([oracle[0], *oracle[1]])
    assert all(np.isfinite(a).all() for a in (fused[0], *fused[1]))
    _, g_gate, g_up, _ = fused[1]
    assert not g_gate[0].any() and not g_up[0].any()
    assert g_gate[1:].any() and g_up[1:].any()


def test_fused_ops_are_one_tape_node_each():
    model, batch = setup("smoke", 0)
    X = ad.Tensor(batch.tokens, requires_grad=True)
    out = model._attend(X, batch.position_ids, 0)
    assert out.op_kind == "attention" and out._parents[:4] == (X,) * 4
    ffn = moe.gated_ffn(out, model.blocks[0].shared[0])
    assert ffn.op_kind == "gated_ffn" and ffn._parents[:2] == (out, out)
