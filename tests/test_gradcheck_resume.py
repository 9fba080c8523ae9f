"""``grad_check`` resumes each finite-difference forward at the stage of the
first coordinate it perturbs; it must report exactly what the full-forward
campaign of ``tests/gradcheck_reference.py`` reports."""

import dataclasses

import numpy as np
import pytest

from dyncapmoe import harness as hn

from gradcheck_reference import grad_check_blocks


def config(seed, mode="sampled", layers=2):
    cfg = hn.gradcheck_default_config(seed)
    return dataclasses.replace(cfg, layers=layers,
                               moe=dataclasses.replace(cfg.moe, routing_mode=mode))


def as_rows(blocks):
    return [(b.name, repr(b.max_rel_err), b.n_checked, b.n_skipped) for b in blocks]


def skipped_layers(blocks):
    return {int(b.name[len("layer"):].split(".")[0])
            for b in blocks if b.n_skipped and b.name.startswith("layer")}


# (config, eps, layers that must hold a skipped coordinate)
CASES = {
    "sampled-seed0": (config(0), 1e-6, set()),
    "sampled-seed1": (config(1), 1e-6, set()),
    "sampled-seed3-eps1e-2": (config(3), 1e-2, set()),
    "deterministic-seed0": (config(0, "deterministic"), 1e-6, set()),
    "sampled-seed4-1layer": (config(4, layers=1), 1e-6, set()),
    "deterministic-seed2-eps1e-2": (config(2, "deterministic"), 1e-2, {0}),
    "deterministic-seed9-eps1e-2": (config(9, "deterministic"), 1e-2, {0}),
    "deterministic-seed5-3layers-eps1e-2": (config(5, "deterministic", 3), 1e-2, {2}),
}


@pytest.mark.parametrize("case", CASES)
def test_resumed_campaign_equals_full_forward_campaign(case):
    cfg, eps, skips_in = CASES[case]
    got = hn.grad_check(cfg, eps=eps).blocks
    want = grad_check_blocks(cfg, eps)
    assert as_rows(got) == as_rows(want)
    assert skipped_layers(want) == skips_in  # the case covers what it names


def test_parameters_flatten_the_stages_in_order():
    model = hn.ToyTransformer(config(0, layers=3))
    stages = model.stage_parameters()
    assert len(stages) == 2 * 3 + 1
    flat = [(name, t) for stage in stages for name, t in stage.items()]
    assert [(name, id(t)) for name, t in flat] == \
        [(name, id(t)) for name, t in model.parameters().items()]
    assert list(stages[0]) == [f"layer0.attn.{w}" for w in ("w_q", "w_k", "w_v", "w_o")]
    assert all(name.startswith("layer1.moe.") for name in stages[3])
    assert list(stages[-1]) == ["cls.w"]


def test_resumed_forward_carries_the_prefix_matches():
    # Every recorded argmax flag of layer 0 is wrong, so the replay flags a
    # mismatch in stage 1; a pass resumed at any later stage must still
    # return it, along with the full pass's loss bits.
    cfg = config(0)
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    _, frozen, _ = model.forward(batch, mode="train")
    frozen[0] = dataclasses.replace(frozen[0], is_argmax=~frozen[0].is_argmax)
    inputs = []
    loss, per_layer, matches = model.forward(batch, frozen=frozen, stage_inputs=inputs)
    assert not matches and len(inputs) == 2 * cfg.layers + 1
    assert [m for _, m in inputs] == [True, True, False, False, False]
    for stage in range(len(inputs)):
        got, got_layers, got_matches = model.forward(
            batch, frozen=frozen, stage_inputs=inputs[:stage + 1])
        assert got.data.tobytes() == loss.data.tobytes()
        assert got_matches is matches
        assert got_layers == per_layer[stage // 2:]


def test_resumed_forward_appends_the_later_stage_inputs():
    cfg = config(1, "deterministic")
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    inputs = []
    model.forward(batch, mode="infer", stage_inputs=inputs)
    assert np.array_equal(inputs[0][0], batch.tokens)
    resumed = inputs[:2]
    model.forward(batch, mode="infer", stage_inputs=resumed)
    assert len(resumed) == len(inputs)
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(resumed, inputs))
