"""Probe-batched finite differences.

``grad_check`` lists every coordinate of the model in report order (stage
by stage, parameter by parameter, C order) and evaluates the +/-eps probes
of each chunk of up to 64 of them in a single frozen forward, resumed at
the stage of the chunk's first coordinate; a chunk may span parameters and
stages.  Each parameter a chunk of K coordinates touches holds a
``[2K, *shape]`` stack of copies, probe i moving the chunk's coordinate i
by +eps and probe K + i moving it by -eps.  Each probe's loss and match flag must
carry the bits of the unbatched forward with that one coordinate moved,
resumed at that coordinate's own stage; the parameters must come back
untouched, no forward may hold more than 128 probes, and a probe axis must
never reach the tape.

The probes resume the replay of a train forward's routing, which must make
the train forward's choices and return its loss to the bit.  Both checks
also run as ``hypothesis`` properties over random small configs.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import autodiff_reference as adr
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp

from gradcheck_reference import grad_check_blocks


def config(seed, mode):
    cfg = hn.gradcheck_default_config(seed)
    return dataclasses.replace(cfg, moe=dataclasses.replace(cfg.moe, routing_mode=mode))


# (config, eps); seed 2 deterministic at eps 1e-2 flips live selections,
# and seeds 5 and 28 leave a routed expert of one layer unchosen, so its
# weights never reach the forward and the loss comes back unbatched.
CASES = {f"{mode}-seed{s}": (config(s, mode), 1e-6)
         for s in range(4) for mode in ("sampled", "deterministic")}
CASES.update({"deterministic-seed2-eps1e-2": (config(2, "deterministic"), 1e-2),
              "deterministic-seed5": (config(5, "deterministic"), 1e-6),
              "sampled-seed28": (config(28, "sampled"), 1e-6)})


def replay(cfg, requires_grad=False):
    """A model, its batch, the frozen routing of a train forward and the
    stage inputs its replay records."""
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    _, frozen, _ = model.forward(batch, mode="train")
    inputs = []
    model.forward(batch, frozen=frozen, stage_inputs=inputs)
    for t in model.parameters().values():
        t.requires_grad = requires_grad
    return model, batch, frozen, inputs


CHUNK = 64


def model_chunks(model):
    """The model's coordinates in report order (stage by stage, parameter by
    parameter, C order), cut into chunks of 64: each chunk a list of
    (stage, name, flat index)."""
    coords = [(stage, name, i) for stage, params in enumerate(model.stage_parameters())
              for name, t in params.items() for i in range(t.data.size)]
    return [coords[lo:lo + CHUNK] for lo in range(0, len(coords), CHUNK)]


def spanned(chunk):
    """The parameters a chunk touches, in order."""
    return list(dict.fromkeys(name for _, name, _ in chunk))


def chunk_probes(params, chunk, eps):
    """The probe stack of each parameter a chunk touches, built one
    coordinate at a time: probe i moves the chunk's coordinate i by +eps,
    probe K + i moves it by -eps."""
    k = len(chunk)
    stacks = {name: np.repeat(params[name].data[None], 2 * k, axis=0)
              for name in spanned(chunk)}
    for i, (_, name, flat) in enumerate(chunk):
        weights = params[name].data
        idx = np.unravel_index(flat, weights.shape)
        orig = weights[idx]
        stacks[name][(i, *idx)] = orig + eps
        stacks[name][(k + i, *idx)] = orig - eps
    return stacks


def check_chunks(model, batch, frozen, inputs, eps, chunks):
    """Assert that every probe of every chunk equals its own unbatched
    forward: one coordinate moved, resumed at that coordinate's own stage
    (the chunk's forward resumes at the stage of its first coordinate).
    Return how many probes flipped a live selection, how many chunk
    forwards came back unbatched, and how many chunks span two parameters
    and two stages."""
    params = model.parameters()

    def resumed(stage):
        loss, _, ok = model.forward(batch, frozen=frozen, stage_inputs=inputs[:stage + 1])
        return loss.data, ok

    counts = dict(flipped=0, unread=0, span_params=0, span_stages=0)
    for chunk in chunks:
        k = len(chunk)
        stacks = chunk_probes(params, chunk, eps)
        weights = {name: params[name].data for name in stacks}
        for name, stack in stacks.items():
            params[name].data = stack
        losses, oks = resumed(chunk[0][0])
        for name, array in weights.items():
            params[name].data = array
        counts["unread"] += losses.ndim == 0
        counts["span_params"] += len(stacks) > 1
        counts["span_stages"] += chunk[0][0] != chunk[-1][0]
        losses = np.broadcast_to(losses, (2 * k,))
        oks = np.broadcast_to(oks, (2 * k,))
        for i, (stage, name, flat) in enumerate(chunk):
            t, orig_array = params[name], weights[name]
            idx = np.unravel_index(flat, orig_array.shape)
            orig = orig_array[idx]
            for p, moved in ((i, orig + eps), (k + i, orig - eps)):
                t.data = orig_array.copy()
                t.data[idx] = moved
                loss, ok = resumed(stage)
                assert type(ok) is bool
                assert (losses[p].tobytes(), bool(oks[p])) == (loss.tobytes(), ok)
                counts["flipped"] += not ok
            t.data = orig_array
    return counts


# Random small configs: every knob the layer routes by, and segments of all
# four modalities in any mix (an audio segment pads to 20 tokens).
SEGMENTS = st.one_of(
    st.builds(rp.TextSegment, st.integers(1, 3)),
    st.builds(rp.ImageSegment, st.integers(1, 2), st.integers(1, 3)),
    st.builds(rp.AudioSegment, st.floats(0.5, 3.0)),
    st.builds(rp.VideoSegment, st.floats(1.0, 4.0), st.just(0.5), st.integers(1, 2),
              st.integers(1, 2), f_l=st.just(1), f_u=st.integers(1, 2)))


@st.composite
def toy_configs(draw):
    seed = draw(st.integers(0, 2**16))
    layer = moe.MoEConfig(
        d_model=draw(st.integers(2, 4)), n_routed=draw(st.integers(1, 4)),
        n_null=draw(st.integers(0, 2)), n_shared=draw(st.integers(0, 2)),
        expert_hidden=draw(st.integers(1, 3)), shared_hidden=draw(st.integers(1, 2)),
        top_p=draw(st.floats(0.0, 1.0, exclude_min=True)),
        routing_mode=draw(st.sampled_from(["sampled", "deterministic"])), seed=seed)
    return hn.ToyModelConfig(
        moe=layer, segments=draw(st.lists(SEGMENTS, min_size=1, max_size=3)),
        layers=draw(st.integers(1, 3)), head_dim=draw(st.sampled_from([2, 4])),
        learning_rate=0.0, steps=0, seed=seed, n_classes=draw(st.integers(2, 3)),
        noise=draw(st.sampled_from([0.0, 0.05])))


RANDOM_CONFIGS = settings(max_examples=100, derandomize=True, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
# Wall-clock budget of each random-config property, all its examples together.
BUDGET_S = 10.0


def within_budget(prop):
    t0 = time.monotonic()
    prop()
    assert time.monotonic() - t0 < BUDGET_S


def assert_replay_returns_the_train_loss(cfg):
    """A replay of a train forward's routing makes the same choices and
    computes every routed term as training did, so it returns the train
    loss to the bit."""
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    loss, frozen, _ = model.forward(batch, mode="train")
    replayed, _, ok = model.forward(batch, frozen=frozen)
    assert ok is True
    assert replayed.data.tobytes() == loss.data.tobytes()


@pytest.mark.parametrize("mode", ["sampled", "deterministic"])
@pytest.mark.parametrize("make", [hn.gradcheck_default_config, hn.smoke_train_config])
def test_replaying_a_train_forward_returns_its_loss_bit_for_bit(make, mode):
    for seed in range(20):
        cfg = make(seed)
        assert_replay_returns_the_train_loss(
            dataclasses.replace(cfg, moe=dataclasses.replace(cfg.moe, routing_mode=mode)))


@given(cfg=toy_configs())
@RANDOM_CONFIGS
def replays_return_the_train_loss(cfg):
    assert_replay_returns_the_train_loss(cfg)


def test_replaying_a_train_forward_returns_its_loss_on_random_configs():
    within_budget(replays_return_the_train_loss)


@given(cfg=toy_configs(), eps=st.sampled_from([1e-6, 1e-2]), data=st.data())
@RANDOM_CONFIGS
def probes_equal_their_own_resumed_forwards(cfg, eps, data):
    """Every probe of one drawn chunk."""
    model, batch, frozen, inputs = replay(cfg)
    chunks = model_chunks(model)
    chunk = chunks[data.draw(st.integers(0, len(chunks) - 1), label="chunk")]
    check_chunks(model, batch, frozen, inputs, eps, [chunk])


def test_each_probe_equals_its_own_resumed_forward_on_random_configs():
    within_budget(probes_equal_their_own_resumed_forwards)


@pytest.mark.parametrize("case", CASES)
def test_each_probe_equals_its_own_resumed_forward(case):
    cfg, eps = CASES[case]
    model, batch, frozen, inputs = replay(cfg)
    counts = check_chunks(model, batch, frozen, inputs, eps, model_chunks(model))
    assert (counts["flipped"] > 0) == (case == "deterministic-seed2-eps1e-2")
    # seed 28's unchosen expert holds a whole chunk; seed 5's shares its
    # chunks with weights the forward reads
    assert (counts["unread"] > 0) == (case == "sampled-seed28")
    assert counts["span_params"] > 0 and counts["span_stages"] > 0


def wide_config(seed=0, mode="sampled"):
    """One layer whose routed experts hold 72 coordinates per weight."""
    cfg = config(seed, mode)
    return dataclasses.replace(cfg, layers=1,
                               moe=dataclasses.replace(cfg.moe, expert_hidden=12))


def test_a_chunk_wholly_inside_an_unread_weight_keeps_the_unbatched_loss():
    # deterministic seed 5 leaves routed1 unchosen: coordinates 378-593
    model, batch, frozen, inputs = replay(wide_config(5, "deterministic"))
    assert not (frozen[0].rank[:, 1] >= 0).any()
    chunks = model_chunks(model)
    inside = [c for c in chunks if all(".routed1." in name for _, name, _ in c)]
    assert [c[0][2] for c in inside] == [6, 70, 62]  # w_gate, w_up, w_down
    # chunk 5 starts in routed0, which the forward reads, so it stays batched
    counts = check_chunks(model, batch, frozen, inputs, 1e-6, inside + chunks[5:6])
    assert counts["unread"] == 3 and counts["span_params"] == 3


def test_probes_of_several_chunks_equal_their_own_resumed_forwards():
    model, batch, frozen, inputs = replay(hn.smoke_train_config(0))
    chunks = [c for c in model_chunks(model)
              if {"cls.w", "layer1.moe.router"} & set(spanned(c))]
    assert [(spanned(c), len(c)) for c in chunks] == [
        (["layer1.attn.w_o", "layer1.moe.router"], 64),
        (["layer1.moe.router"], 64),
        (["layer1.moe.router"], 64),
        (["cls.w"], 64),
        (["cls.w"], 64)]
    counts = check_chunks(model, batch, frozen, inputs, 1e-6, chunks)
    assert counts == dict(flipped=0, unread=0, span_params=1, span_stages=1)


def campaign_forwards(monkeypatch, cfg):
    """For each ``ToyTransformer.forward`` call of ``grad_check(cfg)``: the
    (name, probes) of each probe stack it ran with, and the stage it
    started at."""
    shapes = {name: t.data.shape for name, t in hn.ToyTransformer(cfg).parameters().items()}
    real, forwards = hn.ToyTransformer.forward, []

    def recording(self, *args, stage_inputs=None, **kwargs):
        swapped = []
        for name, t in self.parameters().items():
            if t.data.shape != shapes[name]:
                assert t.data.shape[1:] == shapes[name]
                swapped.append((name, t.data.shape[0]))
        forwards.append((swapped, len(stage_inputs) - 1 if stage_inputs else 0))
        return real(self, *args, stage_inputs=stage_inputs, **kwargs)

    monkeypatch.setattr(hn.ToyTransformer, "forward", recording)
    hn.grad_check(cfg)
    return forwards


def chunk_forwards(cfg):
    """What each chunk forward of ``grad_check(cfg)`` must run with: every
    parameter its coordinates span as a ``[2K, *shape]`` stack, resumed at
    the stage of its first coordinate."""
    return [([(name, 2 * len(chunk)) for name in spanned(chunk)], chunk[0][0])
            for chunk in model_chunks(hn.ToyTransformer(cfg))]


@pytest.mark.parametrize("seed", range(4))
def test_a_default_campaign_runs_one_forward_per_64_coordinates(monkeypatch, seed):
    cfg = hn.gradcheck_default_config(seed)
    forwards = campaign_forwards(monkeypatch, cfg)
    assert len(forwards) == 13  # the live forward, the replay and 11 chunks
    assert forwards[:2] == [([], 0), ([], 0)]
    assert forwards[2:] == chunk_forwards(cfg)
    assert [probes for swapped, _ in forwards[2:] for _, probes in swapped[:1]] == \
        [128] * 10 + [124]
    assert forwards[2] == ([("layer0.attn.w_q", 128), ("layer0.attn.w_k", 128)], 0)
    # coordinates 128-191: the end of w_o, layer 0's router, routed0.w_gate
    # and the start of routed0.w_up, resumed at layer 0's attention
    assert forwards[4] == ([("layer0.attn.w_o", 128), ("layer0.moe.router", 128),
                            ("layer0.moe.routed0.w_gate", 128),
                            ("layer0.moe.routed0.w_up", 128)], 0)
    assert max(probes for swapped, _ in forwards for _, probes in swapped) <= 128


def test_a_campaign_splits_a_wide_parameter_into_chunks(monkeypatch):
    cfg = wide_config()
    forwards = campaign_forwards(monkeypatch, cfg)
    want = chunk_forwards(cfg)
    assert [[name for name, _ in swapped] for swapped, _ in want[3:7]] == [
        ["layer0.moe.routed0.w_gate", "layer0.moe.routed0.w_up"],
        ["layer0.moe.routed0.w_up", "layer0.moe.routed0.w_down"],
        ["layer0.moe.routed0.w_down", "layer0.moe.routed1.w_gate"],
        ["layer0.moe.routed1.w_gate"]]
    # coordinates 576-639 end the MoE stage and start the head's
    assert want[9] == ([(f"layer0.moe.{name}", 128) for name in (
        "routed1.w_down", "shared0.w_gate", "shared0.w_up", "shared0.w_down")]
        + [("cls.w", 128)], 1)
    assert want[10] == ([("cls.w", 16)], 2)
    assert (len(forwards), forwards[2:]) == (2 + 11, want)
    assert max(probes for swapped, _ in forwards for _, probes in swapped) <= 128


def test_a_campaign_with_an_unchosen_expert_equals_the_full_forward_campaign():
    cfg = config(5, "deterministic")
    got = hn.grad_check(cfg).blocks
    assert [(b.name, repr(b.max_rel_err), b.n_checked, b.n_skipped) for b in got] == \
        [(b.name, repr(b.max_rel_err), b.n_checked, b.n_skipped)
         for b in grad_check_blocks(cfg)]


@pytest.fixture
def built_models(monkeypatch):
    """Every ToyTransformer ``grad_check`` builds, with each parameter's
    array and a copy of its bits taken at construction."""
    built = []

    class Recording(hn.ToyTransformer):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.snapshot = {name: (t.data, t.data.copy())
                             for name, t in self.parameters().items()}
            built.append(self)

    monkeypatch.setattr(hn, "ToyTransformer", Recording)
    return built


def assert_restored(model):
    for name, t in model.parameters().items():
        array, bits = model.snapshot[name]
        assert t.data is array, name
        assert t.data.tobytes() == bits.tobytes(), name


def test_grad_check_puts_every_parameter_array_back(built_models):
    hn.grad_check(config(2, "deterministic"), eps=1e-2)
    (model,) = built_models
    assert_restored(model)


def test_grad_check_puts_the_parameter_back_when_a_probe_forward_raises(
        built_models, monkeypatch):
    real = hn.cross_entropy

    def failing_on_probes(logits, labels):
        if logits.data.ndim > 2:
            raise ad.NonFiniteError("cross_entropy: loss is [nan]")
        return real(logits, labels)

    monkeypatch.setattr(hn, "cross_entropy", failing_on_probes)
    with pytest.raises(ad.NonFiniteError):
        hn.grad_check(config(0, "sampled"))
    (model,) = built_models
    assert_restored(model)


@pytest.mark.parametrize("name", ["layer0.attn.w_q", "layer0.moe.router",
                                  "layer0.moe.routed0.w_up", "layer1.moe.shared0.w_down",
                                  "cls.w"])
def test_a_probe_forward_with_a_differentiated_parameter_raises(name):
    model, batch, frozen, inputs = replay(config(0, "sampled"), requires_grad=True)
    stage = next(s for s, params in enumerate(model.stage_parameters()) if name in params)
    t = model.parameters()[name]
    t.data = np.repeat(t.data[None], 2, axis=0)
    for start in (0, stage):
        with pytest.raises(ad.ShapeError, match="probe axes"):
            model.forward(batch, frozen=frozen, stage_inputs=inputs[:start + 1])


def probe_ops():
    """(op, operand arrays, operand index that carries a probe axis)."""
    rng = np.random.default_rng(7)

    def a(*shape):
        return rng.normal(size=shape)

    idx, cells = np.array([2, 0]), (np.array([2, 0, 1]), np.array([1, 0, 1]))
    tok, rank = np.array([1, 0, 1]), np.array([0, 0, 1])
    ffn = lambda x, wg, wu, wd: moe.gated_ffn(x, moe.ExpertParams(wg, wu, wd))  # noqa: E731
    return {
        "add": (ad.add, [a(3, 2), a(3, 2)]),
        "sub": (ad.sub, [a(3, 2), a(3, 2)]),
        "mul": (ad.mul, [a(3, 2), a(3, 2)]),
        "matmul": (ad.matmul, [a(3, 4), a(4, 2)]),
        "matvec_rows": (ad.matvec_rows, [a(4, 2), a(3, 2)]),
        "scale_rows": (adr.scale_rows, [a(3, 2), a(3)]),
        "gather_rows": (lambda t: adr.gather_distinct_rows(t, idx), [a(3, 2)]),
        "gather_rows.cells": (lambda t: adr.gather_distinct_rows(t, cells), [a(3, 2)]),
        "fold_rows": (lambda r: adr.fold_rows(3, tok, rank, r), [a(3, 2)]),
        "concat_rows": (lambda p, q: adr.concat_rows([p, q]), [a(2, 2), a(1, 2)]),
        "gated_ffn": (ffn, [a(3, 2), a(4, 2), a(4, 2), a(2, 4)]),
    }


@pytest.mark.parametrize("op", probe_ops())
def test_engine_ops_broadcast_a_probe_axis_and_refuse_to_tape_it(op):
    fn, arrays = probe_ops()[op]
    for k in range(len(arrays)):
        stack = np.stack([arrays[k] * (1.0 + 0.25 * p) for p in range(3)])
        operands = [ad.Tensor(stack if j == k else x) for j, x in enumerate(arrays)]
        got = fn(*operands).data
        assert got.shape[0] == 3
        for p in range(3):
            single = fn(*[ad.Tensor(stack[p] if j == k else x)
                          for j, x in enumerate(arrays)]).data
            assert got[p].tobytes() == single.tobytes()
        for taped in range(len(arrays)):
            operands = [ad.Tensor(stack if j == k else x, requires_grad=j == taped)
                        for j, x in enumerate(arrays)]
            with pytest.raises(ad.ShapeError, match="probe axes"):
                fn(*operands)
