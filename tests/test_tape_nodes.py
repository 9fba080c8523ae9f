"""Tape-node budget of the shipped smoke model.

Python overhead per tape node is most of a step's cost, so the number of
``op_node`` calls per training step and per inference forward must not
rise.  The budgets are the counts of the model whose MoE layers are one
fused tape node each (router, dispatch, expert FFNs, gates, estimator and
fold), as are its attention blocks, on ``smoke_train_config(s)``,
s = 0-3: 8 nodes per one-step ``harness.train`` and 8 per
``mode="infer"`` forward.  A 128-token batch in all four modalities (the
benchmark's trainval shape) takes 16 nodes for a one-step ``train`` plus
an inference forward: the count follows the model, not the batch size.

A default ``grad_check`` differentiates only its frozen replay: its live
train forward, which only records the routing, and its
finite-difference evaluations run with the parameters' ``requires_grad``
off and put nothing on the tape.  The evaluations run one probe-batched
forward per chunk of up to 64 consecutive coordinates of the model,
across parameter and stage boundaries (11 chunks), not one per parameter
(29) nor two per coordinate (702 coordinates).  On
``gradcheck_default_config(s)``, s = 0-3, a campaign makes 83 ``op_node``
calls and 8 of them (the replay) require gradients.

The MoE layer takes distinct indices from its routing record, so none of
these calls runs ``ufunc.at``: ``np.add.at`` takes a slow unbuffered loop
per index, and a token's terms are added rank by rank instead.

``ad.backward`` frees each node's saved arrays and gradient as soon as its
backward has run, so a step's memory peak is below the tape it builds.
After a warm-up step, the ``tracemalloc`` peak of a one-step
``harness.train`` above its start is at most 5.0 MiB on
``trainval_config(s)`` and 0.70 MiB on ``smoke_train_config(s)``.
"""

import cProfile
import dataclasses
import pstats
import tracemalloc

import pytest

import moe_reference as ref
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn

TRAIN_STEP_NODES = 8
INFER_FORWARD_NODES = 8
TRAINVAL_OP_NODES = 16
GRADCHECK_OP_NODES = 83
GRADCHECK_TAPE_NODES = 8
TRAINVAL_STEP_MIB = 5.0
SMOKE_STEP_MIB = 0.70


def count_ops(monkeypatch, call) -> tuple[int, int]:
    """``op_node`` calls made by ``call()``, and how many of their results
    require gradients: the engine's own ops and the ops other modules
    define through ``ad.op_node`` alike."""
    real, calls, taped = ad.op_node, 0, 0

    def counting(*args, **kwargs):
        nonlocal calls, taped
        out = real(*args, **kwargs)
        calls += 1
        taped += out.requires_grad
        return out

    with monkeypatch.context() as patch:
        patch.setattr(ad, "op_node", counting)
        call()
    return calls, taped


def count_nodes(monkeypatch, call) -> int:
    return count_ops(monkeypatch, call)[0]


@pytest.mark.parametrize("seed", range(4))
def test_smoke_step_and_forward_stay_within_the_node_budget(monkeypatch, seed):
    cfg = dataclasses.replace(hn.smoke_train_config(seed), steps=1)
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    train_nodes = count_nodes(monkeypatch, lambda: hn.train(cfg, model))
    infer_nodes = count_nodes(monkeypatch, lambda: model.forward(batch, mode="infer"))
    assert 0 < train_nodes <= TRAIN_STEP_NODES
    assert 0 < infer_nodes <= INFER_FORWARD_NODES


def step_peak_mib(cfg) -> float:
    """``tracemalloc`` peak of a one-step ``harness.train`` above its start,
    after a warm-up step on the same model; tracing is left as it was."""
    model = hn.ToyTransformer(cfg)
    hn.train(cfg, model)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        hn.train(cfg, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return (peak - start) / 2**20


@pytest.mark.parametrize("seed", range(4))
def test_one_step_train_stays_within_the_memory_budget(seed):
    assert 0 < step_peak_mib(ref.trainval_config(seed)) <= TRAINVAL_STEP_MIB
    smoke = dataclasses.replace(hn.smoke_train_config(seed), steps=1)
    assert 0 < step_peak_mib(smoke) <= SMOKE_STEP_MIB


@pytest.mark.parametrize("seed", range(4))
def test_gradcheck_tapes_only_what_it_differentiates(monkeypatch, seed):
    calls, taped = count_ops(
        monkeypatch, lambda: hn.grad_check(hn.gradcheck_default_config(seed)))
    assert 0 < taped <= GRADCHECK_TAPE_NODES
    assert calls <= GRADCHECK_OP_NODES


@pytest.mark.parametrize("seed", range(4))
def test_128_token_step_and_forward_stay_within_the_node_budget(monkeypatch, seed):
    cfg = ref.trainval_config(seed)
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    assert len(batch.tokens) == 128

    def op():
        hn.train(cfg, model)
        model.forward(batch, mode="infer")

    assert 0 < count_nodes(monkeypatch, op) <= TRAINVAL_OP_NODES


def test_no_step_forward_or_campaign_calls_ufunc_at():
    smoke = dataclasses.replace(hn.smoke_train_config(0), steps=1)
    trainval = ref.trainval_config(0)
    model = hn.ToyTransformer(trainval)
    batch = hn.generate_batch(trainval.segments, trainval.seed, trainval.d_model,
                              trainval.n_classes, trainval.noise, trainval.theta)
    profile = cProfile.Profile()
    profile.runcall(hn.train, smoke)
    profile.runcall(model.forward, batch, mode="infer")
    profile.runcall(hn.grad_check, hn.gradcheck_default_config(0))
    called = {name for _, _, name in pstats.Stats(profile).stats}
    assert "_layer" in called  # the profile reached the fused MoE layer
    assert "<method 'at' of 'numpy.ufunc' objects>" not in called
