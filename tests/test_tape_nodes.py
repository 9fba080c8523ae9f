"""Tape-node budget of the shipped smoke model.

Python overhead per tape node is most of a step's cost, so the number of
``op_node`` calls per training step and per inference forward must not
rise.  The budgets are the counts of the layer with one routing step per
MoE layer, whose experts' rows land in the pair buffer through one op, and
whose expert FFN calls, attention blocks and estimator are one tape node
each, on ``smoke_train_config(s)``, s = 0-3: 44 nodes per one-step
``harness.train`` and at most 42 per ``mode="infer"`` forward (a forward
where an expert goes unchosen builds fewer).  A 128-token batch in all four modalities (the
benchmark's trainval shape) takes 86 nodes for a one-step ``train`` plus an
inference forward: the count follows the model, not the batch size.

A default ``grad_check`` differentiates only its frozen replay: its
finite-difference evaluations run with the parameters' ``requires_grad``
off and put nothing on the tape.  They run one probe-batched forward per
chunk of up to 64 consecutive coordinates of the model, across parameter
and stage boundaries (11 chunks), not one per parameter (29) nor two per
coordinate (702 coordinates).  On ``gradcheck_default_config(s)``,
s = 0-3, a campaign makes 335 ``op_node`` calls and 64 of them (the live
train forward and the replay) require gradients.

The row ops take distinct indices, so none of these calls runs
``ufunc.at``: ``np.add.at`` takes a slow unbuffered loop per index, and a
token's terms are added rank by rank instead.

``ad.backward`` frees each node's saved arrays and gradient as soon as its
backward has run, so a step's memory peak is below the tape it builds.
After a warm-up step, the ``tracemalloc`` peak of a one-step
``harness.train`` above its start is at most 5.0 MiB on
``trainval_config(s)`` (4.32-4.62 MiB, s = 0-3) and 0.70 MiB on
``smoke_train_config(s)`` (0.53-0.55 MiB).  A backward that kept its whole
tape until it returned peaked at 6.30-6.68 and 0.93-0.96 MiB.
"""

import cProfile
import dataclasses
import pstats
import tracemalloc

import pytest

import moe_reference as ref
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn

TRAIN_STEP_NODES = 44
INFER_FORWARD_NODES = 42
TRAINVAL_OP_NODES = 86
GRADCHECK_OP_NODES = 335
GRADCHECK_TAPE_NODES = 64
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
    assert {"_gather_rows", "_fold_rows"} <= called  # the profile reached the row ops
    assert "<method 'at' of 'numpy.ufunc' objects>" not in called
