"""Tape-node budget of the shipped smoke model.

Python overhead per tape node is most of a step's cost, so the number of
``op_node`` calls per training step and per inference forward must not
rise.  The budgets are the counts of the layer with one routing step per
MoE layer on ``smoke_train_config(s)``, s = 0-3: 122 nodes per one-step
``harness.train`` and at most 118 per ``mode="infer"`` forward (a forward
where an expert goes unchosen builds fewer).

A default ``grad_check`` differentiates only its frozen replay: its
finite-difference evaluations run with the parameters' ``requires_grad``
off and put nothing on the tape.  On ``gradcheck_default_config(s)``,
s = 0-3, a campaign makes 74,409 ``op_node`` calls and 1,062 of them (the
live train forward and the replay) require gradients.
"""

import dataclasses

import pytest

from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn

TRAIN_STEP_NODES = 122
INFER_FORWARD_NODES = 118
GRADCHECK_OP_NODES = 74_409
GRADCHECK_TAPE_NODES = 1_062


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


@pytest.mark.parametrize("seed", range(4))
def test_gradcheck_tapes_only_what_it_differentiates(monkeypatch, seed):
    calls, taped = count_ops(
        monkeypatch, lambda: hn.grad_check(hn.gradcheck_default_config(seed)))
    assert 0 < taped <= GRADCHECK_TAPE_NODES
    assert calls <= GRADCHECK_OP_NODES
