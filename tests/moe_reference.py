"""Per-token reference for the token-batched MoE layer.

This is the layer as it ran one token at a time: each token routes through
``route``, selects, runs its active experts, wraps each routed term in the
estimator and sums its terms left to right, and the harness assembles the
batch row by row.  ``DynamicCapacityMoE.forward_rows`` and
``ToyTransformer.forward`` are tested against it.  Inference takes the
deterministic prefix in every routing mode, as the layer does.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from dyncapmoe import autodiff as ad
from dyncapmoe import estimator as est
from dyncapmoe import harness as hn
from dyncapmoe import moe


def prefix_decision(p: np.ndarray, top_p: float, argmax_slot: int,
                    n_routed: int) -> moe.RoutingDecision:
    """Deterministic Top-P for one probability vector, one token at a time."""
    order = np.argsort(-p, kind="stable")
    csum = np.cumsum(p[order])
    reach = np.nonzero(csum >= top_p)[0]
    k = int(reach[0]) + 1 if reach.size else p.size
    entries = []
    for rank, slot in enumerate(order[:k].tolist()):
        role = moe.ExpertRole.ROUTED if slot < n_routed else moe.ExpertRole.NULL
        entries.append(moe.ExpertActivation(
            index=slot, role=role, gate_prob=float(p[slot]), rank=rank,
            is_argmax=(slot == argmax_slot)))
    return moe.RoutingDecision(active=tuple(order[:k].tolist()), k=k,
                               per_expert=tuple(entries))


def _select(layer, state, rng):
    cfg = layer.config
    if rng is None or cfg.routing_mode == "deterministic":
        return prefix_decision(state.probs.data, cfg.top_p, state.argmax_slot,
                               cfg.n_routed)
    return moe.select_top_p_sampled(state.probs.data, cfg.top_p, rng,
                                    state.argmax_slot, cfg.n_routed)


def _shared_entries(layer):
    cfg = layer.config
    return tuple(moe.ExpertActivation(
        index=cfg.n_slots + s, role=moe.ExpertRole.SHARED, gate_prob=1.0,
        rank=-1, is_argmax=False) for s in range(cfg.n_shared))


def _accumulate(layer, terms):
    if not terms:
        return ad.zeros((layer.config.d_model,))
    y = terms[0]
    for t in terms[1:]:
        y = ad.add(y, t)
    return y


def forward_infer(layer, x):
    state = layer.route(x)
    decision = _select(layer, state, None)
    terms = []
    for entry in decision.per_expert:
        if entry.role is moe.ExpertRole.NULL:
            continue
        gate = ad.index(state.probs, entry.index)
        terms.append(ad.mul(gate, layer.expert_forward(x, entry.index)))
    for s in range(layer.config.n_shared):
        terms.append(layer.expert_forward(x, layer.config.n_slots + s))
    decision = dataclasses.replace(decision, shared=_shared_entries(layer))
    return _accumulate(layer, terms), decision


def forward_train(layer, x, rng):
    state = layer.route(x)
    decision = _select(layer, state, rng)
    entries = []
    terms = []
    for entry in decision.per_expert:
        bern = int(rng.random() < est.BERNOULLI_P)
        scale = est.hybrid_scale(int(entry.is_argmax), bern)
        entries.append(dataclasses.replace(entry, bern=bern, forward_scale=scale))
        if entry.role is moe.ExpertRole.NULL:
            continue
        gate = ad.index(state.probs, entry.index)
        o = ad.mul(gate, layer.expert_forward(x, entry.index))
        terms.append(est.apply_estimator(o, int(entry.is_argmax), bern))
    for s in range(layer.config.n_shared):
        terms.append(layer.expert_forward(x, layer.config.n_slots + s))
    decision = dataclasses.replace(decision, per_expert=tuple(entries),
                                   shared=_shared_entries(layer))
    return _accumulate(layer, terms), decision


def forward_frozen(layer, x, frozen):
    state = layer.route(x)
    matches = all(e.is_argmax == (e.index == state.argmax_slot)
                  for e in frozen.per_expert)
    if layer.config.routing_mode == "deterministic":
        live = _select(layer, state, None)
        matches = matches and live.active == frozen.active
    terms = []
    for entry in frozen.per_expert:
        if entry.role is moe.ExpertRole.NULL:
            continue
        gate = ad.index(state.probs, entry.index)
        o = ad.mul(gate, layer.expert_forward(x, entry.index))
        terms.append(ad.scale(o, entry.forward_scale))
    for s in range(layer.config.n_shared):
        terms.append(layer.expert_forward(x, layer.config.n_slots + s))
    return _accumulate(layer, terms), matches


def moe_rows(layer, X, mode, key, frozen=None):
    """The per-token batch loop: returns (X + layer output, decisions, matches).

    Train mode keys token t's stream ``np.random.default_rng([*key, t])``.
    """
    rows, decisions = [], []
    matches = True
    for t in range(X.data.shape[0]):
        x_t = ad.row(X, t)
        if frozen is not None:
            y, ok = forward_frozen(layer, x_t, frozen[t])
            matches = matches and ok
            d = frozen[t]
        elif mode == "train":
            y, d = forward_train(layer, x_t, np.random.default_rng([*key, t]))
        else:
            y, d = forward_infer(layer, x_t)
        decisions.append(d)
        rows.append(ad.add(x_t, y))
    return ad.stack_rows(rows), decisions, matches


def model_forward(model: hn.ToyTransformer, batch: hn.SyntheticBatch,
                  mode: str = "train", frozen=None):
    """``ToyTransformer.forward`` with the per-token MoE loop."""
    X = ad.Tensor(batch.tokens)
    per_layer = []
    matches = True
    for li in range(model.cfg.layers):
        X = model._attend(X, batch.position_ids, li)
        X, decisions, ok = moe_rows(model.blocks[li], X, mode, (model.cfg.seed, 5077 + li),
                                    frozen[li] if frozen is not None else None)
        matches = matches and ok
        per_layer.append(decisions)
    logits = ad.matmul(X, model.w_cls)
    return hn.cross_entropy(logits, batch.labels), per_layer, matches
