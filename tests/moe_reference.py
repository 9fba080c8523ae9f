"""Per-token reference for the token-batched MoE layer.

This is the layer as it ran one token at a time: each token routes through
``route``, selects, runs its active experts, wraps each routed term in the
estimator and sums its terms left to right, and the harness assembles the
batch row by row.  ``DynamicCapacityMoE.forward_rows`` and
``ToyTransformer.forward`` are tested against it.  Inference takes the
deterministic prefix in every routing mode, as the layer does.

``composed_gated_ffn`` and ``composed_attend`` are the expert FFN and the
attention block as graphs of engine ops, five and twelve tape nodes; the
one-node ops ``moe.gated_ffn`` and ``ToyTransformer._attend`` must match
them bit for bit, values and gradients.  The composed FFN also takes a
single token [d_model], the form the per-token oracle runs; like
``route``, it computes each of the token's products as a one-row
``matvec_rows``.

``scatter_fill_forward_rows`` is the batched layer built from the generic
row ops of ``autodiff_reference``: its pair buffer is a zeros buffer plus
one ``scatter_add_rows`` per routed expert, and one ``scatter_add_rows``
adds the pairs into the output in pair order.  The layer's one-op fill and
its rank fold must match it bit for bit.

A training token t reads row t of the layer's uniform block
``Generator(Philox(key)).random((n, 2 * n_slots))``.  Sampled selection
orders the slots by Gumbel key ``log p - log(-log u)`` over the row's first
n_slots entries and walks until the mass reaches P; entry n_slots + j is
the B uniform of slot j.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

import autodiff_reference as adr
from dyncapmoe import autodiff as ad
from dyncapmoe import estimator as est
from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp


def trainval_config(seed: int) -> hn.ToyModelConfig:
    """128 tokens in all four modalities, deterministic Top-P routing: the
    shape of the benchmark's trainval workload."""
    return hn.ToyModelConfig(
        moe=moe.MoEConfig(d_model=32, n_routed=4, n_null=1, n_shared=2,
                          expert_hidden=64, top_p=0.7, routing_mode="deterministic",
                          seed=seed),
        segments=(rp.TextSegment(8), rp.ImageSegment(4, 4),
                  rp.VideoSegment(8.0, 0.5, 4, 4, f_l=1, f_u=4),
                  rp.AudioSegment(6.0)),
        layers=2, head_dim=24, learning_rate=0.05, steps=1, seed=seed,
        n_classes=4, noise=0.05)


def walk_decision(p: np.ndarray, order, top_p: float, argmax_slot: int,
                  n_routed: int) -> moe.RoutingDecision:
    """Take slots in ``order`` until their mass reaches top_p (all of them if
    rounding leaves the full sum short)."""
    chosen, mass = [], 0.0
    for slot in order:
        chosen.append(slot)
        mass += float(p[slot])
        if mass >= top_p:
            break
    entries = []
    for rank, slot in enumerate(chosen):
        role = moe.ExpertRole.ROUTED if slot < n_routed else moe.ExpertRole.NULL
        entries.append(moe.ExpertActivation(
            index=slot, role=role, gate_prob=float(p[slot]), rank=rank,
            is_argmax=(slot == argmax_slot)))
    return moe.RoutingDecision(active=tuple(chosen), k=len(chosen),
                               per_expert=tuple(entries))


def prefix_decision(p: np.ndarray, top_p: float, argmax_slot: int,
                    n_routed: int) -> moe.RoutingDecision:
    """Deterministic Top-P for one probability vector, one token at a time."""
    order = sorted(range(p.size), key=lambda j: -p[j])
    return walk_decision(p, order, top_p, argmax_slot, n_routed)


def gumbel_decision(p: np.ndarray, u: np.ndarray, top_p: float, argmax_slot: int,
                    n_routed: int) -> moe.RoutingDecision:
    """Sampled Top-P for one probability vector and one uniform per slot."""
    with np.errstate(divide="ignore"):
        keys = np.log(p) - np.log(-np.log(u))
    order = sorted(range(p.size), key=lambda j: -keys[j])
    return walk_decision(p, order, top_p, argmax_slot, n_routed)


def _argmax_slot(state) -> int:
    """The token's logit argmax; ties go to the lowest index."""
    return int(np.argmax(state.logits.data))


def _select(layer, state, u):
    cfg = layer.config
    if u is None or cfg.routing_mode == "deterministic":
        return prefix_decision(state.probs.data, cfg.top_p, _argmax_slot(state),
                               cfg.n_routed)
    return gumbel_decision(state.probs.data, u[:cfg.n_slots], cfg.top_p,
                           _argmax_slot(state), cfg.n_routed)


def _token_matvec(w, x):
    """``w @ x`` for a token ``x``, computed as a one-row ``matvec_rows``."""
    return ad.row(ad.matvec_rows(w, ad.stack_rows([x])), 0)


def composed_gated_ffn(x, params):
    """W_down @ (silu(W_gate @ x) * (W_up @ x)) for a token ``x`` [d_model],
    or row by row for token rows ``x`` [m, d_model], in five engine ops.
    A token's products are ``matvec_rows`` on a one-row batch, so it has
    the bits of its row in a batch."""
    apply = ad.matvec_rows if x.data.ndim > 1 else _token_matvec
    gate = ad.silu(apply(params.w_gate, x))
    up = apply(params.w_up, x)
    return apply(params.w_down, ad.mul(gate, up))


def composed_attend(model, X, pids, li):
    """``model._attend(X, pids, li)`` in twelve engine ops."""
    attn = model.attn[li]
    q = rp.apply_rope3d_rows(ad.matmul(X, attn.w_q), pids, model.cfg.rope)
    k = rp.apply_rope3d_rows(ad.matmul(X, attn.w_k), pids, model.cfg.rope)
    v = ad.matmul(X, attn.w_v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), model.cfg.head_dim ** -0.5)
    mixed = ad.matmul(ad.softmax(scores), v)
    return ad.add(X, ad.matmul(mixed, attn.w_o))


def expert_output(layer, x, index):
    """Expert ``index`` on one token ``x`` [d_model]: routed slots run their
    gated FFN, null slots are constant zeros, and index n_slots + s is
    shared expert s."""
    cfg = layer.config
    if index < cfg.n_routed:
        return composed_gated_ffn(x, layer.routed[index])
    if index < cfg.n_slots:
        return ad.zeros((cfg.d_model,))
    return composed_gated_ffn(x, layer.shared[index - cfg.n_slots])


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
        terms.append(ad.mul(gate, expert_output(layer, x, entry.index)))
    for s in range(layer.config.n_shared):
        terms.append(expert_output(layer, x, layer.config.n_slots + s))
    decision = dataclasses.replace(decision, shared=_shared_entries(layer))
    return _accumulate(layer, terms), decision


def forward_train(layer, x, u):
    """The training forward of one token with uniform row ``u`` [2 * n_slots]."""
    state = layer.route(x)
    decision = _select(layer, state, u)
    entries = []
    terms = []
    for entry in decision.per_expert:
        bern = int(u[layer.config.n_slots + entry.index] < est.BERNOULLI_P)
        scale = est.hybrid_scale(int(entry.is_argmax), bern)
        entries.append(dataclasses.replace(entry, bern=bern, forward_scale=scale))
        if entry.role is moe.ExpertRole.NULL:
            continue
        gate = ad.index(state.probs, entry.index)
        o = ad.mul(gate, expert_output(layer, x, entry.index))
        terms.append(est.apply_estimator(o, scale))
    for s in range(layer.config.n_shared):
        terms.append(expert_output(layer, x, layer.config.n_slots + s))
    decision = dataclasses.replace(decision, per_expert=tuple(entries),
                                   shared=_shared_entries(layer))
    return _accumulate(layer, terms), decision


def forward_frozen(layer, x, frozen):
    state = layer.route(x)
    matches = all(e.is_argmax == (e.index == _argmax_slot(state))
                  for e in frozen.per_expert)
    if layer.config.routing_mode == "deterministic":
        live = _select(layer, state, None)
        matches = matches and live.active == frozen.active
    terms = []
    for entry in frozen.per_expert:
        if entry.role is moe.ExpertRole.NULL:
            continue
        gate = ad.index(state.probs, entry.index)
        o = ad.mul(gate, expert_output(layer, x, entry.index))
        terms.append(ad.scale(o, entry.forward_scale))
    for s in range(layer.config.n_shared):
        terms.append(expert_output(layer, x, layer.config.n_slots + s))
    return _accumulate(layer, terms), matches


def composed_mix(layer, X, probs, routing, train):
    """Sum of the routed contributions per token, zeros if there are none,
    as the graph of row ops the fused layer replaced.

    Contributions are the routing record's routed (token, slot) pairs,
    expert-major and in (rank, token) order within an expert.  Each expert
    runs ``moe.gated_ffn`` on the gathered rows of its tokens, one op
    concatenates the experts' rows into a pair buffer, and the gates, the
    gradient rule (the estimator in training, the recorded scales on a
    replay with B draws) and one rank fold into the output apply to every
    pair at once.
    """
    cfg = layer.config
    tok, slot, rank, _, bounds = routing._active
    m = bounds[cfg.n_routed]
    if not m:
        return ad.zeros((X.data.shape[-2], cfg.d_model))
    tok, slot, rank = tok[:m], slot[:m], rank[:m]
    buf = adr.concat_rows([moe.gated_ffn(adr.gather_distinct_rows(X, tok[lo:hi]), params)
                           for params, lo, hi in zip(layer.routed, bounds, bounds[1:])
                           if lo < hi])
    buf = adr.scale_rows(buf, adr.gather_distinct_rows(probs, (tok, slot)))
    if train:
        buf = est.apply_estimator(buf, routing.scale[tok, slot])
    elif routing.bern is not None:
        buf = adr.scale_rows(buf, ad.Tensor(routing.scale[tok, slot]))
    return adr.fold_rows(X.data.shape[-2], tok, rank, buf)


def scatter_fill_mix(layer, X, probs, routing, train):
    """:func:`composed_mix` with the generic row ops: the pair buffer is a
    zeros buffer plus one ``scatter_add_rows`` per routed expert, and the
    pairs reach the output through one more, in pair order."""
    cfg = layer.config
    rank = routing.rank[:, :cfg.n_routed]
    tok, slot = np.nonzero(rank >= 0)
    if not tok.size:
        return ad.zeros((len(X.data), cfg.d_model))
    order = np.lexsort((tok, rank[tok, slot]))
    tok, slot = tok[order], slot[order]
    buf = ad.zeros((tok.size, cfg.d_model))
    for j, params in enumerate(layer.routed):
        pos = np.flatnonzero(slot == j)
        if pos.size:
            buf = adr.scatter_add_rows(buf, pos, moe.gated_ffn(adr.gather_rows(X, tok[pos]),
                                                               params))
    buf = adr.scale_rows(buf, adr.gather_rows(probs, (tok, slot)))
    if train:
        buf = est.apply_estimator(buf, routing.scale[tok, slot])
    elif routing.bern is not None:
        buf = adr.scale_rows(buf, ad.Tensor(routing.scale[tok, slot]))
    return adr.scatter_add_rows(ad.zeros((len(X.data), cfg.d_model)), tok, buf)


def composed_rows(layer, X, U, frozen, mix=composed_mix):
    """``DynamicCapacityMoE._forward_rows`` as the graph of engine ops the
    fused layer replaced: the router product and softmax, ``mix`` for the
    routed experts, then one ``gated_ffn`` and one ``add`` per shared
    expert.  The selection is the layer's own."""
    logits = ad.matvec_rows(layer.router, X)
    probs = ad.softmax(logits)
    routing, matches = layer._select(logits.data, probs.data, U, frozen)
    Y = mix(layer, X, probs, routing, train=U is not None)
    for params in layer.shared:
        Y = ad.add(Y, moe.gated_ffn(X, params))
    return Y, routing, matches


def composed_forward_rows(layer, X, mode="infer", key=None, frozen=None, mix=composed_mix):
    """``layer.forward_rows`` with :func:`composed_rows` in place of the
    fused layer."""
    layer._forward_rows = functools.partial(composed_rows, layer, mix=mix)
    try:
        return layer.forward_rows(X, mode, key, frozen)
    finally:
        del layer._forward_rows


scatter_fill_forward_rows = functools.partial(composed_forward_rows, mix=scatter_fill_mix)


def moe_rows(layer, X, mode, key, frozen=None):
    """The per-token batch loop: returns (X + layer output, decisions, matches).

    Train mode gives token t row t of the uniform block keyed by ``key``.
    """
    n = X.data.shape[0]
    rows, decisions = [], []
    matches = True
    if mode == "train" and frozen is None:
        U = np.random.Generator(np.random.Philox(list(key))).random(
            (n, 2 * layer.config.n_slots))
    for t in range(n):
        x_t = ad.row(X, t)
        if frozen is not None:
            y, ok = forward_frozen(layer, x_t, frozen[t])
            matches = matches and ok
            d = frozen[t]
        elif mode == "train":
            y, d = forward_train(layer, x_t, U[t])
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
