"""The fused MoE layer against the composed graph it replaced, byte for byte.

``DynamicCapacityMoE._forward_rows`` builds the whole layer as one tape
node.  ``moe_reference.composed_forward_rows`` runs the same layer as the
graph of engine ops and test-side row ops it replaced.  Outputs, routing,
``matches`` and, after ``ad.backward``, the gradient of the input, the
router and every expert weight must carry the same bytes: train (sampled
and deterministic), inference and frozen replays with and without B
draws, 0-2 null and shared slots, 1-129 rows, experts no token chose and
batches whose every active pair is a null slot.  A replay with a probe
axis must give each probe its unbatched replay's bytes.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import autodiff_reference as adr
import moe_reference as ref
from dyncapmoe import autodiff as ad
from dyncapmoe import moe


def run(layer, forward, X0, upstream, mode, key, frozen, residual):
    X = ad.Tensor(X0, requires_grad=True)
    Y, routing, matches = forward(X, mode, key, frozen)
    out = ad.add(X, Y) if residual else Y
    grads = {}
    if out.requires_grad:
        ad.backward(ad.sum(ad.mul(out, ad.Tensor(upstream))))
        tensors = {"X": X, **layer.parameters()}
        grads = {name: None if t.grad is None else t.grad.tobytes()
                 for name, t in tensors.items()}
        adr.zero_grads(tensors.values())
    arrays = [routing.rank, routing.gate, routing.is_argmax, routing.bern, routing.scale]
    return (Y.data.tobytes(), Y.data.shape, [None if a is None else a.tobytes() for a in arrays],
            np.asarray(matches).tobytes(), grads)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 129), n_null=st.integers(0, 2), n_shared=st.integers(0, 2),
       n_routed=st.integers(1, 4), top_p=st.sampled_from((0.3, 0.7, 1.0)),
       routing_mode=st.sampled_from(("sampled", "deterministic")),
       residual=st.booleans(), seed=st.integers(0, 2**16))
def test_fused_layer_matches_the_composed_graph_byte_for_byte(
        n, n_null, n_shared, n_routed, top_p, routing_mode, residual, seed):
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(
        d_model=5, n_routed=n_routed, expert_hidden=4, n_null=n_null, n_shared=n_shared,
        shared_hidden=3, top_p=top_p, routing_mode=routing_mode, seed=seed))
    rng = np.random.default_rng([seed, n])
    X0, upstream = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
    key = (seed, 11)

    def both(mode, frozen=None):
        got = run(layer, layer.forward_rows, X0, upstream, mode, key, frozen, residual)
        want = run(layer, lambda *a: ref.composed_forward_rows(layer, *a), X0, upstream,
                   mode, key, frozen, residual)
        assert got == want, (mode, frozen is not None)
        return layer.forward_rows(ad.Tensor(X0), mode, key=key, frozen=frozen)[1]

    both("infer")
    recorded = both("train")
    both("train", recorded)
    both("train", dataclasses.replace(recorded, bern=None))
    # every active pair a null slot: no routed pairs at all
    if n_null:
        rank = np.full(recorded.rank.shape, -1)
        rank[:, n_routed] = 0
        both("train", dataclasses.replace(recorded, rank=rank))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), n_shared=st.integers(0, 2), bern=st.booleans(),
       probed=st.sampled_from(("X", "router", "routed0.w_gate", "routed1.w_down", "shared")),
       seed=st.integers(0, 2**16))
def test_a_probe_axis_replay_gives_each_probe_its_unbatched_replay(n, n_shared, bern, probed,
                                                                   seed):
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(
        d_model=5, n_routed=2, expert_hidden=4, n_null=1, n_shared=n_shared,
        shared_hidden=3, top_p=0.7, routing_mode="sampled", seed=seed))
    for t in layer.parameters().values():
        t.requires_grad = False
    rng = np.random.default_rng([seed, n, 3])
    X0 = rng.normal(size=(n, 5))
    recorded = layer.forward_rows(ad.Tensor(X0), "train", key=(seed, 1))[1]
    if not bern:
        recorded = dataclasses.replace(recorded, bern=None)
    params = layer.parameters()
    name = "shared0.w_up" if probed == "shared" and n_shared else probed
    if name == "shared":
        name = "router"
    base = X0 if name == "X" else params[name].data
    stack = np.stack([base * (1.0 + 0.25 * p) for p in range(3)])
    if name == "X":
        Y, _, matches = layer.forward_rows(ad.Tensor(stack), frozen=recorded)
    else:
        params[name].data = stack
        Y, _, matches = layer.forward_rows(ad.Tensor(X0), frozen=recorded)
    # what reads no probed array stays unbatched, as grad_check expects
    Y, matches = np.broadcast_to(Y.data, (3, n, 5)), np.broadcast_to(matches, (3,))
    for p in range(3):
        if name == "X":
            y, _, ok = layer.forward_rows(ad.Tensor(stack[p]), frozen=recorded)
        else:
            params[name].data = stack[p]
            y, _, ok = layer.forward_rows(ad.Tensor(X0), frozen=recorded)
        assert Y[p].tobytes() == y.data.tobytes()
        assert matches[p] == ok
