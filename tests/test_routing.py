"""The columnar ``moe.Routing`` record and its trace logging.

Property tests draw random layer configs, token counts and routing modes
and check every row of the Routing that ``forward_rows`` returns: k >= 1,
ranks 0..k-1 each once, gate mass >= P unless every slot is active, and in
deterministic selection a minimal prefix that holds the argmax.  The
per-token views must equal the decisions of the per-token reference in
``tests/moe_reference.py`` exactly, and in training the first m rows of a
batch must route and mix as they do in an m-row batch, bit for bit.

``analytics.record_rows`` must log a Routing exactly as the per-token
``analytics.record`` loop does: same records, byte-identical CSV and JSONL.

A Routing checks its own rule when built (integer ranks, none below -1,
k >= 1 active slots per row ranked 0..k-1, each once, and its role
counts), so a malformed record, built or edited with
``dataclasses.replace``, is refused before any replay or log reads it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import moe_reference as ref
from dyncapmoe import analytics as an
from dyncapmoe import autodiff as ad
from dyncapmoe import estimator as est
from dyncapmoe import moe

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def layers(draw):
    cfg = moe.MoEConfig(
        d_model=draw(st.integers(1, 6)), n_routed=draw(st.integers(1, 5)),
        expert_hidden=draw(st.integers(1, 4)), n_null=draw(st.integers(0, 2)),
        n_shared=draw(st.integers(0, 2)), shared_hidden=draw(st.integers(1, 3)),
        top_p=draw(st.one_of(st.sampled_from((1.0, 0.5, 0.7, 1e-9)),
                             st.floats(0.0, 1.0, exclude_min=True))),
        routing_mode=draw(st.sampled_from(("deterministic", "sampled"))),
        seed=draw(st.integers(0, 2**16)))
    return moe.DynamicCapacityMoE(cfg)


def token_rows(seed, n, d, spread):
    """Token rows; spread 0 gives equal logits, so every slot ties."""
    return ad.Tensor(spread * np.random.default_rng([seed, 77]).normal(size=(n, d)))


@PROPERTY
@given(layer=layers(), n=st.integers(1, 24), mode=st.sampled_from(("infer", "train")),
       spread=st.sampled_from((0.0, 0.1, 1.0, 10.0)), key=st.integers(0, 2**16))
def test_every_row_is_a_valid_top_p_selection(layer, n, mode, spread, key):
    cfg = layer.config
    X = token_rows(key, n, cfg.d_model, spread)
    _, routing, _ = layer.forward_rows(X, mode, key=(key, 3))
    assert isinstance(routing, moe.Routing) and len(routing) == n
    assert routing.rank.shape == routing.gate.shape == (n, cfg.n_slots)
    assert (routing.bern is None) == (mode == "infer")
    deterministic = mode == "infer" or cfg.routing_mode == "deterministic"
    for t in range(n):
        rank, gate = routing.rank[t], routing.gate[t]
        k = int((rank >= 0).sum())
        assert k >= 1
        assert sorted(rank[rank >= 0].tolist()) == list(range(k))
        order = np.argsort(np.where(rank >= 0, rank, cfg.n_slots), kind="stable")[:k]
        mass = 0.0
        for slot in order.tolist():  # left to right in rank order, as the layer sums
            before, mass = mass, mass + gate[slot]
        assert mass >= cfg.top_p or k == cfg.n_slots
        argmax = int(np.argmax(routing.is_argmax[t]))
        assert routing.is_argmax[t].sum() == 1
        if deterministic:
            assert before < cfg.top_p
            assert rank[argmax] >= 0
    with pytest.raises((ValueError, AttributeError)):
        routing.rank[0, 0] = 7
    with pytest.raises(AttributeError):
        routing.rank = routing.rank


@PROPERTY
@given(layer=layers(), n=st.integers(1, 16), mode=st.sampled_from(("infer", "train")),
       spread=st.sampled_from((0.0, 1.0, 10.0)), key=st.integers(0, 2**16))
def test_views_equal_the_per_token_reference(layer, n, mode, spread, key):
    X = token_rows(key, n, layer.config.d_model, spread)
    _, routing, _ = layer.forward_rows(X, mode, key=(key, 3))
    _, want, _ = ref.moe_rows(layer, X, mode, (key, 3))
    assert list(routing) == want
    assert routing[-1] == want[-1]
    with pytest.raises(IndexError):
        routing[n]
    _, replayed, matches = layer.forward_rows(X, frozen=routing)
    assert replayed is routing and matches


@PROPERTY
@given(layer=layers(), n=st.integers(1, 16), spread=st.sampled_from((0.0, 1.0, 10.0)),
       key=st.integers(0, 2**16))
def test_a_record_lists_its_pairs_once_for_every_replay(layer, n, spread, key):
    cfg = layer.config
    X = token_rows(key, n, cfg.d_model, spread)
    _, routing, _ = layer.forward_rows(X, "train", key=(key, 3))
    pairs = tok, slot, pair_rank, k, bounds = routing._active
    rank = routing.rank
    # expert-major over every active slot, nulls last, in (rank, token)
    # order within a slot
    assert [(j, rank[t, j], t) for t, j in zip(tok.tolist(), slot.tolist())] == sorted(
        (j, rank[t, j], t) for t, j in zip(*np.nonzero(rank >= 0)))
    assert pair_rank.tolist() == rank[tok, slot].tolist()
    assert k.tolist() == (rank >= 0).sum(axis=1).tolist()
    assert len(bounds) == cfg.n_slots + 1 and bounds[0] == 0 and bounds[-1] == tok.size
    for j in range(cfg.n_slots):
        assert (slot[bounds[j]:bounds[j + 1]] == j).all()
    assert not any(a.flags.writeable for a in pairs)
    for _ in range(2):
        layer.forward_rows(X, frozen=routing)
        assert routing._active is pairs
    with pytest.raises(ValueError, match="routed"):
        layer.forward_rows(X, frozen=dataclasses.replace(routing, n_routed=cfg.n_routed + 1))


@pytest.mark.parametrize("routing_mode", ["deterministic", "sampled"])
@PROPERTY
@given(layer=layers(), n=st.integers(1, 24), data=st.data(),
       spread=st.sampled_from((0.0, 1.0, 10.0)), key=st.integers(0, 2**16))
def test_train_rows_do_not_depend_on_the_batch_behind_them(routing_mode, layer, n, data,
                                                           spread, key):
    layer = moe.DynamicCapacityMoE(dataclasses.replace(layer.config,
                                                       routing_mode=routing_mode))
    m = data.draw(st.integers(1, n), label="m")
    X = token_rows(key, n, layer.config.d_model, spread)
    Y, routing, _ = layer.forward_rows(X, "train", key=(key, 3))
    Y_m, routing_m, _ = layer.forward_rows(ad.Tensor(X.data[:m]), "train", key=(key, 3))
    for name in ("rank", "gate", "is_argmax", "bern", "scale"):
        assert getattr(routing_m, name).tobytes() == getattr(routing, name)[:m].tobytes()
    assert Y_m.data.tobytes() == Y.data[:m].tobytes()


# ---------------------------------------------------------------------------
# trace logging
# ---------------------------------------------------------------------------

MODALITY_CYCLE = ("text", "image", "# odd", "")


def logged_both_ways(layer, steps, n, mode):
    """The same routings logged by record_rows and by the per-token loop."""
    by_rows, by_token = an.RoutingTrace(), an.RoutingTrace()
    tags = [MODALITY_CYCLE[t % len(MODALITY_CYCLE)] for t in range(n)]
    for step in steps:
        for li in range(2):
            X = token_rows(step * 2 + li, n, layer.config.d_model, 1.0)
            _, routing, _ = layer.forward_rows(X, mode, key=(step, li))
            an.record_rows(by_rows, step, li, tags, routing)
            for t, decision in enumerate(routing):
                an.record(by_token, step, li, t, tags[t], decision)
    return by_rows, by_token


@st.composite
def hand_built_routings(draw):
    """A Routing as ``forward_rows`` never makes one: 1-6 tokens, 0-2 shared
    experts, and each row's active slots in a drawn order, so rows with
    every slot active and rows that rank a null slot first both occur."""
    n_slots = draw(st.integers(1, 5), label="n_slots")
    n_routed = draw(st.integers(1, n_slots), label="n_routed")
    n = draw(st.integers(1, 6), label="n")
    rank = np.full((n, n_slots), -1)
    for t in range(n):
        order = draw(st.permutations(range(n_slots)), label="order")
        if draw(st.booleans(), label="null first") and n_routed < n_slots:
            null = order.index(draw(st.integers(n_routed, n_slots - 1)))
            order[0], order[null] = order[null], order[0]
        k = draw(st.one_of(st.just(n_slots), st.integers(1, n_slots)), label="k")
        rank[t, order[:k]] = np.arange(k)
    gate = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rank.size,
                                  max_size=rank.size))).reshape(rank.shape)
    is_argmax = np.arange(n_slots) == np.argmax(gate, axis=1)[:, None]
    bern = None
    if draw(st.booleans(), label="train"):
        bern = np.array(draw(st.lists(st.booleans(), min_size=rank.size,
                                      max_size=rank.size))).reshape(rank.shape)
    return moe.Routing(rank, gate, is_argmax, bern, n_routed,
                       draw(st.integers(0, 2), label="n_shared"))


@pytest.mark.parametrize("n_null,n_shared,mode", [(0, 0, "infer"), (1, 2, "train"),
                                                  (2, 1, "infer"), (1, 0, "train")])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hand_built=st.lists(hand_built_routings(), max_size=3))
def test_record_rows_equals_the_per_token_record_loop(tmp_path, n_null, n_shared, mode,
                                                      hand_built):
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(
        d_model=4, n_routed=3, expert_hidden=3, n_null=n_null, n_shared=n_shared,
        top_p=0.8, routing_mode="sampled", seed=5))
    # steps out of order, so the block store has to sort on read
    by_rows, by_token = logged_both_ways(layer, (3, 0, 2), 9, mode)
    roles = {s.role for r in by_rows.records() for s in r.slots}
    assert ("null" in roles) == (n_null > 0) and ("shared" in roles) == (n_shared > 0)
    # then the hand-built routings, at steps before and after the layer's
    for i, routing in enumerate(hand_built):
        tags = [MODALITY_CYCLE[t % len(MODALITY_CYCLE)] for t in range(len(routing))]
        step = 1 if i == 0 else 3 + i
        an.record_rows(by_rows, step, 1, tags, routing)
        for t, decision in enumerate(routing):
            an.record(by_token, step, 1, t, tags[t], decision)
    assert len(by_rows) == len(by_token) == 3 * 2 * 9 + sum(map(len, hand_built))
    assert by_rows.records() == by_token.records()
    for fmt in ("csv", "jsonl"):
        an.export_trace(by_rows, tmp_path / f"rows.{fmt}", fmt=fmt)
        an.export_trace(by_token, tmp_path / f"token.{fmt}", fmt=fmt)
        assert (tmp_path / f"rows.{fmt}").read_bytes() == \
            (tmp_path / f"token.{fmt}").read_bytes()


def test_record_rows_mixes_with_add_and_imports(tmp_path):
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=1, seed=2))
    by_rows, by_token = logged_both_ways(layer, (0,), 5, "train")
    an.export_trace(by_rows, tmp_path / "trace.csv")
    loaded = an.import_trace(tmp_path / "trace.csv")
    _, routing, _ = layer.forward_rows(token_rows(9, 5, 4, 1.0), "infer")
    an.record_rows(loaded, 1, 0, ["text"] * 5, routing)
    an.record(loaded, 1, 1, 0, "image", routing[0])
    an.record_rows(by_token, 1, 0, ["text"] * 5, routing)
    an.record(by_token, 1, 1, 0, "image", routing[0])
    assert loaded.records() == by_token.records()


def test_repeated_key_raises_at_append_time():
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=2, seed=1))
    _, routing, _ = layer.forward_rows(token_rows(1, 4, 4, 1.0), "infer")
    trace = an.RoutingTrace()
    an.record_rows(trace, 2, 1, ["text"] * 4, routing)
    with pytest.raises(an.DuplicateRecordError):
        an.record_rows(trace, 2, 1, ["text"] * 4, routing)
    with pytest.raises(an.DuplicateRecordError):
        an.record(trace, 2, 1, 3, "text", routing[3])
    an.record(trace, 2, 0, 3, "text", routing[3])
    with pytest.raises(an.DuplicateRecordError):
        an.record_rows(trace, 2, 0, ["text"] * 4, routing)
    with pytest.raises(ValueError, match="one modality tag per token"):
        an.record_rows(trace, 5, 0, ["text"] * 3, routing)
    assert len(trace) == 5  # rejected blocks left nothing behind
    an.record_rows(trace, 2, 2, ["text"] * 4, routing)
    assert [r.token_index for r in trace.select(2)] == [0, 1, 2, 3]


def test_record_rows_refuses_a_bare_string_as_modality_tags():
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=1, seed=1))
    _, routing, _ = layer.forward_rows(token_rows(1, 4, 4, 1.0), "infer")
    trace = an.RoutingTrace()
    with pytest.raises(ValueError, match="modality_tags"):
        an.record_rows(trace, 0, 0, "text", routing)
    assert len(trace) == 0


# ---------------------------------------------------------------------------
# the record's own rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_shared", [0, 1])
@pytest.mark.parametrize("rank,message", [
    ([[0, 0, -1]], "ranks 0..k-1"), ([[0, 2, -1]], "ranks 0..k-1"),
    ([[1, -1, -1]], "ranks 0..k-1"), ([[0, 1, 2], [0, 0, 1]], "ranks 0..k-1"),
    ([[0, 1, -1], [0, 1, 3]], "ranks 0..k-1"), ([[-1, -1, -1]], "at least one routable"),
    ([[0, -1, -1], [-1, -1, -1]], "at least one routable")])
def test_a_routing_refuses_a_token_without_active_slots_ranked_0_to_k_minus_1(
        rank, message, n_shared):
    rank = np.array(rank)
    args = (np.full(rank.shape, 1 / 3), rank == 0, None, 2, n_shared)
    with pytest.raises(ValueError, match=message):
        moe.Routing(rank, *args)
    routing = moe.Routing(np.tile([0, -1, -1], (len(rank), 1)), *args)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(routing, rank=rank)


@pytest.mark.parametrize("change,message", [
    (dict(rank=np.array([[0.0, 1.0, -1.0]])), "rank must be an integer array"),
    (dict(rank=np.array([[0, 1, -2]])), "rank must be -1 for an inactive slot"),
    (dict(rank=np.array([[0, -2, 1]])), "rank must be -1 for an inactive slot"),
    (dict(n_routed=0), "n_routed must be an integer >= 1"),
    (dict(n_routed=4), "n_routed must be at most the 3 slots"),
    (dict(n_routed=2.5), "n_routed must be an integer"),
    (dict(n_routed=True), "n_routed must be an integer"),
    (dict(n_shared=-1), "n_shared must be an integer >= 0"),
    (dict(n_shared=True), "n_shared must be an integer")])
def test_a_routing_refuses_ranks_and_role_counts_outside_the_rule(change, message):
    rank = np.array([[0, 1, -1]])
    fields = dict(rank=rank, gate=np.full(rank.shape, 1 / 3), is_argmax=rank == 0,
                  bern=None, n_routed=2, n_shared=1)
    routing = moe.Routing(**fields)
    with pytest.raises(ValueError, match=message):
        moe.Routing(**{**fields, **change})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(routing, **change)


def corruptions(rank):
    """Each way to break the rule in one row, as ``(name, broken row,
    message)``: the row's ranks are 0..k-1 on its active slots."""
    k = int((rank >= 0).sum())
    out = []
    if k >= 2 or k < rank.size:  # a second slot can take rank 0
        dup = rank.copy()
        dup[rank == k - 1 if k >= 2 else np.flatnonzero(rank < 0)[0]] = 0
        out.append(("duplicate a rank", dup, "ranks 0..k-1"))
    out.append(("drop rank 0", np.where(rank == 0, -1, rank),
                "ranks 0..k-1" if k >= 2 else "at least one routable"))
    out.append(("open a gap", np.where(rank == k - 1, k, rank), "ranks 0..k-1"))
    out.append(("deactivate the row", np.full_like(rank, -1), "at least one routable"))
    out.append(("set a -2", np.where(rank == k - 1, -2, rank), "-1 for an inactive slot"))
    return out


@PROPERTY
@given(routing=hand_built_routings(), data=st.data())
def test_a_corrupted_row_is_refused_before_any_replay(routing, data):
    n, n_slots = routing.rank.shape
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(
        d_model=3, n_routed=routing.n_routed, expert_hidden=2,
        n_null=n_slots - routing.n_routed, n_shared=routing.n_shared, seed=4))
    X = token_rows(n, n, 3, 1.0)
    _, replayed, _ = layer.forward_rows(X, frozen=routing)
    assert replayed is routing
    t = data.draw(st.integers(0, n - 1), label="row")
    _, row, message = data.draw(st.sampled_from(corruptions(routing.rank[t])),
                                label="corruption")
    rank = routing.rank.copy()
    rank[t] = row
    # the edit raises, so the replay call is never reached
    with pytest.raises(ValueError, match=message):
        layer.forward_rows(X, frozen=dataclasses.replace(routing, rank=rank))


def test_a_replay_refuses_a_record_made_for_other_shared_experts():
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=2, seed=3))
    X = token_rows(2, 5, 4, 1.0)
    _, routing, _ = layer.forward_rows(X, "train", key=(2,))
    for n_shared in (0, 1, 3):
        with pytest.raises(ValueError, match="2 shared experts"):
            layer.forward_rows(X, frozen=dataclasses.replace(routing, n_shared=n_shared))
    assert layer.forward_rows(X, frozen=routing)[1] is routing


def test_routing_derives_its_forward_scale():
    layer = moe.DynamicCapacityMoE(moe.MoEConfig(d_model=4, n_routed=3, expert_hidden=3,
                                                 n_null=1, n_shared=1, seed=6))
    X = token_rows(4, 6, 4, 1.0)
    _, routing, _ = layer.forward_rows(X, "train", key=(8,))
    np.testing.assert_array_equal(routing.scale,
                                  est.hybrid_scale(routing.is_argmax, routing.bern))
    assert not routing.scale.flags.writeable
    assert [e.forward_scale for e in routing[2].per_expert] == [
        routing.scale[2, e.index] for e in routing[2].per_expert]

    _, inferred, _ = layer.forward_rows(X, "infer")
    np.testing.assert_array_equal(inferred.scale, np.ones(inferred.rank.shape))

    flipped = dataclasses.replace(routing, bern=~routing.bern)
    np.testing.assert_array_equal(flipped.scale,
                                  est.hybrid_scale(routing.is_argmax, ~routing.bern))
    unit = dataclasses.replace(routing, bern=None)
    np.testing.assert_array_equal(unit.scale, np.ones(routing.rank.shape))


def test_routing_takes_no_scale_and_rejects_non_binary_draws():
    rank = np.array([[0, -1]])
    args = (rank, np.array([[0.8, 0.2]]), np.array([[True, False]]))
    assert "scale" not in {f.name for f in dataclasses.fields(moe.Routing) if f.init}
    with pytest.raises(TypeError):
        moe.Routing(*args, None, 2, scale=np.ones(rank.shape))
    with pytest.raises(ValueError, match="bern"):
        moe.Routing(*args, np.array([[1, 2]]), 2)
    routing = moe.Routing(*args, np.array([[False, False]]), 2)
    with pytest.raises(ValueError, match="bern"):
        dataclasses.replace(routing, bern=np.array([[0.5, 1.0]]))
    assert routing.scale.tolist() == [[1.0, 1 / 3]]
