"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test is self-contained and checks against an oracle computed inside the
test (closed forms, exhaustive enumeration, independent re-implementations),
never against the module under test.  conftest.py prints one PASS/FAIL line
per criterion at the end of the run.
"""

import math
import time

import numpy as np

import estimator_reference as est_ref
import moe_reference as ref
import dyncapmoe.analytics as an
import dyncapmoe.autodiff as ad
import dyncapmoe.estimator as est
import dyncapmoe.harness as hn
import dyncapmoe.moe as moe
import dyncapmoe.rope3d as rp


# ---------------------------------------------------------------------------
# criterion 1: estimator forward/backward split
# ---------------------------------------------------------------------------

def test_criterion_01_estimator_forward_backward_split():
    """Forward equals max(delta, (1+2B)/3) * o bit for bit; gradients are
    exactly 2x the plain graph's to 1e-12; all four (delta, B) branches in
    under 1 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    x = ad.Tensor(rng.normal(size=6))
    proj = ad.Tensor(rng.normal(size=4))
    w_data = rng.normal(size=(4, 6))

    for delta in (0, 1):
        for bern in (0, 1):
            expected_scale = max(float(delta), (1.0 + 2.0 * bern) / 3.0)

            w_plain = ad.Tensor(w_data.copy(), requires_grad=True)
            o_plain = ad.matmul(w_plain, x)
            ad.backward(ad.sum(ad.mul(proj, o_plain)))

            w_est = ad.Tensor(w_data.copy(), requires_grad=True)
            y = est.apply_estimator(ad.matmul(w_est, x), est.hybrid_scale(delta, bern))
            ad.backward(ad.sum(ad.mul(proj, y)))

            assert y.data.tobytes() == (expected_scale * o_plain.data).tobytes()

            grad_err = np.max(np.abs(w_est.grad - 2.0 * w_plain.grad))
            assert grad_err <= 1e-12

    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 2: unbiasedness for a linear downstream function
# ---------------------------------------------------------------------------

def test_criterion_02_unbiased_for_linear_downstream():
    """E over (D, B) of the estimator gradient equals the exact mixture
    gradient to 1e-10 for 2-4 experts, d=8, 20 seeds, in under 5 s."""
    t0 = time.monotonic()
    d = 8
    for n_experts in (2, 3, 4):
        for seed in range(20):
            rng = np.random.default_rng([2002, n_experts, seed])
            obj = est.ClosedFormObjective(
                degree=1,
                projection=rng.uniform(-1.0, 1.0, size=d),
                expert_outputs=[rng.uniform(-1.0, 1.0, size=d)
                                for _ in range(n_experts)])
            z = rng.uniform(-2.0, 2.0, size=n_experts)
            diff = est.estimator_expectation(obj, z) - est.exact_gradient_oracle(obj, z)
            assert np.max(np.abs(diff)) <= 1e-10
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 3: two-point quadrature and the coefficient identity
# ---------------------------------------------------------------------------

def test_criterion_03_heun_quadrature_and_coefficient_identity():
    """a*(g(a)/4 + 3*g(a/3)/4) integrates 1, t, t^2 exactly over [0, a] to
    1e-12, and (6-4B)(1+2B)/3 == 2.0 in exact float arithmetic for B in {0,1}."""
    cases = [
        (lambda t: 1.0, lambda a: a),
        (lambda t: t, lambda a: a * a / 2.0),
        (lambda t: t * t, lambda a: a ** 3 / 3.0),
    ]
    for a in (1.0, 0.7, -2.0, 3.5):
        for g, integral in cases:
            assert abs(est_ref.heun_quadrature(g, a) - integral(a)) <= 1e-12
    for bern in (0, 1):
        assert (6.0 - 4.0 * bern) * (1.0 + 2.0 * bern) / 3.0 == 2.0


# ---------------------------------------------------------------------------
# criterion 4: deterministic selection equals the prefix oracle
# ---------------------------------------------------------------------------

def _prefix_oracle(p: np.ndarray, top_p: float) -> list[int]:
    """Sort by probability descending (ties: lower index first); take the
    shortest prefix whose running mass reaches top_p, or everything."""
    order = sorted(range(len(p)), key=lambda i: (-p[i], i))
    chosen, total = [], 0.0
    for i in order:
        chosen.append(i)
        total += float(p[i])
        if total >= top_p:
            break
    return chosen


def test_criterion_04_top_p_matches_prefix_oracle():
    """Exact active-set equality on 10,000 random vectors (widths up to 16,
    ties included) at P in {0.1, 0.7, 1.0}, in under 5 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(4004)
    thresholds = (0.1, 0.7, 1.0)
    for i in range(10_000):
        n = int(rng.integers(1, 17))
        if i % 4 == 0:  # small-integer grid: guaranteed exact ties for n > 1
            raw = rng.integers(1, 5, size=n).astype(np.float64)
        else:
            raw = rng.random(n) + 1e-9
        p = raw / raw.sum()
        top_p = thresholds[i % 3]
        decision = moe.select_top_p_deterministic(p, top_p)
        expected = _prefix_oracle(p, top_p)
        assert list(decision.active) == expected
        assert decision.k == len(expected)
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 5: full-model finite-difference gradient check
# ---------------------------------------------------------------------------

def test_criterion_05_full_model_finite_difference():
    """With routing choices frozen, every parameter block of the two-layer
    model passes central differences (eps 1e-6) at rel err <= 1e-4, under 60 s."""
    t0 = time.monotonic()
    report = hn.grad_check(hn.gradcheck_default_config(), eps=1e-6, tol=1e-4)
    assert report.failed_blocks == ()
    assert report.blocks  # the sweep actually covered parameter blocks
    for block in report.blocks:
        assert block.max_rel_err <= 1e-4
        assert block.n_checked >= 1
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 6: position ids for the text + video + audio worked example
# ---------------------------------------------------------------------------

def test_criterion_06_position_id_worked_example():
    """120 s of 0.5 fps video then 120 s of audio after x text tokens:
    second frame starts at (x+2*theta, x, x), the last frame ends at
    (x+118*theta, x+p, x+p), and the final audio id is (y+117*theta,)*3,
    all as exact integers."""
    x, rows = 5, 3
    p = rows - 1
    per_frame = rows * rows
    for theta in (1, 2):
        segments = [rp.TextSegment(x),
                    rp.VideoSegment(120.0, 0.5, rows, rows),
                    rp.AudioSegment(120.0)]
        ids, tags = rp.assign_sequence_tagged(segments, theta)

        assert len(ids) == x + 60 * per_frame + 40 * 20
        assert tags.count("text") == x
        assert tags.count("video") == 60 * per_frame
        assert tags.count("audio") == 800
        assert all(isinstance(c, int) for pid in ids for c in pid)

        video = ids[x:x + 60 * per_frame]
        assert video[0] == (x, x, x)                       # first frame, first token
        assert video[per_frame] == (x + 2 * theta, x, x)   # second frame starts
        assert video[-1] == (x + 118 * theta, x + p, x + p)  # last frame ends

        y = 1 + (x + 118 * theta)  # next segment starts past the max component
        audio = ids[x + 60 * per_frame:]
        assert audio[0] == (y, y, y)
        assert audio[-1] == (y + 117 * theta,) * 3


# ---------------------------------------------------------------------------
# criterion 7: rotation preserves norms and attention shift-invariance
# ---------------------------------------------------------------------------

def test_criterion_07_rotation_shift_invariance():
    """Over 100 random draws: q.k scores are invariant to a common integer
    shift of both position ids to 1e-9, and rotation keeps norms to 1e-12."""
    cfg = rp.RopeFreqConfig(head_dim=24)
    rng = np.random.default_rng(7007)
    for _ in range(100):
        q = rng.normal(size=24)
        k = rng.normal(size=24)
        pid_q = rp.PositionId(*(int(v) for v in rng.integers(1, 60, size=3)))
        pid_k = rp.PositionId(*(int(v) for v in rng.integers(1, 60, size=3)))
        shift = tuple(int(v) for v in rng.integers(-20, 21, size=3))

        def score(pq, pk):
            rq = rp.apply_rope3d(ad.Tensor(q), pq, cfg).data
            rk = rp.apply_rope3d(ad.Tensor(k), pk, cfg).data
            return float(rq @ rk)

        shifted_q = rp.PositionId(*(c + s for c, s in zip(pid_q, shift)))
        shifted_k = rp.PositionId(*(c + s for c, s in zip(pid_k, shift)))
        assert abs(score(pid_q, pid_k) - score(shifted_q, shifted_k)) <= 1e-9

        rotated = rp.apply_rope3d(ad.Tensor(q), pid_q, cfg).data
        assert abs(np.linalg.norm(rotated) - np.linalg.norm(q)) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 8: null experts drop out exactly; shared experts reach every token
# ---------------------------------------------------------------------------

def test_criterion_08_null_and_shared_semantics():
    """Dropping a selected null slot from the mixture sum leaves the output
    bit-for-bit unchanged; every one of 1000 traced tokens lists all shared
    experts."""
    cfg = moe.MoEConfig(d_model=8, n_routed=3, n_null=2, n_shared=1,
                        expert_hidden=8, top_p=1.0,
                        routing_mode="deterministic", seed=11)
    layer = moe.DynamicCapacityMoE(cfg)
    rng = np.random.default_rng(8008)

    n_with_null = 0
    for _ in range(100):
        x = ad.Tensor(rng.normal(size=cfg.d_model))
        y, decision = layer.forward_infer(x)
        state = layer.route(x)
        terms_all, terms_no_null = [], []
        for entry in decision.per_expert:
            gate = ad.index(state.probs, entry.index)
            term = ad.mul(gate, ref.expert_output(layer, x, entry.index)).data
            terms_all.append(term)
            if entry.role is not moe.ExpertRole.NULL:
                terms_no_null.append(term)
        if len(terms_no_null) < len(terms_all):
            n_with_null += 1
        shared = [ref.expert_output(layer, x, cfg.n_slots + s).data
                  for s in range(cfg.n_shared)]

        def fold(terms):
            acc = terms[0].copy()
            for t in terms[1:]:
                acc = acc + t
            return acc

        with_null = fold(terms_all + shared)
        without_null = fold(terms_no_null + shared)
        assert np.array_equal(with_null, without_null)
        assert np.array_equal(without_null, y.data)
    assert n_with_null >= 90  # null slots really were selected, not just absent

    shared_cfg = moe.MoEConfig(d_model=8, n_routed=3, n_null=1, n_shared=2,
                               expert_hidden=8, top_p=0.7,
                               routing_mode="sampled", seed=12)
    shared_layer = moe.DynamicCapacityMoE(shared_cfg)
    tokens = rng.normal(size=(1000, shared_cfg.d_model))
    _, decisions, _ = shared_layer.forward_rows(ad.Tensor(tokens), "train",
                                                key=(shared_cfg.seed, 0))
    trace = an.RoutingTrace()
    for t, decision in enumerate(decisions):
        an.record(trace, 0, 0, t, "text", decision)
    assert len(trace) == 1000
    expected_ids = {shared_cfg.n_slots + s for s in range(shared_cfg.n_shared)}
    for rec in trace.records():
        shared_slots = [s for s in rec.slots if s.selected_rank == -1]
        assert {s.expert_id for s in shared_slots} == expected_ids
        assert all(s.role == "shared" for s in shared_slots)


# ---------------------------------------------------------------------------
# criterion 9: analytics normalisation and byte-identical CSV round-trip
# ---------------------------------------------------------------------------

def test_criterion_09_analytics_sums_and_csv_round_trip(tmp_path):
    """Slot proportions and count histograms each sum to 1 +/- 1e-12;
    CSV export -> import -> export reproduces the file byte for byte."""
    rng = np.random.default_rng(9009)
    trace = an.RoutingTrace()
    for layer_seed, layer_id in ((21, 0), (22, 1)):
        cfg = moe.MoEConfig(d_model=8, n_routed=4, n_null=1, n_shared=2,
                            expert_hidden=8, top_p=0.7,
                            routing_mode="sampled", seed=layer_seed)
        layer = moe.DynamicCapacityMoE(cfg)
        for step in range(3):
            tokens = rng.normal(size=(40, cfg.d_model))
            _, decisions, _ = layer.forward_rows(ad.Tensor(tokens), "train",
                                                 key=(cfg.seed, step))
            for t, decision in enumerate(decisions):
                tag = "text" if t % 2 else "image"
                an.record(trace, step, layer_id, t, tag, decision)

    for layer_id in (0, 1):
        for include_shared in (False, True):
            report = an.activation_proportions(trace, layer_id,
                                               include_shared=include_shared)
            assert abs(math.fsum(report.proportions.values()) - 1.0) <= 1e-12
        histogram = an.expert_count_histogram(trace, layer_id)
        assert abs(math.fsum(histogram.values()) - 1.0) <= 1e-12

    first = tmp_path / "trace.csv"
    second = tmp_path / "trace2.csv"
    an.export_trace(trace, first)
    an.export_trace(an.import_trace(first), second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# criterion 10: smoke training halves the loss on every seed
# ---------------------------------------------------------------------------

def test_criterion_10_smoke_training_halves_loss():
    """The 32-dim model (4 routed + 1 null + 2 shared, P=0.7, sampled) cuts
    cross-entropy by at least half within 500 steps on seeds 0-2, under 2 min."""
    t0 = time.monotonic()
    for seed in (0, 1, 2):
        result = hn.train(hn.smoke_train_config(seed))
        assert len(result.losses) == 500
        assert result.losses[0] > 0.0
        assert result.losses[-1] <= 0.5 * result.losses[0]
    assert time.monotonic() - t0 < 120.0
