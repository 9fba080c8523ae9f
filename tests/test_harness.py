import dataclasses
import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import batch_reference
import moe_reference as ref
from fd_reference import finite_diff_grad
from dyncapmoe import analytics as an
from dyncapmoe import autodiff as ad
from dyncapmoe import estimator as est
from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp


def tiny_config(**overrides):
    cfg = hn.gradcheck_default_config()
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


class TestSegmentsJson:
    def test_all_kinds_round_trip(self):
        segs = [rp.TextSegment(4), rp.AudioSegment(6.0), rp.ImageSegment(2, 3),
                rp.VideoSegment(10.0, 1.0, 2, 2, f_l=2, f_u=8)]
        assert hn.segments_from_json(hn.segments_to_json(segs)) == segs

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            hn.segments_from_json([{"kind": "smell", "n_tokens": 3}])

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            hn.segments_from_json([{"kind": "text", "n_tokens": 3, "bogus": 1}])


class TestToyModelConfig:
    def test_json_round_trip(self):
        cfg = hn.smoke_train_config(3)
        assert hn.ToyModelConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        assert hn.ToyModelConfig.from_json_file(path) == cfg

    def test_batch_counts_segment_tokens(self):
        cfg = hn.smoke_train_config()
        assert cfg.batch == 6 + 4  # text(6) + 2x2 image

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(head_dim=7)
        with pytest.raises(ValueError):
            tiny_config(segments=())
        with pytest.raises(ValueError):
            tiny_config(rope=rp.RopeFreqConfig(12))  # mismatched head_dim

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
    @pytest.mark.parametrize("field", ["noise", "learning_rate"])
    def test_rejects_non_finite_or_negative_rates(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})
        d = tiny_config().to_json_dict()
        d[field] = value
        with pytest.raises(ValueError, match=field):
            hn.ToyModelConfig.from_json_dict(d)

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    @pytest.mark.parametrize("field", ["layers", "head_dim", "steps", "n_classes", "theta"])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})
        d = tiny_config().to_json_dict()
        d[field] = value
        with pytest.raises(ValueError, match=field):
            hn.ToyModelConfig.from_json_dict(d)

    @pytest.mark.parametrize("value", [8.5, 8.0, True])
    @pytest.mark.parametrize("field", ["d_model", "n_routed", "expert_hidden",
                                       "n_null", "n_shared", "shared_hidden"])
    def test_rejects_non_integer_moe_counts(self, field, value):
        d = tiny_config().to_json_dict()
        d["moe"][field] = value
        with pytest.raises(ValueError, match=field):
            hn.ToyModelConfig.from_json_dict(d)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, -1])
    @pytest.mark.parametrize("path", [("seed",), ("moe", "seed")])
    def test_rejects_non_integer_or_negative_seeds(self, path, value):
        d = tiny_config().to_json_dict()
        target = d["moe"] if path[0] == "moe" else d
        target["seed"] = value
        with pytest.raises(ValueError, match="seed must be an integer"):
            hn.ToyModelConfig.from_json_dict(d)
        with pytest.raises(ValueError, match="seed must be an integer"):
            if path[0] == "moe":
                dataclasses.replace(tiny_config().moe, seed=value)
            else:
                tiny_config(seed=value)

    def test_numpy_integer_seeds_are_accepted(self):
        cfg = tiny_config(seed=np.int64(3),
                          moe=dataclasses.replace(tiny_config().moe, seed=np.int32(3)))
        assert cfg.seed == 3 and cfg.moe.seed == 3

    @pytest.mark.parametrize("key, value", [("head_dim", 6.0), ("head_dim", True),
                                            ("split", [2.0, 2, 2]), ("split", [2, 2, True]),
                                            ("split", [8, -2, 0])])
    def test_rejects_non_integer_rope_dimensions(self, key, value):
        d = tiny_config().to_json_dict()
        d["rope"][key] = value
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            hn.ToyModelConfig.from_json_dict(d)

    @pytest.mark.parametrize("base", [math.nan, math.inf])
    def test_rejects_non_finite_rope_base(self, base):
        d = tiny_config().to_json_dict()
        d["rope"]["base"] = base
        with pytest.raises(ValueError, match="base"):
            hn.ToyModelConfig.from_json_dict(d)


def per_token_tokens(segments, seed, d_model, n_classes, noise, theta=1):
    """The batch's tokens built one token at a time: each token is its
    planted direction plus its own ``d_model`` noise draw."""
    _, tags = rp.assign_sequence_tagged(list(segments), theta)
    dir_rng = np.random.default_rng([seed, 101])
    directions = {}
    for tag in sorted(set(tags)):
        for c in range(n_classes):
            v = dir_rng.normal(size=d_model)
            directions[(tag, c)] = v / np.linalg.norm(v)
    labels = np.random.default_rng([seed, 202]).integers(0, n_classes, size=len(tags))
    noise_rng = np.random.default_rng([seed, 303])
    return np.stack([directions[(tags[i], int(labels[i]))]
                     + noise * noise_rng.normal(size=d_model)
                     for i in range(len(tags))])


SEGMENTS = st.one_of(
    st.builds(rp.TextSegment, st.integers(1, 8)),
    st.builds(rp.AudioSegment, st.floats(0.1, 7.0)),
    st.builds(rp.ImageSegment, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    st.builds(rp.VideoSegment, st.floats(0.1, 4.0), st.floats(0.1, 4.0),
              st.integers(1, 3), st.integers(1, 3), f_l=st.integers(1, 2),
              f_u=st.integers(2, 4)))


class TestGenerateBatch:
    @settings(max_examples=300, deadline=None)
    @given(segments=st.lists(SEGMENTS, min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), d_model=st.integers(1, 64),
           n_classes=st.integers(2, 6),
           noise=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), theta=st.integers(1, 3))
    def test_equals_the_per_token_reference_bit_for_bit(self, segments, seed, d_model,
                                                        n_classes, noise, theta):
        got = hn.generate_batch(segments, seed, d_model, n_classes, noise, theta)
        want = batch_reference.generate_batch(segments, seed, d_model, n_classes, noise,
                                              theta)
        for name in ("tokens", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), name
            assert a.tobytes() == b.tobytes(), name
        assert got.modality_tags == want.modality_tags
        assert got.position_ids == want.position_ids

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make_config", [hn.smoke_train_config,
                                             hn.gradcheck_default_config,
                                             ref.trainval_config])
    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.7])
    def test_tokens_match_the_per_token_draw_byte_for_byte(self, make_config, seed, noise):
        cfg = make_config(seed)
        batch = hn.generate_batch(cfg.segments, seed, cfg.d_model, cfg.n_classes,
                                  noise, cfg.theta)
        want = per_token_tokens(cfg.segments, seed, cfg.d_model, cfg.n_classes,
                                noise, cfg.theta)
        assert batch.tokens.shape == want.shape
        assert batch.tokens.dtype == want.dtype
        assert batch.tokens.tobytes() == want.tobytes()

    def test_same_seed_identical(self):
        cfg = hn.smoke_train_config()
        a = hn.generate_batch(cfg.segments, 5, cfg.d_model, cfg.n_classes, cfg.noise)
        b = hn.generate_batch(cfg.segments, 5, cfg.d_model, cfg.n_classes, cfg.noise)
        npt.assert_array_equal(a.tokens, b.tokens)
        npt.assert_array_equal(a.labels, b.labels)
        assert a.modality_tags == b.modality_tags
        assert a.position_ids == b.position_ids

    def test_tags_partition_by_segment_counts(self):
        segs = (rp.TextSegment(3), rp.ImageSegment(2, 2), rp.AudioSegment(3.0))
        batch = hn.generate_batch(segs, 0, 8, 3, 0.1)
        assert batch.modality_tags == ("text",) * 3 + ("image",) * 4 + ("audio",) * 20

    def test_position_ids_follow_sequence_assignment(self):
        segs = (rp.TextSegment(2), rp.ImageSegment(2, 2))
        batch = hn.generate_batch(segs, 1, 8, 3, 0.0)
        assert list(batch.position_ids) == rp.assign_sequence(list(segs))

    def test_zero_noise_labels_linearly_recoverable(self):
        segs = (rp.TextSegment(8), rp.ImageSegment(2, 2))
        batch = hn.generate_batch(segs, 2, d_model=8, n_classes=3, noise=0.0)
        # one-hot least squares on the clean tokens must fit exactly
        Y = np.eye(3)[batch.labels]
        W, *_ = np.linalg.lstsq(batch.tokens, Y, rcond=None)
        pred = np.argmax(batch.tokens @ W, axis=1)
        npt.assert_array_equal(pred, batch.labels)

    def test_noise_level_perturbs_tokens_only(self):
        segs = (rp.TextSegment(5),)
        clean = hn.generate_batch(segs, 3, 8, 3, 0.0)
        noisy = hn.generate_batch(segs, 3, 8, 3, 0.2)
        npt.assert_array_equal(clean.labels, noisy.labels)
        assert np.max(np.abs(clean.tokens - noisy.tokens)) > 0


class TestCrossEntropy:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        loss = hn.cross_entropy(ad.Tensor(z), labels)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        naive = -np.mean(np.log(probs[np.arange(5), labels]))
        npt.assert_allclose(float(loss.data), naive, atol=1e-12)

    def test_uniform_logits_give_log_n_classes(self):
        loss = hn.cross_entropy(ad.Tensor(np.zeros((3, 4))), np.array([0, 1, 2]))
        npt.assert_allclose(float(loss.data), np.log(4.0), atol=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self):
        logits = ad.Tensor(np.array([[0.0, 1.0], [2.0, 0.0]]))
        logits.data[1, 0] = np.inf  # as an unchecked op result could hold
        with pytest.raises(ad.NonFiniteError, match="cross_entropy"):
            hn.cross_entropy(logits, np.array([0, 1]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_probe_losses_are_counted_not_listed(self):
        logits = ad.Tensor(np.zeros((5, 2, 2)))  # five probes of two rows
        logits.data[1, 0, 0] = np.nan
        logits.data[3, 1, 1] = np.inf
        with pytest.raises(ad.NonFiniteError, match=re.escape(
                "cross_entropy: 2 of 5 probe losses are not finite, the first is nan")):
            hn.cross_entropy(logits, np.array([0, 1]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=4)

        def f(z):
            return hn.cross_entropy(z, labels)

        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        fd = finite_diff_grad(f, x)
        y = ad.Tensor(x.data, requires_grad=True)
        ad.backward(f(y))
        assert ad.max_rel_err(y.grad, fd) <= 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError):
            hn.cross_entropy(ad.Tensor(np.zeros((3, 4))), np.array([0, 1]))


class TestToyTransformer:
    def test_forward_is_deterministic(self):
        cfg = tiny_config()
        batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model,
                                  cfg.n_classes, cfg.noise)
        l1, d1, _ = hn.ToyTransformer(cfg).forward(batch, mode="train")
        l2, d2, _ = hn.ToyTransformer(cfg).forward(batch, mode="train")
        assert float(l1.data) == float(l2.data)
        assert [[d.active for d in layer] for layer in d1] == \
               [[d.active for d in layer] for layer in d2]

    def test_a_batch_with_a_position_id_too_few_is_refused(self):
        cfg = tiny_config()
        batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model,
                                  cfg.n_classes, cfg.noise)
        short = dataclasses.replace(batch, position_ids=batch.position_ids[:-1])
        with pytest.raises(ad.ShapeError, match=re.escape(
                "attention: expected 2 token rows, got shape (3, 6)")):
            hn.ToyTransformer(cfg).forward(short)

    def test_parameter_blocks_cover_model(self):
        cfg = tiny_config()
        params = hn.ToyTransformer(cfg).parameters()
        per_layer_moe = 1 + 3 * (cfg.moe.n_routed + cfg.moe.n_shared)
        assert len(params) == cfg.layers * (4 + per_layer_moe) + 1
        assert all(t.requires_grad for t in params.values())

    def test_parameters_is_a_new_dict_of_the_same_tensors_in_stage_order(self):
        model = hn.ToyTransformer(tiny_config())
        first, second = model.parameters(), model.parameters()
        assert first is not second and first == second
        stages = [(name, t) for stage in model.stage_parameters() for name, t in stage.items()]
        assert [(name, id(t)) for name, t in stages] == \
            [(name, id(t)) for name, t in first.items()]
        assert first["cls.w"] is model.w_cls
        assert first["layer1.attn.w_q"] is model.attn[1].w_q
        assert first["layer0.moe.router"] is model.blocks[0].router

    def test_editing_the_returned_dict_changes_neither_the_model_nor_training(self):
        cfg = tiny_config(steps=1, learning_rate=0.05)
        model, untouched = hn.ToyTransformer(cfg), hn.ToyTransformer(cfg)
        params = model.parameters()
        params.pop("cls.w")
        params["layer0.moe.router"] = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
        params["extra"] = ad.Tensor(1.0, requires_grad=True)
        assert list(model.parameters()) == list(untouched.parameters())
        assert model.parameters()["layer0.moe.router"] is model.blocks[0].router
        assert hn.train(cfg, model).losses == hn.train(cfg, untouched).losses
        for (name, a), b in zip(model.parameters().items(), untouched.parameters().values()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_frozen_replay_reproduces_infer_when_scales_are_one(self):
        # dense-mixture reduction: no nulls, full support, B forced to 1
        layer = moe.DynamicCapacityMoE(moe.MoEConfig(
            d_model=6, n_routed=3, expert_hidden=4, n_null=0, n_shared=1,
            top_p=1.0, routing_mode="deterministic", seed=4))
        x = ad.Tensor(np.linspace(-0.5, 0.8, 6))
        y_inf, routing, _ = layer.forward_rows(ad.Tensor([x.data]), "infer")
        shape = routing.rank.shape
        forced = dataclasses.replace(routing, bern=np.ones(shape, dtype=bool))
        y_frozen, matches = layer.forward_frozen(x, forced)
        assert matches
        npt.assert_array_equal(y_frozen.data, y_inf.data[0])


class TestTrain:
    def test_zero_learning_rate_flat_loss(self):
        cfg = tiny_config(learning_rate=0.0, steps=6,
                          moe=dataclasses.replace(tiny_config().moe,
                                                  routing_mode="sampled"))
        res = hn.train(cfg)
        assert len(res.losses) == 6
        assert all(v == res.losses[0] for v in res.losses)

    def test_trace_records_every_layer_and_token(self):
        cfg = tiny_config(steps=4, learning_rate=0.01)
        res = hn.train(cfg)
        assert len(res.trace) == 4 * cfg.layers * cfg.batch

    def test_deterministic_across_runs(self):
        cfg = tiny_config(steps=10, learning_rate=0.05)
        a, b = hn.train(cfg), hn.train(cfg)
        assert a.losses == b.losses
        assert a.trace.records() == b.trace.records()

    def test_null_expert_share_logged_every_step(self):
        cfg = tiny_config(steps=5, learning_rate=0.02)
        res = hn.train(cfg)
        null_id = cfg.moe.n_routed  # first null slot
        series = an.dynamics_over_steps(res.trace, layer=0, expert_id=null_id)
        assert len(series) == 5
        assert all(np.isfinite(v) and 0.0 <= v <= 1.0 for _, v in series)

    def test_a_list_rope_split_trains_like_the_tuple_split(self):
        """A list split is stored as a tuple, so the cached cos/sin table can
        key on the config, which equals the tuple-split config."""
        base = dataclasses.replace(hn.smoke_train_config(1), steps=3)
        listed = dataclasses.replace(base, rope=rp.RopeFreqConfig(24, split=[8, 8, 8]))
        tupled = dataclasses.replace(base, rope=rp.RopeFreqConfig(24, split=(8, 8, 8)))
        assert listed == tupled
        a, b = hn.train(listed), hn.train(tupled)
        assert np.array(a.losses).tobytes() == np.array(b.losses).tobytes()

    def test_loss_decreases_on_planted_task(self):
        cfg = dataclasses.replace(hn.smoke_train_config(0), steps=120)
        res = hn.train(cfg)
        assert res.losses[-1] < res.losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step_diagnostic(self):
        cfg = tiny_config(steps=50, learning_rate=1e6)
        with pytest.raises(hn.TrainingDivergedError, match="step"):
            hn.train(cfg)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_non_finite_gradient_stops_the_step_before_any_update(self, monkeypatch,
                                                                   steps):
        cfg = tiny_config(steps=steps, learning_rate=0.05)
        model = hn.ToyTransformer(cfg)
        before = {name: t.data.copy() for name, t in model.parameters().items()}
        real = ad.backward

        def poisoned(loss):
            real(loss)
            model.w_cls.grad[0, 0] = math.inf

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(hn.TrainingDivergedError,
                           match=r"non-finite gradient of cls\.w at step 0$"):
            hn.train(cfg, model)
        for name, t in model.parameters().items():
            assert t.data.tobytes() == before[name].tobytes(), name


class TestFiniteBoundaries:
    """Op results are not scanned; a non-finite value inside a forward
    surfaces at the loss, and in training before any update."""

    @staticmethod
    def overflowing_model(cfg):
        model = hn.ToyTransformer(cfg)
        model.attn[0].w_v.data[0, 0] *= 1e200  # the layer-0 expert FFN overflows
        return model

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("make", [hn.smoke_train_config, hn.gradcheck_default_config])
    def test_overflowing_infer_forward_raises_from_the_loss(self, make):
        cfg = make(0)
        batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                                  cfg.noise, cfg.theta)
        with pytest.raises(ad.NonFiniteError, match="^cross_entropy: loss is nan$"):
            self.overflowing_model(cfg).forward(batch, mode="infer")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_training_diverges_at_step_0(self):
        cfg = dataclasses.replace(hn.smoke_train_config(0), steps=3)
        with pytest.raises(hn.TrainingDivergedError, match="at step 0$"):
            hn.train(cfg, self.overflowing_model(cfg))


class TestGradCheck:
    def test_default_config_passes_all_blocks(self):
        rep = hn.grad_check(hn.gradcheck_default_config(), eps=1e-6, tol=1e-4)
        assert rep.passed
        assert rep.failed_blocks == ()
        for block in rep.blocks:
            assert block.max_rel_err <= 1e-4

    def test_coordinate_accounting_is_complete(self):
        cfg = hn.gradcheck_default_config()
        rep = hn.grad_check(cfg, eps=1e-6, tol=1e-4)
        sizes = {name: t.data.size
                 for name, t in hn.ToyTransformer(cfg).parameters().items()}
        for block in rep.blocks:
            assert block.n_checked + block.n_skipped == sizes[block.name]

    def test_report_holds_only_the_gradient_check(self):
        assert [f.name for f in dataclasses.fields(hn.GradCheckReport)] == \
            ["blocks", "tol", "eps"]
        assert est not in vars(hn).values()  # no harness path reaches the oracles

    def test_report_lines_name_every_block(self):
        rep = hn.grad_check(hn.gradcheck_default_config())
        text = "\n".join(rep.lines())
        assert "router" in text and "cls.w" in text and "unbiasedness" not in text

    @pytest.mark.parametrize("eps,tol", [(0.0, 1e-4), (-1e-6, 1e-4), (math.nan, 1e-4),
                                         (1e-6, 0.0), (1e-6, math.nan), (1e-6, math.inf)])
    def test_eps_and_tol_must_be_finite_and_positive(self, eps, tol):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            hn.grad_check(hn.gradcheck_default_config(), eps=eps, tol=tol)

    def test_nan_error_fails_the_block_and_the_report(self):
        block = hn.BlockReport(name="router", max_rel_err=math.nan, n_checked=3,
                               n_skipped=0)
        rep = hn.GradCheckReport(blocks=(block,), tol=1e-4, eps=1e-6)
        assert rep.failed_blocks == ("router",)
        assert not rep.passed
        assert rep.lines() == ["FAIL router: max rel err nan (3 coords)"]

    def test_failing_tolerance_lists_blocks(self):
        rep = hn.grad_check(hn.gradcheck_default_config(), eps=1e-6, tol=1e-300)
        assert rep.failed_blocks  # impossible tolerance flags offenders by name
        assert not rep.passed
