import math

import numpy as np
import numpy.testing as npt
import pytest

from dyncapmoe import autodiff as ad
from dyncapmoe import rope3d as rp


def rope_oracle(v, pid, cfg):
    """Independent per-pair rotation: explicit loop, scalar trig."""
    out = np.array(v, dtype=np.float64, copy=True)
    offset = 0
    for d_block, pos in zip(cfg.split, pid):
        for i in range(d_block // 2):
            ang = pos * cfg.base ** (-2.0 * i / d_block)
            c, s = math.cos(ang), math.sin(ang)
            a, b = v[offset + 2 * i], v[offset + 2 * i + 1]
            out[offset + 2 * i] = c * a - s * b
            out[offset + 2 * i + 1] = s * a + c * b
        offset += d_block
    return out


class TestAssignText:
    def test_basic_run(self):
        assert rp.assign_text(0, 3) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert rp.assign_text(5, 1) == [(5, 5, 5)]

    def test_concatenation_equals_longer_segment(self):
        joined = rp.assign_text(0, 4) + rp.assign_text(4, 3)
        assert joined == rp.assign_text(0, 7)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rp.assign_text(0, 0)


class TestAssignAudio:
    def test_three_seconds_is_twenty_identical_triples(self):
        ids = rp.assign_audio(7, 3.0)
        assert len(ids) == 20
        assert set(ids) == {(7, 7, 7)}

    def test_six_seconds_theta_one(self):
        ids = rp.assign_audio(2, 6.0, theta=1)
        assert len(ids) == 40
        assert set(ids[:20]) == {(2, 2, 2)} and set(ids[20:]) == {(5, 5, 5)}

    @pytest.mark.parametrize("theta", [1, 2])
    def test_two_minutes_last_unit(self, theta):
        y = 11
        ids = rp.assign_audio(y, 120.0, theta=theta)
        assert len(ids) == 40 * 20
        assert ids[-1] == (y + 117 * theta,) * 3
        assert all(isinstance(c, int) for c in ids[-1])

    def test_consecutive_units_step_by_three_theta(self):
        ids = rp.assign_audio(0, 30.0, theta=2)
        units = ids[::20]
        for a, b in zip(units, units[1:]):
            assert tuple(np.subtract(b, a)) == (6, 6, 6)

    def test_partial_unit_padded_with_mask(self):
        ids = rp.assign_audio(0, 4.0)
        mask = rp.audio_pad_mask(4.0)
        assert len(ids) == 40 and mask.shape == (40,)
        assert int(mask.sum()) == rp.audio_real_token_count(4.0) == 27
        assert rp.audio_real_token_count(3.0) == 20

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            rp.assign_audio(0, 0.0)
        with pytest.raises(ValueError):
            rp.assign_audio(0, -2.5)


class TestAssignImage:
    def test_single_token_image(self):
        order, ids = rp.assign_image(4, 1, 1)
        assert order == [0] and ids == [(4, 4, 4)]

    def test_square_frame_spans_start_to_start_plus_p(self):
        p = 3
        order, ids = rp.assign_image(6, p + 1, p + 1)
        hs = [i.h for i in ids]
        ws = [i.w for i in ids]
        assert min(hs) == min(ws) == 6 and max(hs) == max(ws) == 6 + p
        assert all(i.t == 6 for i in ids)

    def test_patchwise_order_recovers_raster_layout(self):
        rows, cols, start = 4, 6, 3
        order, ids = rp.assign_image(start, rows, cols, patch=2)
        assert sorted(order) == list(range(rows * cols))
        raster = [None] * (rows * cols)
        for pos, pid in zip(order, ids):
            raster[pos] = pid
        expected = [rp.PositionId(start, start + r, start + c)
                    for r in range(rows) for c in range(cols)]
        assert raster == expected

    def test_patch_traversal_groups_tokens(self):
        # 2x2 patches on a 2x4 grid: first four tokens are the left block
        order, _ = rp.assign_image(0, 2, 4, patch=2)
        assert order[:4] == [0, 1, 4, 5]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            rp.assign_image(0, 0, 3)


class TestAssignVideo:
    @pytest.mark.parametrize("theta", [1, 2])
    def test_two_minute_clip_worked_layout(self, theta):
        x, p = 9, 2
        side = p + 1
        ids = rp.assign_video(x, 120.0, 0.5, side, side, f_l=8, f_u=64, theta=theta)
        per_frame = side * side
        assert len(ids) == 60 * per_frame
        assert ids[0] == (x, x, x)
        assert ids[per_frame] == (x + 2 * theta, x, x)       # second frame start
        assert ids[-1] == (x + 118 * theta, x + p, x + p)    # final frame end
        assert all(isinstance(c, int) for pid in ids for c in pid)

    def test_single_frame_reduces_to_image(self):
        ids = rp.assign_video(5, 1.0, 1.0, 3, 4, f_l=1, f_u=1)
        assert ids == rp.assign_image(5, 3, 4)[1]

    def test_frame_count_clamps(self):
        assert rp.frame_count(400.0, 0.5, 8, 64) == 64   # f_s=200 clipped above
        assert rp.frame_count(4.0, 0.5, 8, 64) == 8      # f_s=2 lifted to f_l
        assert rp.frame_count(120.0, 0.5, 8, 64) == 60   # within bounds

    def test_clamped_frames_resample_uniformly(self):
        ids = rp.assign_video(0, 12.0, 10.0, 1, 1, f_l=1, f_u=4, theta=1)
        assert [i.t for i in ids] == [0, 3, 6, 9]

    def test_temporal_ids_nondecreasing(self):
        ids = rp.assign_video(2, 7.3, 1.7, 2, 2, f_l=1, f_u=64)
        ts = [i.t for i in ids]
        assert ts == sorted(ts)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rp.assign_video(0, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            rp.assign_video(0, 5.0, 1.0, 2, 2, f_l=4, f_u=2)


class TestAssignSequence:
    def test_two_text_segments_run_contiguously(self):
        ids = rp.assign_sequence([rp.TextSegment(3), rp.TextSegment(2)])
        assert ids == rp.assign_text(0, 5)

    def test_audio_after_text_starts_at_next_position(self):
        y = 4
        ids, tags = rp.assign_sequence_tagged([rp.TextSegment(y), rp.AudioSegment(6.0)])
        assert ids[y] == (y, y, y)
        assert tags[:y] == ["text"] * y and set(tags[y:]) == {"audio"}

    @pytest.mark.parametrize("theta", [1, 2])
    def test_video_then_audio_alignment(self, theta):
        x, p = 5, 2
        side = p + 1
        segs = [rp.TextSegment(x),
                rp.VideoSegment(120.0, 0.5, side, side, f_l=8, f_u=64),
                rp.AudioSegment(120.0)]
        ids = rp.assign_sequence(segs, theta=theta)
        per_frame = side * side
        video = ids[x:x + 60 * per_frame]
        assert video[0] == (x, x, x)
        assert video[per_frame] == (x + 2 * theta, x, x)
        assert video[-1] == (x + 118 * theta, x + p, x + p)
        y = 1 + max(max(i) for i in ids[:x + 60 * per_frame])
        audio = ids[x + 60 * per_frame:]
        assert audio[0] == (y, y, y)
        assert audio[-1] == (y + 117 * theta,) * 3

    def test_concatenation_is_associative(self):
        segs = [rp.TextSegment(4), rp.ImageSegment(2, 2), rp.AudioSegment(3.0)]
        full = rp.assign_sequence(segs)
        head = rp.assign_sequence(segs[:2])
        start = 1 + max(max(i) for i in head)
        tail = rp.assign_audio(start, 3.0)
        assert full == head + tail

    def test_all_components_non_negative(self):
        segs = [rp.TextSegment(2), rp.VideoSegment(4.0, 1.0, 2, 2, f_l=1, f_u=8),
                rp.AudioSegment(7.0)]
        ids = rp.assign_sequence(segs)
        assert all(c >= 0 for pid in ids for c in pid)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            rp.assign_sequence([])


class TestRopeFreqConfig:
    def test_default_split_near_thirds_remainder_temporal(self):
        assert rp.RopeFreqConfig(64).split == (24, 20, 20)
        assert rp.RopeFreqConfig(6).split == (2, 2, 2)
        assert rp.RopeFreqConfig(8).split == (4, 2, 2)

    def test_rejects_odd_dimensions(self):
        with pytest.raises(ValueError):
            rp.RopeFreqConfig(7)
        with pytest.raises(ValueError):
            rp.RopeFreqConfig(8, split=(3, 3, 2))
        with pytest.raises(ValueError):
            rp.RopeFreqConfig(8, split=(4, 4, 4))


class TestApplyRope3d:
    def cfg(self, head_dim=12):
        return rp.RopeFreqConfig(head_dim)

    def test_zero_id_is_identity(self):
        v = ad.Tensor(np.linspace(-1, 1, 12))
        out = rp.apply_rope3d(v, rp.PositionId(0, 0, 0), self.cfg())
        npt.assert_array_equal(out.data, v.data)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        cfg = self.cfg()
        for _ in range(25):
            v = rng.normal(size=12)
            pid = rp.PositionId(*rng.integers(0, 50, size=3))
            out = rp.apply_rope3d(ad.Tensor(v), pid, cfg)
            npt.assert_allclose(out.data, rope_oracle(v, pid, cfg), atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        cfg = self.cfg()
        for _ in range(50):
            v = rng.normal(size=12)
            pid = rp.PositionId(*rng.integers(0, 200, size=3))
            out = rp.apply_rope3d(ad.Tensor(v), pid, cfg)
            assert abs(np.linalg.norm(out.data) - np.linalg.norm(v)) <= 1e-12

    def test_score_shift_invariance_joint_and_per_component(self):
        rng = np.random.default_rng(5)
        cfg = self.cfg()
        for _ in range(100):
            q, k = rng.normal(size=12), rng.normal(size=12)
            m = rng.integers(0, 40, size=3)
            n = rng.integers(0, 40, size=3)
            s = rng.integers(0, 40, size=3)
            base = rope_dot(q, k, m, n, cfg)
            for shift in (s, (s[0], 0, 0), (0, s[1], 0), (0, 0, s[2])):
                shifted = rope_dot(q, k, m + np.array(shift), n + np.array(shift), cfg)
                assert abs(base - shifted) <= 1e-9

    def test_backward_is_inverse_rotation(self):
        rng = np.random.default_rng(6)
        cfg = self.cfg()
        v = ad.Tensor(rng.normal(size=12), requires_grad=True)
        u = rng.normal(size=12)
        pid = rp.PositionId(7, 3, 9)
        ad.backward(ad.sum(ad.mul(rp.apply_rope3d(v, pid, cfg), ad.Tensor(u))))
        # J^T u equals the rotation by negated angles applied to u
        neg = rope_oracle(u, rp.PositionId(-7, -3, -9), cfg)
        npt.assert_allclose(v.grad, neg, atol=1e-12)
        assert abs(np.linalg.norm(v.grad) - np.linalg.norm(u)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        cfg = self.cfg()
        u = rng.normal(size=12)
        pid = rp.PositionId(11, 2, 5)

        def f(v):
            return ad.sum(ad.mul(rp.apply_rope3d(v, pid, cfg), ad.Tensor(u)))

        x = ad.Tensor(rng.normal(size=12), requires_grad=True)
        ad.backward(f(ad.Tensor(x.data, requires_grad=True)))  # warm path sanity
        fd = ad.finite_diff_grad(f, x)
        y = ad.Tensor(x.data, requires_grad=True)
        ad.backward(f(y))
        assert ad.max_rel_err(y.grad, fd) <= 1e-6

    def test_pure_temporal_split_matches_1d_rope(self):
        cfg = rp.RopeFreqConfig(8, split=(8, 0, 0))
        rng = np.random.default_rng(8)
        v = rng.normal(size=8)
        for m in (0, 1, 13):
            pid = rp.PositionId(m, m, m)
            out = rp.apply_rope3d(ad.Tensor(v), pid, cfg)
            oracle = np.empty(8)
            for i in range(4):
                ang = m * 10000.0 ** (-2.0 * i / 8)
                c, s = math.cos(ang), math.sin(ang)
                oracle[2 * i] = c * v[2 * i] - s * v[2 * i + 1]
                oracle[2 * i + 1] = s * v[2 * i] + c * v[2 * i + 1]
            npt.assert_allclose(out.data, oracle, atol=1e-12)

    def test_rows_variant_matches_per_row_application(self):
        rng = np.random.default_rng(9)
        cfg = self.cfg()
        mat = rng.normal(size=(5, 12))
        pids = [rp.PositionId(*rng.integers(0, 30, size=3)) for _ in range(5)]
        out = rp.apply_rope3d_rows(ad.Tensor(mat), pids, cfg)
        for i, pid in enumerate(pids):
            single = rp.apply_rope3d(ad.Tensor(mat[i]), pid, cfg)
            npt.assert_array_equal(out.data[i], single.data)

    def test_rows_variant_backward(self):
        rng = np.random.default_rng(10)
        cfg = self.cfg()
        pids = [rp.PositionId(*rng.integers(0, 30, size=3)) for _ in range(4)]
        u = rng.normal(size=(4, 12))

        def f(m):
            return ad.sum(ad.mul(rp.apply_rope3d_rows(m, pids, cfg), ad.Tensor(u)))

        x = ad.Tensor(rng.normal(size=(4, 12)), requires_grad=True)
        fd = ad.finite_diff_grad(f, x)
        y = ad.Tensor(x.data, requires_grad=True)
        ad.backward(f(y))
        assert ad.max_rel_err(y.grad, fd) <= 1e-6

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError):
            rp.apply_rope3d(ad.Tensor(np.zeros(10)), rp.PositionId(0, 0, 0), self.cfg())

    @pytest.mark.parametrize("segment", [
        rp.TextSegment(7), rp.AudioSegment(7.5), rp.ImageSegment(3, 5),
        rp.VideoSegment(9.0, 1.0, 2, 3, f_l=2, f_u=6),
    ], ids=lambda seg: seg.modality)
    @pytest.mark.parametrize("cfg", [
        rp.RopeFreqConfig(24), rp.RopeFreqConfig(6), rp.RopeFreqConfig(8, split=(8, 0, 0)),
        rp.RopeFreqConfig(10, split=(2, 0, 8), base=500.0),
    ], ids=lambda cfg: f"{cfg.head_dim}-{'-'.join(map(str, cfg.split))}")
    def test_angle_table_equals_per_position_loop(self, segment, cfg):
        """The vectorized table is bit-identical to building each row alone."""
        pids = rp.assign_sequence([rp.TextSegment(3), segment], theta=2)

        def row_loop(pid):
            parts = []
            for d_block, pos in zip(cfg.split, (pid.t, pid.h, pid.w)):
                if d_block == 0:
                    continue
                i = np.arange(d_block // 2, dtype=np.float64)
                parts.append(float(pos) * cfg.base ** (-2.0 * i / d_block))
            return np.concatenate(parts)

        npt.assert_array_equal(cfg.pair_angles_rows(pids),
                               np.stack([row_loop(p) for p in pids]))


def rope_dot(q, k, m, n, cfg):
    qm = rope_oracle(q, rp.PositionId(*(int(v) for v in m)), cfg)
    kn = rope_oracle(k, rp.PositionId(*(int(v) for v in n)), cfg)
    return float(qm @ kn)
