import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import batch_reference
from fd_reference import finite_diff_grad
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn
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
        assert rp.TextSegment(3).positions(0, 1) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert rp.TextSegment(1).positions(5, 1) == [(5, 5, 5)]

    def test_concatenation_equals_longer_segment(self):
        joined = rp.TextSegment(4).positions(0, 1) + rp.TextSegment(3).positions(4, 1)
        assert joined == rp.TextSegment(7).positions(0, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rp.TextSegment(0)


class TestAssignAudio:
    def test_three_seconds_is_twenty_identical_triples(self):
        ids = rp.AudioSegment(3.0).positions(7, 1)
        assert len(ids) == 20
        assert set(ids) == {(7, 7, 7)}

    def test_six_seconds_theta_one(self):
        ids = rp.AudioSegment(6.0).positions(2, 1)
        assert len(ids) == 40
        assert set(ids[:20]) == {(2, 2, 2)} and set(ids[20:]) == {(5, 5, 5)}

    @pytest.mark.parametrize("theta", [1, 2])
    def test_two_minutes_last_unit(self, theta):
        y = 11
        ids = rp.AudioSegment(120.0).positions(y, theta)
        assert len(ids) == 40 * 20
        assert ids[-1] == (y + 117 * theta,) * 3
        assert all(isinstance(c, int) for c in ids[-1])

    def test_consecutive_units_step_by_three_theta(self):
        ids = rp.AudioSegment(30.0).positions(0, 2)
        units = ids[::20]
        for a, b in zip(units, units[1:]):
            assert tuple(np.subtract(b, a)) == (6, 6, 6)

    def test_partial_unit_padded_with_mask(self):
        seg = rp.AudioSegment(4.0)
        ids = seg.positions(0, 1)
        mask = seg.pad_mask
        assert len(ids) == 40 and mask.shape == (40,)
        assert int(mask.sum()) == seg.real_token_count == 27
        assert rp.AudioSegment(3.0).real_token_count == 20

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            rp.AudioSegment(0.0)
        with pytest.raises(ValueError):
            rp.AudioSegment(-2.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_duration(self, value):
        with pytest.raises(ValueError, match="duration_s"):
            rp.AudioSegment(value)


class TestAssignImage:
    def test_single_token_image(self):
        ids = rp.ImageSegment(1, 1).positions(4, 1)
        order = [(i.h - 4) * 1 + (i.w - 4) for i in ids]
        assert order == [0] and ids == [(4, 4, 4)]

    def test_square_frame_spans_start_to_start_plus_p(self):
        p = 3
        ids = rp.ImageSegment(p + 1, p + 1).positions(6, 1)
        hs = [i.h for i in ids]
        ws = [i.w for i in ids]
        assert min(hs) == min(ws) == 6 and max(hs) == max(ws) == 6 + p
        assert all(i.t == 6 for i in ids)

    def test_patchwise_order_recovers_raster_layout(self):
        rows, cols, start = 4, 6, 3
        ids = rp.ImageSegment(rows, cols, patch=2).positions(start, 1)
        order = [(i.h - start) * cols + (i.w - start) for i in ids]
        assert sorted(order) == list(range(rows * cols))
        raster = [None] * (rows * cols)
        for pos, pid in zip(order, ids):
            raster[pos] = pid
        expected = [rp.PositionId(start, start + r, start + c)
                    for r in range(rows) for c in range(cols)]
        assert raster == expected

    def test_patch_traversal_groups_tokens(self):
        # 2x2 patches on a 2x4 grid: first four tokens are the left block
        ids = rp.ImageSegment(2, 4, patch=2).positions(0, 1)
        order = [i.h * 4 + i.w for i in ids]
        assert order[:4] == [0, 1, 4, 5]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            rp.ImageSegment(0, 3)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 16), cols=st.integers(1, 16), patch=st.integers(1, 16),
           t=st.integers(0, 10**6), start=st.integers(0, 10**6))
    def test_frame_equals_the_four_loop_patch_order(self, rows, cols, patch, t, start):
        ids = rp._frame(t, start, rows, cols, patch)
        assert ids == batch_reference.frame(t, start, rows, cols, patch)
        assert all(type(pid) is rp.PositionId for pid in ids)


class TestAssignVideo:
    @pytest.mark.parametrize("theta", [1, 2])
    def test_two_minute_clip_worked_layout(self, theta):
        x, p = 9, 2
        side = p + 1
        ids = rp.VideoSegment(120.0, 0.5, side, side, f_l=8, f_u=64).positions(x, theta)
        per_frame = side * side
        assert len(ids) == 60 * per_frame
        assert ids[0] == (x, x, x)
        assert ids[per_frame] == (x + 2 * theta, x, x)       # second frame start
        assert ids[-1] == (x + 118 * theta, x + p, x + p)    # final frame end
        assert all(isinstance(c, int) for pid in ids for c in pid)

    def test_single_frame_reduces_to_image(self):
        ids = rp.VideoSegment(1.0, 1.0, 3, 4, f_l=1, f_u=1).positions(5, 1)
        assert ids == rp.ImageSegment(3, 4).positions(5, 1)

    def test_frame_count_clamps(self):
        def frame_count(duration_s, fps, f_l, f_u):
            return rp.VideoSegment(duration_s, fps, 1, 1, f_l=f_l, f_u=f_u).frame_count

        assert frame_count(400.0, 0.5, 8, 64) == 64   # f_s=200 clipped above
        assert frame_count(4.0, 0.5, 8, 64) == 8      # f_s=2 lifted to f_l
        assert frame_count(120.0, 0.5, 8, 64) == 60   # within bounds
        assert frame_count(1e200, 1e200, 8, 64) == 64  # f_s overflows to inf

    def test_clamped_frames_resample_uniformly(self):
        ids = rp.VideoSegment(12.0, 10.0, 1, 1, f_l=1, f_u=4).positions(0, 1)
        assert [i.t for i in ids] == [0, 3, 6, 9]

    def test_temporal_ids_nondecreasing(self):
        ids = rp.VideoSegment(7.3, 1.7, 2, 2, f_l=1, f_u=64).positions(2, 1)
        ts = [i.t for i in ids]
        assert ts == sorted(ts)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rp.VideoSegment(0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            rp.VideoSegment(5.0, 1.0, 2, 2, f_l=4, f_u=2)

    @pytest.mark.parametrize("duration_s,theta,frame,frames", [
        (1e308, 1, 2, 4), (1e300, 10**9, 1, 4), (1.0, 10**400, 0, 1)])
    def test_a_frame_time_that_overflows_is_refused_naming_duration_and_theta(
            self, duration_s, theta, frame, frames):
        segment = rp.VideoSegment(duration_s, 1.0, 1, 1, f_l=1, f_u=4)
        with pytest.raises(ValueError, match=re.escape(
                f"video frame {frame} of {frames} has no finite time: "
                f"duration_s {duration_s!r} and theta {theta} overflow")):
            segment.positions(0, theta)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_duration_and_fps(self, value):
        for field, times in (("duration_s", (value, 1.0)), ("fps", (5.0, value))):
            with pytest.raises(ValueError, match=field):
                rp.VideoSegment(*times, 2, 2)


SEGMENTS = [rp.TextSegment(3), rp.AudioSegment(4.0), rp.ImageSegment(2, 3),
            rp.VideoSegment(4.0, 1.0, 2, 2, f_l=1, f_u=8)]

COUNT_FIELDS = [
    pytest.param("n_tokens", lambda v: rp.TextSegment(v), id="text-n_tokens"),
    pytest.param("rows", lambda v: rp.ImageSegment(v, 2), id="image-rows"),
    pytest.param("cols", lambda v: rp.ImageSegment(2, v), id="image-cols"),
    pytest.param("patch", lambda v: rp.ImageSegment(2, 2, patch=v), id="image-patch"),
    pytest.param("rows", lambda v: rp.VideoSegment(4.0, 1.0, v, 2), id="video-rows"),
    pytest.param("cols", lambda v: rp.VideoSegment(4.0, 1.0, 2, v), id="video-cols"),
    pytest.param("patch", lambda v: rp.VideoSegment(4.0, 1.0, 2, 2, patch=v),
                 id="video-patch"),
    pytest.param("f_l", lambda v: rp.VideoSegment(4.0, 1.0, 2, 2, f_l=v), id="video-f_l"),
    pytest.param("f_u", lambda v: rp.VideoSegment(4.0, 1.0, 2, 2, f_u=v), id="video-f_u"),
]


class TestSegmentChecks:
    @pytest.mark.parametrize("value", [8.5, 8.0, True, 0])  # f_u=0 is below f_l=8
    @pytest.mark.parametrize("field,make", COUNT_FIELDS)
    def test_counts_must_be_integers_in_range(self, field, make, value):
        with pytest.raises(ValueError, match=field):
            make(value)

    @pytest.mark.parametrize("field,make", COUNT_FIELDS)
    def test_numpy_integer_counts_equal_ints(self, field, make):
        ids = make(np.int64(8)).positions(np.int64(4), np.int64(2))
        assert ids == make(8).positions(4, 2)
        assert all(type(c) is int for pid in ids for c in pid)

    @pytest.mark.parametrize("start,theta,field", [
        (-1, 1, "start"), (1.5, 1, "start"), (True, 1, "start"),
        (0, 1.5, "theta"), (0, 0, "theta"), (0, 2.0, "theta"), (0, True, "theta"),
    ])
    @pytest.mark.parametrize("segment", SEGMENTS, ids=lambda seg: seg.modality)
    def test_positions_rejects_bad_start_and_theta(self, segment, start, theta, field):
        with pytest.raises(ValueError, match=field):
            segment.positions(start, theta)

    @pytest.mark.parametrize("fits,most,over,count", [
        (lambda: rp.TextSegment(2**20), 2**20, lambda: rp.TextSegment(2**20 + 1), 2**20 + 1),
        # 20 IDs per 3 s unit: 52,428 units fit, 52,429 do not
        (lambda: rp.AudioSegment(3.0 * 52428), 1048560,
         lambda: rp.AudioSegment(3.0 * 52428 + 0.1), 1048580),
        (lambda: rp.ImageSegment(1024, 1024), 2**20,
         lambda: rp.ImageSegment(17, 61681), 2**20 + 1),
        (lambda: rp.VideoSegment(16.0, 1.0, 1, 65536, f_l=1, f_u=16), 2**20,
         lambda: rp.VideoSegment(17.0, 1.0, 1, 61681, f_l=1, f_u=17), 2**20 + 1)],
        ids=["text", "audio", "image", "video"])
    def test_a_segment_over_max_positions_is_refused_when_built(self, monkeypatch, fits,
                                                                 most, over, count):
        """The most IDs of a kind that fit are built, and the next count up
        is refused, naming the kind and the count; no ID is made."""
        def refuse(*args):
            raise AssertionError("an ID was made")

        monkeypatch.setattr(rp, "PositionId", refuse)
        assert rp.MAX_POSITIONS == 2**20
        segment = fits()
        assert segment.n_positions == most
        with pytest.raises(ValueError) as refused:
            over()
        assert str(refused.value) == (f"{segment.modality} segment would emit {count} "
                                      f"position IDs, more than MAX_POSITIONS = 1048576")

    @pytest.mark.parametrize("make", [
        lambda n: rp.ImageSegment(n, n), lambda n: rp.VideoSegment(1.0, 1.0, n, n, f_l=1)],
        ids=["image", "video"])
    def test_numpy_integer_fields_count_without_wrapping(self, make):
        """2**32 rows of 2**32 columns are 2**64 IDs, which an int64
        product would wrap to 0."""
        with pytest.raises(ValueError, match=f"would emit {2**64} position IDs"):
            make(np.int64(2**32))

    @settings(max_examples=200, deadline=None)
    @given(segment=st.one_of(
        st.builds(rp.TextSegment, st.integers(1, 50)),
        st.builds(rp.AudioSegment, st.floats(0.01, 40.0)),
        st.builds(rp.ImageSegment, st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)),
        st.builds(rp.VideoSegment, st.floats(0.01, 20.0), st.floats(0.01, 4.0),
                  st.integers(1, 4), st.integers(1, 4), f_l=st.integers(1, 3),
                  f_u=st.integers(3, 12))),
        start=st.integers(0, 50), theta=st.integers(1, 4))
    def test_n_positions_counts_the_ids_the_segment_emits(self, segment, start, theta):
        assert segment.n_positions == len(segment.positions(start, theta))


class TestAssignSequence:
    @pytest.mark.parametrize("theta", [2.0, True, 0, 1.5])
    def test_theta_must_be_an_integer_of_at_least_one(self, theta):
        with pytest.raises(ValueError, match="theta must be an integer >= 1"):
            rp.assign_sequence_tagged([rp.AudioSegment(6.0)], theta)

    def test_two_text_segments_run_contiguously(self):
        ids = rp.assign_sequence([rp.TextSegment(3), rp.TextSegment(2)])
        assert ids == rp.TextSegment(5).positions(0, 1)

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
        tail = rp.AudioSegment(3.0).positions(start, 1)
        assert full == head + tail

    def test_all_components_non_negative(self):
        segs = [rp.TextSegment(2), rp.VideoSegment(4.0, 1.0, 2, 2, f_l=1, f_u=8),
                rp.AudioSegment(7.0)]
        ids = rp.assign_sequence(segs)
        assert all(c >= 0 for pid in ids for c in pid)

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            rp.assign_sequence([])

    @settings(max_examples=200, deadline=None)
    @given(segments=st.lists(st.one_of(
        st.builds(rp.TextSegment, st.integers(1, 6)),
        st.builds(rp.AudioSegment, st.sampled_from((0.5, 3.0, 4.5, 9.0))),
        st.builds(rp.ImageSegment, st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
        st.builds(rp.VideoSegment, st.sampled_from((1.0, 2.5, 6.0)), st.sampled_from((0.5, 2.0)),
                  st.integers(1, 2), st.integers(1, 2), f_l=st.integers(1, 3),
                  f_u=st.just(4))), min_size=1, max_size=6),
        theta=st.integers(1, 3))
    def test_running_start_gives_the_ids_and_tags_of_the_rescan(self, segments, theta):
        assert rp.assign_sequence_tagged(segments, theta) == \
            batch_reference.assign_sequence_tagged(segments, theta)


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

    @pytest.mark.parametrize("kwargs, field", [
        ({"head_dim": 6.0}, "head_dim"), ({"head_dim": True}, "head_dim"),
        ({"head_dim": np.float64(8)}, "head_dim"), ({"head_dim": 0}, "head_dim"),
        ({"head_dim": 8, "split": (4.0, 2, 2)}, "split"),
        ({"head_dim": 8, "split": (8, 0, False)}, "split"),
        ({"head_dim": 8, "split": (10, -2, 0)}, "split"),
    ])
    def test_dimensions_must_be_integers_in_range(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            rp.RopeFreqConfig(**kwargs)

    def test_numpy_integer_dimensions_equal_ints(self):
        cfg = rp.RopeFreqConfig(np.int64(8), split=(np.int32(4), 2, 2))
        assert cfg == rp.RopeFreqConfig(8, split=(4, 2, 2))

    @pytest.mark.parametrize("split", [[4, 2, 2], np.array([4, 2, 2]), (np.int64(4), 2, 2)])
    def test_split_is_stored_as_a_tuple_of_ints(self, split):
        cfg = rp.RopeFreqConfig(8, split=split)
        assert cfg.split == (4, 2, 2)
        assert all(type(d) is int for d in cfg.split)
        assert cfg == rp.RopeFreqConfig(8, split=(4, 2, 2))
        assert hash(cfg) == hash(rp.RopeFreqConfig(8, split=(4, 2, 2)))

    @pytest.mark.parametrize("split", [8, 8.0, [4, 4]])
    def test_split_must_be_three_blocks(self, split):
        with pytest.raises(ValueError, match="split must be three blocks"):
            rp.RopeFreqConfig(8, split=split)

    @pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    def test_base_must_be_finite_and_positive(self, base):
        with pytest.raises(ValueError, match="base"):
            rp.RopeFreqConfig(24, base=base)


class TestApplyRope3d:
    def cfg(self, head_dim=12):
        return rp.RopeFreqConfig(head_dim)

    @pytest.mark.parametrize("shape", [(2, 12), (4, 12), (3, 10), (36,), (1, 3, 12)])
    def test_rows_refuse_any_shape_but_one_row_per_position(self, shape):
        pids = [rp.PositionId(j, j, j) for j in range(3)]
        with pytest.raises(ad.ShapeError, match=r"expected shape \(3, 12\), got"):
            rp.apply_rope3d_rows(ad.Tensor(np.ones(shape)), pids, self.cfg())

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
        fd = finite_diff_grad(f, x)
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
        fd = finite_diff_grad(f, x)
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


class TestRopeTable:
    """One read-only cos/sin table per (position sequence, config)."""

    @staticmethod
    def smoke():
        cfg = hn.smoke_train_config(0)
        batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                                  cfg.noise, cfg.theta)
        return cfg, hn.ToyTransformer(cfg), batch

    def test_two_forwards_build_one_table(self, monkeypatch):
        _, model, batch = self.smoke()
        real, calls = rp.RopeFreqConfig.pair_angles_rows, 0

        def counting(cfg, pids):
            nonlocal calls
            calls += 1
            return real(cfg, pids)

        monkeypatch.setattr(rp.RopeFreqConfig, "pair_angles_rows", counting)
        rp._rope_table.cache_clear()
        for _ in range(2):
            model.forward(batch, mode="infer")
        assert calls == 1

    def test_cached_table_is_read_only(self):
        cfg, _, batch = self.smoke()
        for table in rp._rope_table(batch.position_ids, cfg.rope):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_rotation_equals_one_by_freshly_computed_angles(self):
        cfg, _, batch = self.smoke()
        mat = np.random.default_rng(11).normal(size=(cfg.batch, cfg.head_dim))
        angles = cfg.rope.pair_angles_rows(batch.position_ids)
        cos, sin = np.cos(angles), np.sin(angles)
        fresh = np.empty_like(mat)
        fresh[:, 0::2] = cos * mat[:, 0::2] - sin * mat[:, 1::2]
        fresh[:, 1::2] = sin * mat[:, 0::2] + cos * mat[:, 1::2]
        for _ in range(2):  # built, then cached
            out = rp.apply_rope3d_rows(ad.Tensor(mat), batch.position_ids, cfg.rope)
            assert out.data.tobytes() == fresh.tobytes()


def rope_dot(q, k, m, n, cfg):
    qm = rope_oracle(q, rp.PositionId(*(int(v) for v in m)), cfg)
    kn = rope_oracle(k, rp.PositionId(*(int(v) for v in n)), cfg)
    return float(qm @ kn)
