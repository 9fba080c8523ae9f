"""Omni-modality 3D rotary position embedding.

Every token carries a position triple ``(t, h, w)``.  Text advances all
three components together, so a text-only sequence is indistinguishable from
ordinary 1D RoPE.  Audio advances only along absolute time: a 3-second unit
of 20 tokens shares one triple, and consecutive units step by ``3 * theta``.
Vision tokens pin ``t`` to the frame's absolute time while ``h``/``w`` track
the token's spatial cell; every video frame restarts its spatial offsets at
the segment origin, so temporal distance is carried by ``t`` alone.

``theta`` converts seconds into position units (default 1, integer, so IDs
stay integral).  Segments concatenate with the start rule "1 + the maximum
component value of everything before".

The rotary application splits ``head_dim`` into three even blocks (defaults
to near-equal thirds, remainder to the temporal block) and rotates
interleaved coordinate pairs within each block by ``component * base**(-2i/d_block)``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad

__all__ = [
    "AUDIO_TOKENS_PER_UNIT",
    "AUDIO_UNIT_SECONDS",
    "PositionId",
    "TextSegment",
    "AudioSegment",
    "ImageSegment",
    "VideoSegment",
    "RopeFreqConfig",
    "frame_count",
    "assign_text",
    "assign_audio",
    "audio_real_token_count",
    "audio_pad_mask",
    "assign_image",
    "assign_video",
    "assign_sequence",
    "assign_sequence_tagged",
    "apply_rope3d",
    "apply_rope3d_rows",
]

AUDIO_TOKENS_PER_UNIT = 20   # one minimum temporal unit of audio
AUDIO_UNIT_SECONDS = 3.0     # spans three seconds of signal


class PositionId(NamedTuple):
    t: int
    h: int
    w: int


# ---------------------------------------------------------------------------
# modality segments
# ---------------------------------------------------------------------------

def _check_time(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclasses.dataclass(frozen=True)
class TextSegment:
    n_tokens: int
    modality = "text"

    def __post_init__(self):
        if self.n_tokens < 1:
            raise ValueError("text segment needs at least one token")


@dataclasses.dataclass(frozen=True)
class AudioSegment:
    duration_s: float
    modality = "audio"

    def __post_init__(self):
        _check_time(self.duration_s, "duration_s")


@dataclasses.dataclass(frozen=True)
class ImageSegment:
    rows: int
    cols: int
    patch: int = 2
    modality = "image"

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("image grid must be at least 1x1")
        if self.patch < 1:
            raise ValueError("patch side must be positive")


@dataclasses.dataclass(frozen=True)
class VideoSegment:
    duration_s: float
    fps: float
    rows: int
    cols: int
    f_l: int = 8
    f_u: int = 64
    patch: int = 2
    modality = "video"

    def __post_init__(self):
        _check_time(self.duration_s, "duration_s")
        _check_time(self.fps, "fps")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("frame grid must be at least 1x1")
        if self.f_l < 1 or self.f_u < self.f_l:
            raise ValueError("frame clamp needs 1 <= f_l <= f_u")
        if self.patch < 1:
            raise ValueError("patch side must be positive")


Segment = TextSegment | AudioSegment | ImageSegment | VideoSegment


def frame_count(duration_s: float, fps: float, f_l: int, f_u: int) -> int:
    """Sampled frames f_s = duration*fps, clamped to [f_l, f_u]."""
    if f_l < 1 or f_u < f_l:
        raise ValueError("frame clamp needs 1 <= f_l <= f_u")
    f_s = max(1, int(round(min(duration_s * fps, f_u))))  # clamp first: the product may be inf
    return max(f_s, f_l)


# ---------------------------------------------------------------------------
# position assignment
# ---------------------------------------------------------------------------

def _check_start(start: int) -> int:
    if start < 0:
        raise ValueError("segment start must be non-negative")
    return int(start)


def _check_theta(theta) -> int:
    if theta <= 0 or int(theta) != theta:
        raise ValueError("theta must be a positive integer")
    return int(theta)


def assign_text(start: int, n: int) -> list[PositionId]:
    """Token j gets (start+j, start+j, start+j) — plain 1D positions."""
    start = _check_start(start)
    if n < 1:
        raise ValueError("text segment needs at least one token")
    return [PositionId(start + j, start + j, start + j) for j in range(n)]


def _audio_units(duration_s: float) -> int:
    _check_time(duration_s, "duration_s")
    return int(math.ceil(duration_s / AUDIO_UNIT_SECONDS))


def assign_audio(start: int, duration_s: float, theta: int = 1) -> list[PositionId]:
    """Unit u emits (start + 3*u*theta,) * 3 repeated 20 times.

    A trailing partial unit is padded up to the full 20 tokens; use
    :func:`audio_pad_mask` to tell real tokens from padding.
    """
    start = _check_start(start)
    theta = _check_theta(theta)
    ids = []
    for u in range(_audio_units(duration_s)):
        tick = start + 3 * u * theta
        ids.extend([PositionId(tick, tick, tick)] * AUDIO_TOKENS_PER_UNIT)
    return ids


def audio_real_token_count(duration_s: float) -> int:
    """Tokens carrying signal: 20 per 3 s, partial units pro-rated upward."""
    _check_time(duration_s, "duration_s")
    return int(math.ceil(duration_s * AUDIO_TOKENS_PER_UNIT / AUDIO_UNIT_SECONDS))


def audio_pad_mask(duration_s: float) -> np.ndarray:
    """Boolean mask over the emitted tokens; True marks real (non-pad) slots."""
    total = _audio_units(duration_s) * AUDIO_TOKENS_PER_UNIT
    mask = np.zeros(total, dtype=bool)
    mask[:audio_real_token_count(duration_s)] = True
    return mask


def _patchwise_order(rows: int, cols: int, patch: int) -> list[tuple[int, int]]:
    """(row, col) cells, all tokens of one patch before the next patch."""
    cells = []
    for br in range(0, rows, patch):
        for bc in range(0, cols, patch):
            for r in range(br, min(br + patch, rows)):
                for c in range(bc, min(bc + patch, cols)):
                    cells.append((r, c))
    return cells


def _frame_ids(start: int, t: int, rows: int, cols: int,
               patch: int) -> tuple[list[int], list[PositionId]]:
    order, ids = [], []
    for r, c in _patchwise_order(rows, cols, patch):
        order.append(r * cols + c)
        ids.append(PositionId(t, start + r, start + c))
    return order, ids


def assign_image(start: int, rows: int, cols: int,
                 patch: int = 2) -> tuple[list[int], list[PositionId]]:
    """IDs (start, start+row, start+col); emission order is patch-wise.

    Returns (order, ids): ``order[i]`` is the raster index of the i-th
    emitted token, so IDs depend on spatial location only, never on order.
    """
    start = _check_start(start)
    if rows < 1 or cols < 1:
        raise ValueError("image grid must be at least 1x1")
    if patch < 1:
        raise ValueError("patch side must be positive")
    return _frame_ids(start, start, rows, cols, patch)


def assign_video(start: int, duration_s: float, fps: float, rows: int, cols: int,
                 f_l: int = 8, f_u: int = 64, theta: int = 1,
                 patch: int = 2) -> list[PositionId]:
    """Frames sampled uniformly over the clip, each pinned to absolute time.

    Frame j sits at tau_j = j * duration / f_n seconds and gets
    t = start + round(tau_j * theta); its h/w offsets restart at ``start``
    every frame, exactly like a still image.
    """
    start = _check_start(start)
    theta = _check_theta(theta)
    _check_time(duration_s, "duration_s")
    _check_time(fps, "fps")
    f_n = frame_count(duration_s, fps, f_l, f_u)
    ids = []
    for j in range(f_n):
        tau = j * duration_s / f_n
        t = start + int(round(tau * theta))
        ids.extend(_frame_ids(start, t, rows, cols, patch)[1])
    return ids


def _assign_segment(seg: Segment, start: int, theta: int) -> list[PositionId]:
    if isinstance(seg, TextSegment):
        return assign_text(start, seg.n_tokens)
    if isinstance(seg, AudioSegment):
        return assign_audio(start, seg.duration_s, theta)
    if isinstance(seg, ImageSegment):
        return assign_image(start, seg.rows, seg.cols, seg.patch)[1]
    if isinstance(seg, VideoSegment):
        return assign_video(start, seg.duration_s, seg.fps, seg.rows, seg.cols,
                            seg.f_l, seg.f_u, theta, seg.patch)
    raise TypeError(f"unknown segment type {type(seg).__name__}")


def assign_sequence_tagged(segments: Sequence[Segment],
                           theta: int = 1) -> tuple[list[PositionId], list[str]]:
    """Concatenate segments; each starts at 1 + max component seen so far."""
    if not segments:
        raise ValueError("segment list must be non-empty")
    theta = _check_theta(theta)
    ids: list[PositionId] = []
    tags: list[str] = []
    start = 0
    for seg in segments:
        seg_ids = _assign_segment(seg, start, theta)
        ids.extend(seg_ids)
        tags.extend([seg.modality] * len(seg_ids))
        start = 1 + max(max(i) for i in ids)
    return ids, tags


def assign_sequence(segments: Sequence[Segment], theta: int = 1) -> list[PositionId]:
    return assign_sequence_tagged(segments, theta)[0]


# ---------------------------------------------------------------------------
# rotary application
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RopeFreqConfig:
    """Even split of head_dim into temporal/height/width rotation blocks."""

    head_dim: int
    split: tuple[int, int, int] | None = None
    base: float = 10000.0

    def __post_init__(self):
        if self.head_dim < 2 or self.head_dim % 2:
            raise ValueError("head_dim must be a positive even number")
        if not (math.isfinite(self.base) and self.base > 0):
            raise ValueError(f"base must be finite and positive, got {self.base}")
        if self.split is None:
            third = self.head_dim // 3
            side = third - (third % 2)
            object.__setattr__(self, "split",
                               (self.head_dim - 2 * side, side, side))
        d_t, d_h, d_w = self.split
        if any(d < 0 or d % 2 for d in self.split):
            raise ValueError("every split block must be even and non-negative")
        if d_t + d_h + d_w != self.head_dim:
            raise ValueError("split blocks must sum to head_dim")

    def pair_angles_rows(self, pids: Sequence[PositionId]) -> np.ndarray:
        """Rotation angle per coordinate pair of every PositionId, one row
        each with blocks concatenated t|h|w: one outer product of positions
        and frequencies per block."""
        pos = np.array(pids, dtype=np.float64).reshape(len(pids), 3)
        parts = []
        for d_block, column in zip(self.split, pos.T):
            if d_block == 0:
                continue
            i = np.arange(d_block // 2, dtype=np.float64)
            parts.append(np.outer(column, self.base ** (-2.0 * i / d_block)))
        return np.concatenate(parts, axis=1)


def _rotate_pairs(data: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    out = np.empty_like(data)
    even, odd = data[..., 0::2], data[..., 1::2]
    out[..., 0::2] = cos * even - sin * odd
    out[..., 1::2] = sin * even + cos * odd
    return out


def _rope(x: ad.Tensor, angles: np.ndarray, op_kind: str) -> ad.Tensor:
    """Rotate interleaved pairs of ``x`` by ``angles`` (one tape node).

    Rotations are orthogonal, so the backward pass is the inverse rotation
    of the upstream gradient and the vector norm is preserved.
    """
    cos, sin = np.cos(angles), np.sin(angles)

    def backward_fn(g):
        return (_rotate_pairs(g, cos, -sin),)

    return ad.op_node(_rotate_pairs(x.data, cos, sin), (x,), backward_fn, op_kind)


def apply_rope3d(vec: ad.Tensor, pid: PositionId, cfg: RopeFreqConfig) -> ad.Tensor:
    """Rotate interleaved pairs of ``vec`` by the per-block angle tables."""
    if vec.data.shape != (cfg.head_dim,):
        raise ad.ShapeError(f"expected shape ({cfg.head_dim},), got {vec.data.shape}")
    return _rope(vec, cfg.pair_angles_rows([pid])[0], "rope3d")


def apply_rope3d_rows(mat: ad.Tensor, pids: Iterable[PositionId],
                      cfg: RopeFreqConfig) -> ad.Tensor:
    """Row i of ``mat`` rotated by its own PositionId (one tape node)."""
    pids = list(pids)
    if mat.data.ndim != 2 or mat.data.shape != (len(pids), cfg.head_dim):
        raise ad.ShapeError(f"expected shape ({len(pids)}, {cfg.head_dim}), "
                            f"got {mat.data.shape}")
    return _rope(mat, cfg.pair_angles_rows(pids), "rope3d_rows")
