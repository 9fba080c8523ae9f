"""Omni-modality 3D rotary position embedding.

Every token carries a position triple ``(t, h, w)``.  A segment
(:class:`TextSegment`, :class:`AudioSegment`, :class:`ImageSegment`,
:class:`VideoSegment`) is the one description of a modality's positions:
its fields are checked once, when it is built, and its
``positions(start, theta)`` emits its IDs from the origin ``start``.

Text advances all three components together, so a text-only sequence is
indistinguishable from ordinary 1D RoPE.  Audio advances only along
absolute time: a 3-second unit of 20 tokens shares one triple, and
consecutive units step by ``3 * theta``.  Vision tokens pin ``t`` to the
frame's absolute time while ``h``/``w`` track the token's spatial cell;
every video frame restarts its spatial offsets at the segment origin, so
temporal distance is carried by ``t`` alone.

``theta`` converts seconds into position units.  It is an integer >= 1
under :func:`~dyncapmoe.autodiff.check_int`, so IDs stay integral and a
bool or a float such as ``2.0`` is rejected.  :func:`assign_sequence_tagged`
concatenates segments with the start rule "1 + the maximum component value
of everything before".

The rotary application splits ``head_dim`` into three even blocks (defaults
to near-equal thirds, remainder to the temporal block) and rotates
interleaved coordinate pairs within each block by ``component * base**(-2i/d_block)``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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

def _check_origin(start, theta) -> tuple[int, int]:
    """The one check of ``positions``' arguments; returns both as ints."""
    ad.check_int(start, "start", 0)
    ad.check_int(theta, "theta", 1)
    return int(start), int(theta)


def _frame(t: int, start: int, rows: int, cols: int, patch: int) -> list[PositionId]:
    """IDs (t, start+row, start+col) of one frame: row-major cells, stably
    sorted by their patch ``(row // patch, col // patch)``."""
    cells = sorted(itertools.product(range(rows), range(cols)),
                   key=lambda rc: (rc[0] // patch, rc[1] // patch))
    return [PositionId(t, start + r, start + c) for r, c in cells]


@dataclasses.dataclass(frozen=True)
class TextSegment:
    """Token j gets (start+j, start+j, start+j) — plain 1D positions."""

    n_tokens: int
    modality = "text"

    def __post_init__(self):
        ad.check_int(self.n_tokens, "n_tokens", 1)

    def positions(self, start: int, theta: int) -> list[PositionId]:
        start, _ = _check_origin(start, theta)
        return [PositionId(start + j, start + j, start + j)
                for j in range(self.n_tokens)]


@dataclasses.dataclass(frozen=True)
class AudioSegment:
    """Unit u of 3 s emits (start + 3*u*theta,) * 3 repeated 20 times.

    A trailing partial unit is padded up to the full 20 tokens;
    :attr:`pad_mask` tells real tokens from padding.
    """

    duration_s: float
    modality = "audio"

    def __post_init__(self):
        ad.check_real(self.duration_s, "duration_s", 0.0)

    @property
    def _units(self) -> int:
        return int(math.ceil(self.duration_s / AUDIO_UNIT_SECONDS))

    @property
    def real_token_count(self) -> int:
        """Tokens carrying signal: 20 per 3 s, partial units pro-rated upward."""
        return int(math.ceil(self.duration_s * AUDIO_TOKENS_PER_UNIT / AUDIO_UNIT_SECONDS))

    @property
    def pad_mask(self) -> np.ndarray:
        """Boolean mask over the emitted tokens; True marks real (non-pad) slots."""
        mask = np.zeros(self._units * AUDIO_TOKENS_PER_UNIT, dtype=bool)
        mask[:self.real_token_count] = True
        return mask

    def positions(self, start: int, theta: int) -> list[PositionId]:
        start, theta = _check_origin(start, theta)
        ids = []
        for u in range(self._units):
            tick = start + 3 * u * theta
            ids.extend([PositionId(tick, tick, tick)] * AUDIO_TOKENS_PER_UNIT)
        return ids


@dataclasses.dataclass(frozen=True)
class ImageSegment:
    """IDs (start, start+row, start+col), emitted patch by patch: IDs
    depend on spatial location only, never on emission order."""

    rows: int
    cols: int
    patch: int = 2
    modality = "image"

    def __post_init__(self):
        for name in ("rows", "cols", "patch"):
            ad.check_int(getattr(self, name), name, 1)

    def positions(self, start: int, theta: int) -> list[PositionId]:
        start, _ = _check_origin(start, theta)
        return _frame(start, start, self.rows, self.cols, self.patch)


@dataclasses.dataclass(frozen=True)
class VideoSegment:
    """Frames sampled uniformly over the clip, each pinned to absolute time.

    Frame j sits at tau_j = j * duration / f_n seconds and gets
    t = start + round(tau_j * theta), a ValueError if that overflows; its
    h/w offsets restart at ``start`` every frame, exactly like a still image.
    """

    duration_s: float
    fps: float
    rows: int
    cols: int
    f_l: int = 8
    f_u: int = 64
    patch: int = 2
    modality = "video"

    def __post_init__(self):
        ad.check_real(self.duration_s, "duration_s", 0.0)
        ad.check_real(self.fps, "fps", 0.0)
        for name in ("rows", "cols", "patch", "f_l"):
            ad.check_int(getattr(self, name), name, 1)
        ad.check_int(self.f_u, "f_u", self.f_l)

    @property
    def frame_count(self) -> int:
        """Sampled frames f_s = duration*fps, clamped to [f_l, f_u]."""
        # clamp first: the product may be inf
        f_s = max(1, int(round(min(self.duration_s * self.fps, self.f_u))))
        return max(f_s, self.f_l)

    def positions(self, start: int, theta: int) -> list[PositionId]:
        start, theta = _check_origin(start, theta)
        f_n = self.frame_count
        ids = []
        for j in range(f_n):
            tau = j * self.duration_s / f_n
            try:
                t = start + int(round(tau * theta))
            except OverflowError:  # tau * theta beyond the float range
                raise ValueError(f"video frame {j} of {f_n} has no finite time: duration_s "
                                 f"{self.duration_s!r} and theta {theta} overflow") from None
            ids.extend(_frame(t, start, self.rows, self.cols, self.patch))
        return ids


Segment = TextSegment | AudioSegment | ImageSegment | VideoSegment


# ---------------------------------------------------------------------------
# position assignment
# ---------------------------------------------------------------------------

def assign_sequence_tagged(segments: Sequence[Segment],
                           theta: int = 1) -> tuple[list[PositionId], list[str]]:
    """Concatenate segments; each starts at 1 + max component seen so far.

    The start is carried from segment to segment: every component is >= 0,
    so 1 + the max over everything before is the larger of the last start
    and 1 + the max over the last segment.
    """
    if not segments:
        raise ValueError("segment list must be non-empty")
    ids: list[PositionId] = []
    tags: list[str] = []
    start = 0
    for seg in segments:
        seg_ids = seg.positions(start, theta)
        ids.extend(seg_ids)
        tags.extend([seg.modality] * len(seg_ids))
        start = max(start, 1 + max(map(max, seg_ids)))
    return ids, tags


def assign_sequence(segments: Sequence[Segment], theta: int = 1) -> list[PositionId]:
    return assign_sequence_tagged(segments, theta)[0]


# ---------------------------------------------------------------------------
# rotary application
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RopeFreqConfig:
    """Even split of head_dim into temporal/height/width rotation blocks.

    ``split`` may be given as any sequence of integers; it is stored as a
    tuple of ints, so the config is hashable (the cos/sin table cache keys
    on it) and equal to the same config given a tuple.
    """

    head_dim: int
    split: tuple[int, int, int] | None = None
    base: float = 10000.0

    def __post_init__(self):
        ad.check_int(self.head_dim, "head_dim", 2)
        if self.head_dim % 2:
            raise ValueError(f"head_dim must be even, got {self.head_dim}")
        ad.check_real(self.base, "base", 0.0)
        split = self.split
        if split is None:
            third = self.head_dim // 3
            side = third - (third % 2)
            split = (self.head_dim - 2 * side, side, side)
        if not np.iterable(split):
            raise ValueError(f"split must be three blocks that sum to head_dim, got {split!r}")
        for d in split:
            ad.check_int(d, "split", 0)
        if any(d % 2 for d in split):
            raise ValueError("every split block must be even")
        if len(split) != 3 or sum(split) != self.head_dim:
            raise ValueError("split must be three blocks that sum to head_dim")
        object.__setattr__(self, "split", tuple(int(d) for d in split))

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


@functools.lru_cache(maxsize=8)
def _rope_table(pids: tuple[PositionId, ...],
                cfg: RopeFreqConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of ``cfg.pair_angles_rows(pids)``.

    Built once per position sequence and config: every forward over the
    same positions, and its q and k rotations, share one table.
    """
    angles = cfg.pair_angles_rows(pids)
    cos, sin = np.cos(angles), np.sin(angles)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _rope(x: ad.Tensor, cos: np.ndarray, sin: np.ndarray, op_kind: str) -> ad.Tensor:
    """Rotate interleaved pairs of ``x`` by the angles of ``cos`` and ``sin``
    (one tape node).

    Rotations are orthogonal, so the backward pass is the inverse rotation
    of the upstream gradient and the vector norm is preserved.
    """

    def backward_fn(g):
        return (_rotate_pairs(g, cos, -sin),)

    return ad.op_node(_rotate_pairs(x.data, cos, sin), (x,), backward_fn, op_kind)


def apply_rope3d(vec: ad.Tensor, pid: PositionId, cfg: RopeFreqConfig) -> ad.Tensor:
    """Rotate interleaved pairs of ``vec`` by the per-block angle tables."""
    if vec.data.shape != (cfg.head_dim,):
        raise ad.ShapeError(f"expected shape ({cfg.head_dim},), got {vec.data.shape}")
    cos, sin = _rope_table((pid,), cfg)
    return _rope(vec, cos[0], sin[0], "rope3d")


def apply_rope3d_rows(mat: ad.Tensor, pids: Iterable[PositionId],
                      cfg: RopeFreqConfig) -> ad.Tensor:
    """Row i of ``mat`` rotated by its own PositionId (one tape node)."""
    pids = tuple(pids)
    if mat.data.ndim != 2 or mat.data.shape != (len(pids), cfg.head_dim):
        raise ad.ShapeError(f"expected shape ({len(pids)}, {cfg.head_dim}), "
                            f"got {mat.data.shape}")
    return _rope(mat, *_rope_table(pids, cfg), "rope3d_rows")
