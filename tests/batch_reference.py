"""Per-token reference for ``harness.generate_batch``.

This is the batch generator as it drew its directions one (modality,
class) pair at a time, each normalized by ``np.linalg.norm``, and stacked
the clean tokens one token at a time.  ``harness.generate_batch`` draws the
directions as one block, takes every row's norm in one ``np.matmul`` and
gathers the clean tokens by code; it must return this batch bit for bit.

``assign_sequence_tagged`` is the rule "each segment starts at 1 + the
max component of every ID before it" as first written, rescanning all
earlier IDs per segment; ``rope3d.assign_sequence_tagged`` carries the
start instead and must return the same IDs and tags.

``frame`` walks one frame's patches and then each patch's cells in four
nested loops; ``rope3d._frame`` sorts the cells by their patch instead and
must return the same IDs in the same order.
"""

from __future__ import annotations

import numpy as np

from dyncapmoe import harness as hn
from dyncapmoe import rope3d as rp


def assign_sequence_tagged(segments, theta: int = 1):
    """Concatenate segments; each starts at 1 + max component seen so far."""
    ids, tags = [], []
    start = 0
    for seg in segments:
        seg_ids = seg.positions(start, theta)
        ids.extend(seg_ids)
        tags.extend([seg.modality] * len(seg_ids))
        start = 1 + max(max(i) for i in ids)
    return ids, tags


def frame(t: int, start: int, rows: int, cols: int, patch: int) -> list[rp.PositionId]:
    """IDs (t, start+row, start+col) of one frame, all tokens of a patch
    before the next patch."""
    ids = []
    for br in range(0, rows, patch):
        for bc in range(0, cols, patch):
            for r in range(br, min(br + patch, rows)):
                for c in range(bc, min(bc + patch, cols)):
                    ids.append(rp.PositionId(t, start + r, start + c))
    return ids


def generate_batch(segments, seed: int, d_model: int, n_classes: int,
                   noise: float, theta: int = 1) -> hn.SyntheticBatch:
    """Plant one unit direction per (modality, class); token = direction + noise.

    Labels are drawn first and embedded through the planted directions, so
    they are a deterministic linear function of the clean tokens.
    """
    ids, tags = rp.assign_sequence_tagged(list(segments), theta)
    n = len(ids)
    dir_rng = np.random.default_rng([seed, 101])
    directions: dict[tuple[str, int], np.ndarray] = {}
    for tag in sorted(set(tags)):
        for c in range(n_classes):
            v = dir_rng.normal(size=d_model)
            directions[(tag, c)] = v / np.linalg.norm(v)
    labels = np.random.default_rng([seed, 202]).integers(0, n_classes, size=n)
    noise_rng = np.random.default_rng([seed, 303])
    clean = np.stack([directions[(tags[i], int(labels[i]))] for i in range(n)])
    tokens = clean + noise * noise_rng.normal(size=(n, d_model))
    return hn.SyntheticBatch(tokens=tokens, modality_tags=tuple(tags),
                             position_ids=tuple(ids), labels=labels)
