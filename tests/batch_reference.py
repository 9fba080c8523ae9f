"""Per-token reference for ``harness.generate_batch``.

This is the batch generator as it drew its directions one (modality,
class) pair at a time, each normalized by ``np.linalg.norm``, and stacked
the clean tokens one token at a time.  ``harness.generate_batch`` draws the
directions as one block, takes every row's norm in one ``np.matmul`` and
gathers the clean tokens by code; it must return this batch bit for bit.
"""

from __future__ import annotations

import numpy as np

from dyncapmoe import harness as hn
from dyncapmoe import rope3d as rp


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
