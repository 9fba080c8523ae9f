"""Test-side reference for ``harness.grad_check``: the full-forward campaign.

Every finite-difference evaluation here reruns the whole frozen forward,
from the input tokens to the loss, which is what ``grad_check`` did before
it resumed each evaluation at the stage of the perturbed parameter.  The
tests hold the resumed campaign to this loop's blocks, bit for bit.
"""

from __future__ import annotations

import numpy as np

import autodiff_reference as adr
from dyncapmoe import autodiff as ad
from dyncapmoe import harness as hn


def grad_check_blocks(cfg: hn.ToyModelConfig,
                      eps: float = 1e-6) -> tuple[hn.BlockReport, ...]:
    """The parameter blocks of ``grad_check(cfg, eps)``, one full forward
    per side of each coordinate."""
    model = hn.ToyTransformer(cfg)
    batch = hn.generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                              cfg.noise, cfg.theta)
    _, frozen, _ = model.forward(batch, mode="train")

    loss, _, _ = model.forward(batch, frozen=frozen)
    ad.backward(loss)
    params = model.parameters()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}
    adr.zero_grads(params.values())

    def frozen_loss() -> tuple[float, bool]:
        value, _, ok = model.forward(batch, frozen=frozen)
        return float(value.data), ok

    blocks = []
    for name, t in params.items():
        fd = np.zeros_like(t.data)
        keep = np.ones(t.data.shape, dtype=bool)
        skipped = 0
        for idx in np.ndindex(t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + eps
            up, ok_up = frozen_loss()
            t.data[idx] = orig - eps
            down, ok_down = frozen_loss()
            t.data[idx] = orig
            if not (ok_up and ok_down):
                keep[idx] = False
                skipped += 1
                continue
            fd[idx] = (up - down) / (2.0 * eps)
        err = ad.max_rel_err(analytic[name][keep], fd[keep]) if keep.any() else 0.0
        blocks.append(hn.BlockReport(name=name, max_rel_err=float(err),
                                     n_checked=int(keep.sum()), n_skipped=skipped))
    return tuple(blocks)
