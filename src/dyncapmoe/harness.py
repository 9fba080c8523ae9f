"""Toy training harness: a two-layer transformer block with 3D-RoPE
attention and a dynamic-capacity MoE feed-forward, plus synthetic data,
a plain-SGD training loop and a gradient-check campaign.

The synthetic task plants a linear signal: each (modality, class) pair owns
a fixed random direction, every token is its class direction plus noise,
and the model classifies tokens.  With zero noise the labels are linearly
recoverable, so cross-entropy on the planted task is reducible and the
smoke-training criterion is meaningful.

Training uses sampled Top-P routing.  Token t of layer li draws from the
rng stream ``np.random.default_rng([seed, 5077 + li, t])`` — keyed by layer
and token, not by step — so a zero-learning-rate run repeats the identical
forward every step (flat loss curve).  Selections still evolve across steps
because the same underlying uniforms are applied to the current, shifting
routing probabilities.  Inference (``mode="infer"``) takes the
deterministic Top-P prefix in every routing mode and draws nothing.

Finite-difference checking freezes every discrete choice (active sets, B,
argmax flags): the training objective is only piecewise smooth in the
router weights, so central differences are compared against the gradient
of the frozen (smooth) branch, and any coordinate whose perturbation flips
a live selection is skipped and reported rather than compared.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import analytics as an
from . import autodiff as ad
from . import estimator as est
from . import moe
from . import rope3d as rp

__all__ = [
    "TrainingDivergedError",
    "ToyModelConfig",
    "SyntheticBatch",
    "generate_batch",
    "ToyTransformer",
    "cross_entropy",
    "TrainResult",
    "train",
    "GradCheckReport",
    "grad_check",
    "gradcheck_default_config",
    "smoke_train_config",
    "segments_from_json",
    "segments_to_json",
]


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SEGMENT_KINDS = {
    "text": (rp.TextSegment, ("n_tokens",)),
    "audio": (rp.AudioSegment, ("duration_s",)),
    "image": (rp.ImageSegment, ("rows", "cols", "patch")),
    "video": (rp.VideoSegment, ("duration_s", "fps", "rows", "cols",
                                "f_l", "f_u", "patch")),
}


def segments_from_json(items: list[dict]) -> list[rp.Segment]:
    """Parse [{kind: ..., params...}] into segment objects."""
    segs = []
    for item in items:
        item = dict(item)
        kind = item.pop("kind", None)
        if kind not in _SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {kind!r}")
        cls, fields = _SEGMENT_KINDS[kind]
        unknown = set(item) - set(fields)
        if unknown:
            raise ValueError(f"unknown fields for {kind} segment: {sorted(unknown)}")
        segs.append(cls(**item))
    return segs


def segments_to_json(segments: list[rp.Segment]) -> list[dict]:
    out = []
    for seg in segments:
        d = {"kind": seg.modality}
        d.update(dataclasses.asdict(seg))
        out.append(d)
    return out


@dataclasses.dataclass(frozen=True)
class ToyModelConfig:
    """Everything that determines a run; (config, seed) fixes every byte."""

    moe: moe.MoEConfig
    segments: tuple[rp.Segment, ...]
    layers: int = 2
    heads: int = 1
    head_dim: int = 24
    rope: rp.RopeFreqConfig | None = None
    learning_rate: float = 0.05
    steps: int = 200
    seed: int = 0
    n_classes: int = 4
    noise: float = 0.05
    theta: int = 1

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.heads != 1:
            raise ValueError("only single-head attention is supported")
        if self.head_dim < 2 or self.head_dim % 2:
            raise ValueError("head_dim must be a positive even number")
        if self.rope is None:
            object.__setattr__(self, "rope", rp.RopeFreqConfig(self.head_dim))
        if self.rope.head_dim != self.head_dim:
            raise ValueError("rope.head_dim must equal head_dim")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.noise < 0 or self.learning_rate < 0 or self.steps < 0:
            raise ValueError("noise, learning_rate and steps must be non-negative")
        if not self.segments:
            raise ValueError("segment list must be non-empty")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def d_model(self) -> int:
        return self.moe.d_model

    @property
    def batch(self) -> int:
        """Tokens per step, determined by the segment list."""
        return len(rp.assign_sequence(list(self.segments), self.theta))

    def to_json_dict(self) -> dict:
        return {
            "layers": self.layers, "heads": self.heads, "head_dim": self.head_dim,
            "learning_rate": self.learning_rate, "steps": self.steps,
            "seed": self.seed, "n_classes": self.n_classes, "noise": self.noise,
            "theta": self.theta,
            "moe": {f.name: getattr(self.moe, f.name)
                    for f in dataclasses.fields(self.moe)},
            "rope": {"head_dim": self.rope.head_dim,
                     "split": list(self.rope.split), "base": self.rope.base},
            "segments": segments_to_json(list(self.segments)),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ToyModelConfig":
        d = dict(d)
        moe_cfg = moe.MoEConfig(**d.pop("moe"))
        rope_d = d.pop("rope", None)
        rope_cfg = None
        if rope_d is not None:
            split = rope_d.get("split")
            rope_cfg = rp.RopeFreqConfig(
                head_dim=rope_d["head_dim"],
                split=tuple(split) if split is not None else None,
                base=rope_d.get("base", 10000.0))
        segments = tuple(segments_from_json(d.pop("segments")))
        return cls(moe=moe_cfg, segments=segments, rope=rope_cfg, **d)

    @classmethod
    def from_json_file(cls, path) -> "ToyModelConfig":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def smoke_train_config(seed: int = 0) -> ToyModelConfig:
    """Planted-signal smoke run: d_model 32, 4 routed + 1 null + 2 shared."""
    return ToyModelConfig(
        moe=moe.MoEConfig(d_model=32, n_routed=4, n_null=1, n_shared=2,
                          expert_hidden=64, top_p=0.7, routing_mode="sampled",
                          seed=seed),
        segments=(rp.TextSegment(6), rp.ImageSegment(2, 2)),
        layers=2, head_dim=24, learning_rate=0.05, steps=500, seed=seed,
        n_classes=4, noise=0.05)


def gradcheck_default_config(seed: int = 0) -> ToyModelConfig:
    """Small dims so the coordinate-wise finite-difference sweep stays fast."""
    return ToyModelConfig(
        moe=moe.MoEConfig(d_model=6, n_routed=2, n_null=1, n_shared=1,
                          expert_hidden=4, shared_hidden=2, top_p=0.7,
                          routing_mode="sampled", seed=seed),
        segments=(rp.TextSegment(2), rp.ImageSegment(1, 1)),
        layers=2, head_dim=6, learning_rate=0.0, steps=0, seed=seed,
        n_classes=3, noise=0.0)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SyntheticBatch:
    tokens: np.ndarray                 # [n, d_model]
    modality_tags: tuple[str, ...]
    position_ids: tuple[rp.PositionId, ...]
    labels: np.ndarray                 # [n] class indices


def generate_batch(segments, seed: int, d_model: int, n_classes: int,
                   noise: float, theta: int = 1) -> SyntheticBatch:
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
    tokens = np.stack([directions[(tags[i], int(labels[i]))]
                       + noise * noise_rng.normal(size=d_model)
                       for i in range(n)])
    return SyntheticBatch(tokens=tokens, modality_tags=tuple(tags),
                          position_ids=tuple(ids), labels=labels)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def cross_entropy(logits: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """Mean cross-entropy over rows, stabilized via log-sum-exp."""
    z = logits.data
    if z.ndim != 2 or len(labels) != z.shape[0]:
        raise ad.ShapeError("logits must be [n, n_classes] matching labels")
    n = z.shape[0]
    rows = np.arange(n)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    value = float(np.mean(lse - z[rows, labels]))

    def backward_fn(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        return (g * p / n,)

    return ad.op_node(np.asarray(value), (logits,), backward_fn, "cross_entropy")


@dataclasses.dataclass(frozen=True)
class _AttentionParams:
    w_q: ad.Tensor
    w_k: ad.Tensor
    w_v: ad.Tensor
    w_o: ad.Tensor


class ToyTransformer:
    """layers x (RoPE attention + MoE feed-forward), residual throughout."""

    def __init__(self, cfg: ToyModelConfig):
        self.cfg = cfg
        d, hd = cfg.d_model, cfg.head_dim
        base = [cfg.seed, 2029]  # init stream, disjoint from data/runtime draws
        self.attn: list[_AttentionParams] = []
        self.blocks: list[moe.DynamicCapacityMoE] = []
        for li in range(cfg.layers):
            self.attn.append(_AttentionParams(
                w_q=ad.seeded_normal((d, hd), base + [li, 0], std=d ** -0.5,
                                     requires_grad=True),
                w_k=ad.seeded_normal((d, hd), base + [li, 1], std=d ** -0.5,
                                     requires_grad=True),
                w_v=ad.seeded_normal((d, hd), base + [li, 2], std=d ** -0.5,
                                     requires_grad=True),
                w_o=ad.seeded_normal((hd, d), base + [li, 3], std=hd ** -0.5,
                                     requires_grad=True)))
            self.blocks.append(moe.DynamicCapacityMoE(
                dataclasses.replace(cfg.moe, seed=cfg.moe.seed + 7919 * (li + 1))))
        self.w_cls = ad.seeded_normal((d, cfg.n_classes), base + [cfg.layers, 4],
                                      std=d ** -0.5, requires_grad=True)

    def parameters(self) -> dict[str, ad.Tensor]:
        out: dict[str, ad.Tensor] = {}
        for li, (attn, block) in enumerate(zip(self.attn, self.blocks)):
            out[f"layer{li}.attn.w_q"] = attn.w_q
            out[f"layer{li}.attn.w_k"] = attn.w_k
            out[f"layer{li}.attn.w_v"] = attn.w_v
            out[f"layer{li}.attn.w_o"] = attn.w_o
            for name, t in block.parameters().items():
                out[f"layer{li}.moe.{name}"] = t
        out["cls.w"] = self.w_cls
        return out

    def _attend(self, X: ad.Tensor, pids, li: int) -> ad.Tensor:
        attn = self.attn[li]
        q = rp.apply_rope3d_rows(ad.matmul(X, attn.w_q), pids, self.cfg.rope)
        k = rp.apply_rope3d_rows(ad.matmul(X, attn.w_k), pids, self.cfg.rope)
        v = ad.matmul(X, attn.w_v)
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), self.cfg.head_dim ** -0.5)
        mixed = ad.matmul(ad.softmax(scores), v)
        return ad.add(X, ad.matmul(mixed, attn.w_o))

    def forward(self, batch: SyntheticBatch, mode: str = "train",
                frozen: list[list[moe.RoutingDecision]] | None = None):
        """Full pass to the mean cross-entropy.

        ``mode`` is "train" or "infer" (see ``DynamicCapacityMoE.forward_rows``);
        ``frozen`` replays recorded decisions and overrides it.  Returns
        (loss, decisions per layer, matches): ``matches`` is only meaningful
        when replaying frozen decisions.
        """
        X = ad.Tensor(batch.tokens)
        per_layer: list[list[moe.RoutingDecision]] = []
        matches = True
        for li in range(self.cfg.layers):
            X = self._attend(X, batch.position_ids, li)
            Y, decisions, ok = self.blocks[li].forward_rows(
                X, mode, key=(self.cfg.seed, 5077 + li),
                frozen=frozen[li] if frozen is not None else None)
            X = ad.add(X, Y)
            matches = matches and ok
            per_layer.append(decisions)
        logits = ad.matmul(X, self.w_cls)
        return cross_entropy(logits, batch.labels), per_layer, matches


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrainResult:
    losses: tuple[float, ...]
    trace: an.RoutingTrace


def train(cfg: ToyModelConfig, model: ToyTransformer | None = None) -> TrainResult:
    """Plain gradient descent on the planted-signal batch.

    One fixed batch per run (drawn from the seed); per-step losses and a
    full routing trace come back.  A non-finite loss aborts with the step
    in the diagnostic.
    """
    model = model or ToyTransformer(cfg)
    batch = generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                           cfg.noise, cfg.theta)
    params = model.parameters()
    trace = an.RoutingTrace()
    losses = []
    for step in range(cfg.steps):
        try:
            loss, per_layer, _ = model.forward(batch, mode="train")
        except ad.NonFiniteError as exc:
            raise TrainingDivergedError(f"non-finite forward at step {step}") from exc
        value = float(loss.data)
        if not math.isfinite(value):
            raise TrainingDivergedError(f"loss diverged at step {step}: {value!r}")
        losses.append(value)
        for li, decisions in enumerate(per_layer):
            for t, decision in enumerate(decisions):
                an.record(trace, step, li, t, batch.modality_tags[t], decision)
        ad.backward(loss)
        for t in params.values():
            if t.grad is not None:
                t.data -= cfg.learning_rate * t.grad
        ad.zero_grads(params.values())
    return TrainResult(losses=tuple(losses), trace=trace)


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BlockReport:
    name: str
    max_rel_err: float
    n_checked: int
    n_skipped: int  # coordinates whose perturbation flipped a live selection


@dataclasses.dataclass(frozen=True)
class GradCheckReport:
    blocks: tuple[BlockReport, ...]
    tol: float
    eps: float
    unbiasedness_err: dict[int, float]  # N_r -> max abs error vs exact gradient
    unbiasedness_tol: float = 1e-10

    @property
    def failed_blocks(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks if b.max_rel_err > self.tol)

    @property
    def passed(self) -> bool:
        return not self.failed_blocks and all(
            e <= self.unbiasedness_tol for e in self.unbiasedness_err.values())

    def lines(self) -> list[str]:
        out = []
        for b in self.blocks:
            status = "ok" if b.max_rel_err <= self.tol else "FAIL"
            skipped = f", skipped {b.n_skipped} flipped" if b.n_skipped else ""
            out.append(f"{status:4s} {b.name}: max rel err {b.max_rel_err:.3e} "
                       f"({b.n_checked} coords{skipped})")
        for n_r, err in sorted(self.unbiasedness_err.items()):
            status = "ok" if err <= self.unbiasedness_tol else "FAIL"
            out.append(f"{status:4s} unbiasedness N_r={n_r}: max abs err {err:.3e}")
        return out


def _unbiasedness_sweep(n_experts_list=(2, 3, 4), d=8, seeds=range(5)) -> dict[int, float]:
    worst: dict[int, float] = {}
    for n_r in n_experts_list:
        errs = []
        for seed in seeds:
            rng = np.random.default_rng([seed, n_r])
            obj = est.ClosedFormObjective(
                degree=1, projection=rng.uniform(-1, 1, size=d),
                expert_outputs=[rng.uniform(-1, 1, size=d) for _ in range(n_r)])
            z = rng.uniform(-2, 2, size=n_r)
            diff = est.estimator_expectation(obj, z) - est.exact_gradient_oracle(obj, z)
            errs.append(float(np.max(np.abs(diff))))
        worst[n_r] = max(errs)
    return worst


def grad_check(cfg: ToyModelConfig, eps: float = 1e-6,
               tol: float = 1e-4) -> GradCheckReport:
    """Central differences vs the tape, with every discrete choice frozen.

    One train-mode forward fixes the per-token active sets and (delta, B)
    draws; analytic gradients come from that frozen graph.  Each coordinate
    is then perturbed by +/-eps and the frozen loss re-evaluated; if either
    perturbation would flip a live selection the coordinate is skipped and
    counted instead of compared.
    """
    model = ToyTransformer(cfg)
    batch = generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                           cfg.noise, cfg.theta)
    _, frozen, _ = model.forward(batch, mode="train")

    loss, _, _ = model.forward(batch, frozen=frozen)
    ad.backward(loss)
    params = model.parameters()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}
    ad.zero_grads(params.values())

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
        blocks.append(BlockReport(name=name, max_rel_err=float(err),
                                  n_checked=int(keep.sum()), n_skipped=skipped))
    return GradCheckReport(blocks=tuple(blocks), tol=tol, eps=eps,
                           unbiasedness_err=_unbiasedness_sweep())
