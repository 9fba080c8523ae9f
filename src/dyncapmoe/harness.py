"""Toy training harness: a two-layer transformer block with 3D-RoPE
attention and a dynamic-capacity MoE feed-forward, plus synthetic data,
a plain-SGD training loop and a gradient-check campaign.

The synthetic task plants a linear signal: each (modality, class) pair owns
a fixed random direction, every token is its class direction plus noise,
and the model classifies tokens, one per position its segments emit (a
config's ``batch`` sums the segments' ``n_positions``; it builds none).
With zero noise the labels are linearly recoverable, so cross-entropy on
the planted task is reducible and the smoke-training criterion is
meaningful.

Training routes by ``config.moe.routing_mode`` (the smoke and gradcheck
configs sample).  Each layer li draws one uniform block from the Philox
stream keyed ``(seed, 5077 + li)``; token t reads row t of it, keyed by
layer and token, not by step, so a zero-learning-rate run repeats the
identical forward every step (flat loss curve).  Selections still evolve
as the same uniforms meet the current, shifting routing probabilities.
Inference (``mode="infer"``) takes the Top-P prefix and draws nothing.

Each layer forward returns its routing as one :class:`~dyncapmoe.moe.Routing`
(struct-of-arrays), and ``train`` logs it into the run's trace with one
:func:`~dyncapmoe.analytics.record_rows` call per layer and step.

Finite-difference checking freezes every discrete choice (active sets, B,
argmax flags) by replaying the recorded Routing: the training objective is
only piecewise smooth in the router weights, so central differences are
compared against the gradient of the frozen (smooth) branch, and any
coordinate whose perturbation flips a live selection is skipped and
reported rather than compared.

The forward runs in stages: each layer's attention, each layer's MoE with
its residual add, then the classifier head and the loss.  A parameter of
stage s changes nothing before stage s, so the gradient check records every
stage's input once, during the frozen replay that yields the analytic
gradients.  It evaluates the +/-eps probes of up to 64 consecutive
coordinates of the model, which may span parameters and stages, in one
forward resumed at the stage of the first of them (see :func:`grad_check`).
The skipped prefix would recompute the recorded bits from the same
parameters, so the report is exactly the one a full forward per evaluation
gives.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path

import numpy as np

from . import analytics as an
from . import autodiff as ad
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

def segments_from_json(items: list[dict]) -> list[rp.Segment]:
    """Parse [{kind: ..., params...}] into segment objects.

    Anything but a list of objects raises a ValueError naming ``segments``.
    """
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"segments must be a list of objects, got {items!r}")
    classes = {cls.modality: cls for cls in typing.get_args(rp.Segment)}
    segs = []
    for item in items:
        if not isinstance(item, dict):
            raise ValueError(f"segments must be a list of objects, got an item {item!r}")
        item = dict(item)
        kind = item.pop("kind", None)
        if not isinstance(kind, str) or kind not in classes:
            raise ValueError(f"unknown segment kind {kind!r}")
        cls = classes[kind]
        unknown = set(item) - {f.name for f in dataclasses.fields(cls)}
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
    head_dim: int = 24
    rope: rp.RopeFreqConfig | None = None
    learning_rate: float = 0.05
    steps: int = 200
    seed: int = 0
    n_classes: int = 4
    noise: float = 0.05
    theta: int = 1

    def __post_init__(self):
        for name, low in (("layers", 1), ("head_dim", 2), ("steps", 0),
                          ("n_classes", 2), ("theta", 1), ("seed", 0)):
            ad.check_int(getattr(self, name), name, low)
        if self.rope is None:
            object.__setattr__(self, "rope", rp.RopeFreqConfig(self.head_dim))
        if self.rope.head_dim != self.head_dim:
            raise ValueError("rope.head_dim must equal head_dim")
        for name in ("noise", "learning_rate"):
            ad.check_real(getattr(self, name), name, 0.0, include_low=True)
        if not self.segments:
            raise ValueError("segment list must be non-empty")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def d_model(self) -> int:
        return self.moe.d_model

    @property
    def batch(self) -> int:
        """Tokens per step: the segments' positions, counted, none made."""
        return sum(seg.n_positions for seg in self.segments)

    def to_json_dict(self) -> dict:
        """Every field, in field order; ``moe`` and ``rope`` as their own
        fields, ``segments`` as :func:`segments_to_json` writes them."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d.update(moe=dataclasses.asdict(self.moe), rope=dataclasses.asdict(self.rope),
                 segments=segments_to_json(self.segments))
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ToyModelConfig":
        """Inverse of :meth:`to_json_dict`: each block goes to its own
        constructor, so an unknown or missing key raises ``TypeError``
        naming it.  ``rope`` may be absent or null."""
        if not isinstance(d, dict):
            raise ValueError(f"a model config must be a JSON object, got {d!r}")
        d = dict(d)
        if "moe" in d:
            d["moe"] = moe.MoEConfig(**d["moe"])
        if "segments" in d:
            d["segments"] = segments_from_json(d["segments"])
        if d.get("rope") is not None:
            d["rope"] = rp.RopeFreqConfig(**d["rope"])
        return cls(**d)

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
    kinds = {tag: i for i, tag in enumerate(sorted(set(tags)))}
    # Row kind * n_classes + c is the direction of (kind, class c), drawn in
    # that order from one stream.  Each row's norm is the one dot product
    # np.linalg.norm takes, so the directions keep its bits.
    v = np.random.default_rng([seed, 101]).normal(size=(len(kinds) * n_classes, d_model))
    directions = v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]
    labels = np.random.default_rng([seed, 202]).integers(0, n_classes, size=n)
    noise_rng = np.random.default_rng([seed, 303])
    clean = directions[np.array([kinds[tag] for tag in tags]) * n_classes + labels]
    tokens = clean + noise * noise_rng.normal(size=(n, d_model))
    return SyntheticBatch(tokens=tokens, modality_tags=tuple(tags),
                          position_ids=tuple(ids), labels=labels)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def cross_entropy(logits: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """Mean cross-entropy over rows, stabilized via log-sum-exp.

    Logits with leading probe axes (see the autodiff module notes) give one
    loss per probe.  The loss is where a forward's finiteness is checked: a
    NaN or infinite loss, which is what a non-finite value anywhere upstream
    leads to, raises :class:`~dyncapmoe.autodiff.NonFiniteError`.  Its
    message gives a single loss, or counts the probe losses that are not
    finite and gives the first.
    """
    z = logits.data
    if z.ndim < 2 or len(labels) != z.shape[-2]:
        raise ad.ShapeError("logits must be [n, n_classes] matching labels")
    n = z.shape[-2]
    rows = np.arange(n)
    m = z.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    value = np.mean(lse - z[..., rows, labels], axis=-1)
    bad = ~np.isfinite(value)
    if bad.ndim == 0 and bad:
        raise ad.NonFiniteError(f"cross_entropy: loss is {value.tolist()!r}")
    if bad.any():
        raise ad.NonFiniteError(f"cross_entropy: {bad.sum()} of {bad.size} probe losses are "
                                f"not finite, the first is {value[bad][0].tolist()!r}")

    def backward_fn(g):
        p = ad._softmax_data(z)
        p[rows, labels] -= 1.0
        return (g * p / n,)

    return ad.op_node(value, (logits,), backward_fn, "cross_entropy", z.ndim > 2)


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
        shapes = ((d, hd), (d, hd), (d, hd), (hd, d))  # w_q, w_k, w_v, w_o
        for li in range(cfg.layers):
            self.attn.append(_AttentionParams(*(
                ad.seeded_normal(shape, base + [li, i], std=shape[0] ** -0.5,
                                 requires_grad=True) for i, shape in enumerate(shapes))))
            self.blocks.append(moe.DynamicCapacityMoE(
                dataclasses.replace(cfg.moe, seed=cfg.moe.seed + 7919 * (li + 1))))
        self.w_cls = ad.seeded_normal((d, cfg.n_classes), base + [cfg.layers, 4],
                                      std=d ** -0.5, requires_grad=True)
        self._parameters = {name: t for stage in self.stage_parameters()
                            for name, t in stage.items()}

    def stage_parameters(self) -> list[dict[str, ad.Tensor]]:
        """One name -> tensor dict per stage of :meth:`forward`.

        Stage ``2*li`` is layer li's attention, stage ``2*li + 1`` its MoE
        (with the residual add) and stage ``2*layers`` the classifier head
        and the loss.  A stage's parameters change nothing computed by an
        earlier stage.
        """
        stages: list[dict[str, ad.Tensor]] = []
        for li, (attn, block) in enumerate(zip(self.attn, self.blocks)):
            stages.append({f"layer{li}.attn.{f.name}": getattr(attn, f.name)
                           for f in dataclasses.fields(attn)})
            stages.append({f"layer{li}.moe.{name}": t
                           for name, t in block.parameters().items()})
        stages.append({"cls.w": self.w_cls})
        return stages

    def parameters(self) -> dict[str, ad.Tensor]:
        """Every parameter by name, stage by stage: a new dict of the
        tensors the model was built with.  The table is taken once, at
        construction, so a parameter attribute replaced afterwards is not
        in it."""
        return dict(self._parameters)

    def _attend(self, X: ad.Tensor, pids, li: int) -> ad.Tensor:
        """``X + softmax(q k^T / sqrt(head_dim)) v W_o`` for layer ``li``, as
        one tape node: q and k are ``X W_q`` and ``X W_k`` with row i rotated
        by the 3D RoPE angles of ``pids[i]``, and v is ``X W_v``.

        The backward is written by hand, each gradient in the formula of
        the composed graph (``matmul``, ``apply_rope3d_rows``, ``transpose``,
        ``scale``, ``softmax``, ``add``).  ``X`` is listed as a parent once
        for each consumer it had there, the residual, then q, k and v, so
        its terms are added one at a time in that graph's order (see the
        autodiff module notes).  ``X`` and the weights may carry leading
        probe axes.
        """
        attn = self.attn[li]
        pids = tuple(pids)
        xd = X.data
        if xd.ndim < 2 or xd.shape[-2] != len(pids):
            raise ad.ShapeError(f"attention: expected {len(pids)} token rows, "
                                f"got shape {xd.shape}")
        cos, sin = rp._rope_table(pids, self.cfg.rope)
        wq, wk, wv, wo = attn.w_q.data, attn.w_k.data, attn.w_v.data, attn.w_o.data
        c = self.cfg.head_dim ** -0.5
        q = rp._rotate_pairs(xd @ wq, cos, sin)
        kt = rp._rotate_pairs(xd @ wk, cos, sin).swapaxes(-1, -2)
        v = xd @ wv
        p = ad._softmax_data((q @ kt) * c)
        mixed = p @ v

        def backward_fn(g):
            g_mixed = g @ wo.T
            g_p = g_mixed @ v.T
            g_v = p.T @ g_mixed
            g_qk = ad._softmax_vjp(p, g_p) * c
            g_q = rp._rotate_pairs(g_qk @ kt.T, cos, -sin)
            g_k = rp._rotate_pairs((q.T @ g_qk).T, cos, -sin)
            return (g, g_q @ wq.T, g_k @ wk.T, g_v @ wv.T,
                    xd.T @ g_q, xd.T @ g_k, xd.T @ g_v, mixed.T @ g)

        return ad.op_node(xd + mixed @ wo,
                          (X, X, X, X, attn.w_q, attn.w_k, attn.w_v, attn.w_o),
                          backward_fn, "attention",
                          max(xd.ndim, wq.ndim, wk.ndim, wv.ndim, wo.ndim) > 2)

    def forward(self, batch: SyntheticBatch, mode: str = "train",
                frozen: list[moe.Routing] | None = None, *,
                stage_inputs: list[tuple[np.ndarray, bool]] | None = None):
        """Full pass to the mean cross-entropy, one stage after another (see
        :meth:`stage_parameters`).

        ``mode`` is "train" or "infer" (see ``DynamicCapacityMoE.forward_rows``);
        ``frozen`` replays a recorded :class:`~dyncapmoe.moe.Routing` per layer
        and overrides it.  Returns (loss, routing of each MoE stage run, matches):
        ``matches`` is only meaningful when replaying frozen routing.  A
        replay whose parameters hold probe stacks (see :func:`grad_check`)
        returns one loss and one ``matches`` flag per probe.

        ``stage_inputs`` (internal to :func:`grad_check`) lists the inputs
        of stages 0..s as (X data, matches of the stages before).  Empty,
        the pass starts at stage 0; otherwise it resumes at stage s from the
        last entry.  Either way it appends the input of every stage it runs
        after that.  Given the same parameters a stage computes the same
        bits, so a pass resumed from a recorded prefix returns what the full
        pass returns.
        """
        start, x, matches = 0, batch.tokens, True
        if stage_inputs:
            start = len(stage_inputs) - 1
            x, matches = stage_inputs[-1]
        X = ad.Tensor(x)
        per_layer: list[moe.Routing] = []
        head = 2 * self.cfg.layers
        for stage in range(start, head + 1):
            if stage_inputs is not None and stage == len(stage_inputs):
                stage_inputs.append((X.data, matches))
            if stage == head:
                break
            li = stage // 2
            if stage % 2 == 0:
                X = self._attend(X, batch.position_ids, li)
            else:
                Y, routing, ok = self.blocks[li].forward_rows(
                    X, mode, key=(self.cfg.seed, 5077 + li),
                    frozen=frozen[li] if frozen is not None else None)
                X = ad.add(X, Y)
                matches = matches & ok
                per_layer.append(routing)
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
    full routing trace come back.  A non-finite forward, or a non-finite
    gradient before the update, aborts with the step in the diagnostic and
    leaves the parameters as the step found them.
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
        losses.append(float(loss.data))
        for li, routing in enumerate(per_layer):
            an.record_rows(trace, step, li, batch.modality_tags, routing)
        ad.backward(loss)
        for name, t in params.items():
            if t.grad is not None and not np.isfinite(t.grad).all():
                raise TrainingDivergedError(f"non-finite gradient of {name} at step {step}")
        for t in params.values():
            if t.grad is not None:
                t.data -= cfg.learning_rate * t.grad
                t.grad = None
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


def _within(err: float, tol: float) -> bool:
    """The one pass test of a gradient check; a NaN error fails it."""
    return err <= tol


@dataclasses.dataclass(frozen=True)
class GradCheckReport:
    blocks: tuple[BlockReport, ...]
    tol: float
    eps: float

    @property
    def failed_blocks(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks if not _within(b.max_rel_err, self.tol))

    @property
    def passed(self) -> bool:
        return not self.failed_blocks

    def lines(self) -> list[str]:
        out = []
        for b in self.blocks:
            status = "ok" if _within(b.max_rel_err, self.tol) else "FAIL"
            skipped = f", skipped {b.n_skipped} flipped" if b.n_skipped else ""
            out.append(f"{status:4s} {b.name}: max rel err {b.max_rel_err:.3e} "
                       f"({b.n_checked} coords{skipped})")
        return out

    def to_json_dict(self) -> dict:
        """The report as JSON-ready data.  Errors are ``repr`` strings (exact,
        and NaN stays legal JSON), so two serialized reports diff byte for
        byte."""
        return {
            "eps": self.eps, "tol": self.tol, "passed": self.passed,
            "blocks": [{"name": b.name, "max_rel_err": repr(b.max_rel_err),
                        "n_checked": b.n_checked, "n_skipped": b.n_skipped}
                       for b in self.blocks],
        }


# Coordinates that one resumed forward probes (2 x 64 probes): the widest
# row of ``smoke_train_config``.  A chunk may span parameters and stages.
_PROBE_CHUNK = 64


def grad_check(cfg: ToyModelConfig, eps: float = 1e-6,
               tol: float = 1e-4) -> GradCheckReport:
    """Central differences vs the tape, with every discrete choice frozen.

    One train-mode forward fixes the per-token active sets and (delta, B)
    draws (with the parameters' ``requires_grad`` off, so it builds no
    tape); analytic gradients come from that frozen graph.  Each coordinate
    is then perturbed by +/-eps and the frozen loss re-evaluated; if either
    perturbation would flip a live selection the coordinate is skipped and
    counted instead of compared.  ``eps`` and ``tol`` must be finite and
    positive (``ValueError`` otherwise).

    The frozen replay that yields the analytic gradients also records each
    stage's input (see :meth:`ToyTransformer.forward`).  A coordinate of
    stage s is re-evaluated by resuming the forward at stage s from that
    record: stages before s see the same parameters as the replay, so they
    would recompute the recorded bits.  Once the analytic gradients are
    taken, the model's parameters stop requiring gradients, so the
    evaluations fold into constants and build no tape.

    The evaluations run on one sequence of every coordinate of the model in
    report order (stage by stage, parameter by parameter, C order within a
    parameter), cut into chunks of at most ``_PROBE_CHUNK`` (64)
    coordinates; a chunk may span parameters and stages.  For a chunk of K
    coordinates, each parameter it touches has its ``.data`` swapped for a
    ``[2K, *shape]`` probe stack: probe i moves the chunk's coordinate i by
    ``+eps`` and probe K + i moves it by ``-eps``, and a parameter's other
    probes are unperturbed copies.  One forward, resumed at the stage of
    the chunk's first coordinate, returns all 2K losses and match flags
    (the probe axes of the autodiff module notes); then every original
    array goes back.  A stage that runs a probe with the replay's
    parameters recomputes the recorded bits, and each probe computes the
    bits of its own unbatched forward, so the report is the one a full
    forward per evaluation gives, to the bit.  A forward holds 2K copies of
    the parameters the chunk touches and 2K probes' activations, so peak
    memory grows with the chunk (at most 2 x 64 probes) rather than with
    all of a weight's coordinates at once.
    """
    ad.check_real(eps, "eps", 0.0)
    ad.check_real(tol, "tol", 0.0)
    model = ToyTransformer(cfg)
    batch = generate_batch(cfg.segments, cfg.seed, cfg.d_model, cfg.n_classes,
                           cfg.noise, cfg.theta)
    params = model.parameters()
    # the live forward only records the routing: nothing differentiates it
    for t in params.values():
        t.requires_grad = False
    _, frozen, _ = model.forward(batch, mode="train")
    for t in params.values():
        t.requires_grad = True

    stage_inputs: list[tuple[np.ndarray, bool]] = []
    loss, _, _ = model.forward(batch, frozen=frozen, stage_inputs=stage_inputs)
    ad.backward(loss)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in params.items()}
    for t in params.values():
        t.requires_grad = False

    # (name, stage, weights, first coordinate) of each parameter, in report order
    layout, total = [], 0
    for stage, stage_params in enumerate(model.stage_parameters()):
        for name, t in stage_params.items():
            layout.append((name, stage, t.data, total))
            total += t.data.size
    fd = np.zeros(total)
    keep = np.ones(total, dtype=bool)
    for lo in range(0, total, _PROBE_CHUNK):
        k = min(_PROBE_CHUNK, total - lo)
        spanned = [(name, stage, weights, first) for name, stage, weights, first in layout
                   if first < lo + k and lo < first + weights.size]
        try:
            for name, _, weights, first in spanned:
                j = np.arange(max(lo, first), min(lo + k, first + weights.size))
                probes = np.repeat(weights.reshape(1, -1), 2 * k, axis=0)
                probes[j - lo, j - first] += eps
                probes[k + j - lo, j - first] -= eps
                params[name].data = probes.reshape(2 * k, *weights.shape)
            value, _, ok = model.forward(batch, frozen=frozen,
                                         stage_inputs=stage_inputs[:spanned[0][1] + 1])
        finally:
            for name, _, weights, _ in spanned:
                params[name].data = weights
        # a chunk of weights the replay never reads leaves the loss unbatched
        loss = np.broadcast_to(value.data, (2 * k,))
        ok = np.broadcast_to(ok, (2 * k,))
        keep[lo:lo + k] = ok[:k] & ok[k:]
        fd[lo:lo + k] = (loss[:k] - loss[k:]) / (2.0 * eps)

    blocks = []
    for name, _, weights, first in layout:
        span = slice(first, first + weights.size)
        kept = keep[span]
        err = (ad.max_rel_err(analytic[name].reshape(-1)[kept], fd[span][kept])
               if kept.any() else 0.0)
        blocks.append(BlockReport(name=name, max_rel_err=float(err),
                                  n_checked=int(kept.sum()),
                                  n_skipped=int(kept.size - kept.sum())))
    return GradCheckReport(blocks=tuple(blocks), tol=tol, eps=eps)
