"""Dynamic-capacity mixture-of-experts layer.

A linear router scores every routable slot, softmax turns the scores into a
probability vector, and a Top-P rule activates the smallest set of experts
whose probability mass reaches the threshold — so easy tokens get one expert
and ambiguous ones get several.  Three expert roles exist:

* ``routed``  — gated feed-forward experts selected per token,
* ``null``    — routable slots with no parameters whose output is identically
  zero (activating one means "do nothing with this share of the mass"),
* ``shared``  — experts applied to every token unconditionally, outside
  routing.

Two selection modes are provided.  ``deterministic`` takes the descending-
probability prefix; ``sampled`` draws experts without replacement until the
drawn original probability mass reaches P.  ``routing_mode`` applies to
training forwards only: inference always takes the deterministic prefix, so
it draws nothing and needs no rng.  Training forwards wrap each routed
contribution in the hybrid straight-through estimator from
:mod:`dyncapmoe.estimator`; gate probabilities are never renormalized after
selection.

:meth:`DynamicCapacityMoE.forward_rows` runs the layer on a batch of token
rows: one router product, vectorized deterministic selection, and one gated
FFN per routed expert over the rows of the tokens that chose it (dropless
grouped dispatch).  The per-token forwards are one-row calls of it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import estimator as est

__all__ = [
    "ExpertRole",
    "MoEConfig",
    "RouterState",
    "ExpertActivation",
    "RoutingDecision",
    "ExpertParams",
    "DynamicCapacityMoE",
    "gated_ffn",
    "select_top_p_deterministic",
    "select_top_p_sampled",
]


class ExpertRole(enum.Enum):
    ROUTED = "routed"
    NULL = "null"
    SHARED = "shared"


_ROUTING_MODES = ("deterministic", "sampled")


@dataclasses.dataclass(frozen=True)
class MoEConfig:
    """Static layer configuration.

    ``n_routed`` counts parameterized routed experts; ``n_null`` adds
    parameter-free routable slots after them.  ``shared_hidden`` defaults to
    one eighth of ``expert_hidden`` (never below 1).
    """

    d_model: int
    n_routed: int
    expert_hidden: int
    n_null: int = 0
    n_shared: int = 0
    shared_hidden: int | None = None
    top_p: float = 0.7
    routing_mode: str = "deterministic"
    seed: int = 0

    def __post_init__(self):
        if self.d_model < 1 or self.n_routed < 1 or self.expert_hidden < 1:
            raise ValueError("d_model, n_routed and expert_hidden must be positive")
        if self.n_null < 0 or self.n_shared < 0:
            raise ValueError("n_null and n_shared must be non-negative")
        if self.shared_hidden is None:
            object.__setattr__(self, "shared_hidden", max(1, self.expert_hidden // 8))
        if self.shared_hidden < 1:
            raise ValueError("shared_hidden must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.routing_mode not in _ROUTING_MODES:
            raise ValueError(f"routing_mode must be one of {_ROUTING_MODES}")

    @property
    def n_slots(self) -> int:
        """Routable slots: routed experts plus null slots."""
        return self.n_routed + self.n_null

    def role_of_slot(self, slot: int) -> ExpertRole:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range for {self.n_slots} routable slots")
        return ExpertRole.ROUTED if slot < self.n_routed else ExpertRole.NULL


@dataclasses.dataclass(frozen=True)
class RouterState:
    """Per-token routing tape nodes: logits ``z = W_r x`` and ``p = softmax(z)``."""

    logits: ad.Tensor
    probs: ad.Tensor

    @property
    def argmax_slot(self) -> int:
        # ties resolve to the lowest index (np.argmax convention)
        return int(np.argmax(self.logits.data))


@dataclasses.dataclass(frozen=True)
class ExpertActivation:
    """One activated slot: its gate, rank in selection order and, in train
    mode, the estimator draw (``bern`` stays None at inference)."""

    index: int
    role: ExpertRole
    gate_prob: float
    rank: int
    is_argmax: bool
    bern: int | None = None
    forward_scale: float = 1.0


@dataclasses.dataclass(frozen=True)
class RoutingDecision:
    """Outcome of selection for a single token.

    ``active``/``per_expert`` cover routable slots in selection order
    (``k == len(active)``); ``shared`` lists the always-on experts with
    sentinel rank -1 so analytics can log them alongside.
    """

    active: tuple[int, ...]
    k: int
    per_expert: tuple[ExpertActivation, ...]
    shared: tuple[ExpertActivation, ...] = ()

    def __post_init__(self):
        if self.k != len(self.active) or self.k != len(self.per_expert):
            raise ValueError("k must equal the number of activated routable slots")
        if self.k < 1:
            raise ValueError("at least one routable slot must be active")
        if len(set(self.active)) != self.k:
            raise ValueError("active slots must be unique")

    def gate_mass(self) -> float:
        """Sum of raw gate probabilities over the active routable slots."""
        return float(sum(e.gate_prob for e in self.per_expert))


def _check_probs(p: np.ndarray, top_p: float) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be 1-D and non-empty")
    if not 0.0 < top_p <= 1.0:
        raise ValueError("top_p must lie in (0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return p


def _decision_from_order(order: Sequence[int], p: np.ndarray, argmax_slot: int,
                         n_routed: int, berns: Sequence[int] | None = None,
                         shared: tuple[ExpertActivation, ...] = ()) -> RoutingDecision:
    """Decision activating ``order`` (slots in selection order); with
    ``berns``, entry r carries draw ``berns[r]`` and its estimator scale."""
    routed, null = ExpertRole.ROUTED, ExpertRole.NULL
    entries = []
    for rank, slot in enumerate(order):
        is_argmax = slot == argmax_slot
        bern, scale = None, 1.0
        if berns is not None:
            bern = berns[rank]
            scale = est.hybrid_scale(int(is_argmax), bern)
        entries.append(ExpertActivation(
            index=slot, role=routed if slot < n_routed else null,
            gate_prob=float(p[slot]), rank=rank, is_argmax=is_argmax, bern=bern,
            forward_scale=scale))
    return RoutingDecision(active=tuple(order), k=len(order), per_expert=tuple(entries),
                           shared=shared)


def _prefix_lists(P: np.ndarray, top_p: float) -> list[list[int]]:
    """Deterministic Top-P on every row of ``P`` [n, slots]: the active
    slots of each row, in selection order.

    Ties sort stably, lower index first; a row whose full sum falls short of
    ``top_p`` through rounding activates every slot.
    """
    order = np.argsort(-P, axis=1, kind="stable")
    reach = np.cumsum(np.take_along_axis(P, order, axis=1), axis=1) >= top_p
    k = np.where(reach.any(axis=1), reach.argmax(axis=1) + 1, P.shape[1])
    return [row[:kk] for row, kk in zip(order.tolist(), k.tolist())]


def _draw_top_p(p: np.ndarray, top_p: float, rng: np.random.Generator) -> list[int]:
    """Sampled Top-P draw order; one uniform variate per draw."""
    remaining = list(range(p.size))
    drawn: list[int] = []
    mass = 0.0
    while remaining:
        weights = p[remaining]
        total = float(weights.sum())
        if total <= 0.0:
            break  # only zero-probability slots left; mass cannot grow
        cdf = np.cumsum(weights) / total
        j = int(np.searchsorted(cdf, rng.random(), side="right"))
        j = min(j, len(remaining) - 1)
        slot = remaining.pop(j)
        drawn.append(slot)
        mass += float(p[slot])
        if mass >= top_p:
            break
    return drawn


def select_top_p_deterministic(p: np.ndarray, top_p: float,
                               argmax_slot: int | None = None,
                               n_routed: int | None = None) -> RoutingDecision:
    """Minimal descending-probability prefix with cumulative mass >= top_p.

    Ties sort stably, lower index first.  If rounding leaves the full sum
    short of ``top_p`` (only possible at top_p == 1), every slot activates.
    """
    p = _check_probs(p, top_p)
    if argmax_slot is None:
        argmax_slot = int(np.argmax(p))
    if n_routed is None:
        n_routed = p.size
    return _decision_from_order(_prefix_lists(p[None, :], top_p)[0], p, argmax_slot,
                                n_routed)


def select_top_p_sampled(p: np.ndarray, top_p: float, rng: np.random.Generator,
                         argmax_slot: int | None = None,
                         n_routed: int | None = None) -> RoutingDecision:
    """Draw slots without replacement (renormalized remaining mass) until the
    ORIGINAL probabilities of the drawn slots sum to >= top_p.

    Zero-probability slots are never drawn while positive mass remains; one
    uniform variate is consumed per draw (inverse-CDF over the remainder).
    """
    p = _check_probs(p, top_p)
    drawn = _draw_top_p(p, top_p, rng)
    if argmax_slot is None:
        argmax_slot = int(np.argmax(p))
    if n_routed is None:
        n_routed = p.size
    return _decision_from_order(drawn, p, argmax_slot, n_routed)


@dataclasses.dataclass(frozen=True)
class ExpertParams:
    """Gated feed-forward expert: d_model -> hidden -> d_model."""

    w_gate: ad.Tensor
    w_up: ad.Tensor
    w_down: ad.Tensor


def gated_ffn(x: ad.Tensor, params: ExpertParams) -> ad.Tensor:
    """W_down @ (silu(W_gate @ x) * (W_up @ x)) for a token ``x`` [d_model],
    or row by row for token rows ``x`` [m, d_model]."""
    apply = ad.matmul if x.data.ndim == 1 else ad.matvec_rows
    gate = ad.silu(apply(params.w_gate, x))
    up = apply(params.w_up, x)
    return apply(params.w_down, ad.mul(gate, up))


def _init_expert(d_model: int, hidden: int, seed_key: list) -> ExpertParams:
    return ExpertParams(
        w_gate=ad.seeded_normal((hidden, d_model), seed_key + [0], std=d_model ** -0.5,
                                requires_grad=True),
        w_up=ad.seeded_normal((hidden, d_model), seed_key + [1], std=d_model ** -0.5,
                              requires_grad=True),
        w_down=ad.seeded_normal((d_model, hidden), seed_key + [2], std=hidden ** -0.5,
                                requires_grad=True),
    )


class DynamicCapacityMoE:
    """The MoE layer: router weight, routed/shared expert banks, null slots.

    Routable slot indices 0..n_routed-1 are parameterized experts and
    n_routed..n_slots-1 are null slots.  ``expert_forward`` additionally
    accepts n_slots..n_slots+n_shared-1 for the shared experts.
    """

    def __init__(self, config: MoEConfig):
        self.config = config
        base = [config.seed, 1013]  # constant stream tag separating init from runtime draws
        self.router = ad.seeded_normal((config.n_slots, config.d_model), base + [0],
                                       std=config.d_model ** -0.5, requires_grad=True)
        self.routed = [_init_expert(config.d_model, config.expert_hidden, base + [1 + i])
                       for i in range(config.n_routed)]
        self.shared = [_init_expert(config.d_model, config.shared_hidden,
                                    base + [1 + config.n_routed + s])
                       for s in range(config.n_shared)]

    # ---------------------------------------------------------------- params

    def parameters(self) -> dict[str, ad.Tensor]:
        out = {"router": self.router}
        for i, e in enumerate(self.routed):
            out.update({f"routed{i}.w_gate": e.w_gate, f"routed{i}.w_up": e.w_up,
                        f"routed{i}.w_down": e.w_down})
        for s, e in enumerate(self.shared):
            out.update({f"shared{s}.w_gate": e.w_gate, f"shared{s}.w_up": e.w_up,
                        f"shared{s}.w_down": e.w_down})
        return out

    # --------------------------------------------------------------- routing

    def route(self, x: ad.Tensor) -> RouterState:
        if x.data.shape != (self.config.d_model,):
            raise ad.ShapeError(f"token must have shape ({self.config.d_model},), "
                                f"got {x.data.shape}")
        logits = ad.matmul(self.router, x)
        return RouterState(logits=logits, probs=ad.softmax(logits))

    def expert_forward(self, x: ad.Tensor, index: int) -> ad.Tensor:
        cfg = self.config
        if 0 <= index < cfg.n_routed:
            return gated_ffn(x, self.routed[index])
        if cfg.n_routed <= index < cfg.n_slots:
            return ad.zeros((cfg.d_model,))  # null slot: constant zero, no tape
        if cfg.n_slots <= index < cfg.n_slots + cfg.n_shared:
            return gated_ffn(x, self.shared[index - cfg.n_slots])
        raise IndexError(f"expert index {index} out of range")

    # -------------------------------------------------------------- forwards

    def forward_rows(self, X: ad.Tensor, mode: str = "infer",
                     key: Sequence[int] | None = None,
                     frozen: Sequence[RoutingDecision] | None = None,
                     ) -> tuple[ad.Tensor, list[RoutingDecision], bool]:
        """The layer on a batch: row t of ``X`` [n, d_model] is token t.

        Returns ``(Y, decisions, matches)``: ``Y`` [n, d_model] holds each
        token's mixture output (no residual), ``decisions`` one
        RoutingDecision per token.

        * ``mode="infer"``: the deterministic Top-P prefix, whatever
          ``config.routing_mode``; gates are raw probabilities.
        * ``mode="train"``: selection follows ``config.routing_mode`` and
          every routed contribution goes through the hybrid estimator.
          Token t draws from ``np.random.default_rng([*key, t])``: the
          sampled selection first, then one B ~ Bernoulli(5/8) per active
          slot in rank order, null slots included.
        * ``frozen`` (one recorded decision per token) replays those
          choices and ignores ``mode`` and ``key``; see
          :meth:`forward_frozen`.  ``matches`` is only meaningful here.

        Each routed expert runs once on the rows of the tokens that chose
        it; null slots never reach the tape and shared experts run on every
        row.  Every row is computed as it would be alone, bit for bit.
        """
        if mode not in ("infer", "train"):
            raise ValueError("mode must be 'infer' or 'train'")
        if X.data.ndim != 2 or X.data.shape[1] != self.config.d_model:
            raise ad.ShapeError(f"token rows must have shape (n, {self.config.d_model}), "
                                f"got {X.data.shape}")
        rngs = None
        if frozen is None and mode == "train":
            if key is None:
                raise ValueError("train mode needs an rng key")
            rngs = [np.random.default_rng([*key, t]) for t in range(X.data.shape[0])]
        return self._forward_rows(X, rngs, frozen)

    def _forward_rows(self, X: ad.Tensor, rngs, frozen):
        """``forward_rows`` with per-token generators: train when ``rngs`` is
        given, replay when ``frozen`` is, inference otherwise."""
        cfg = self.config
        n = X.data.shape[0]
        logits = ad.matvec_rows(self.router, X)
        probs = ad.softmax(logits)
        P = probs.data
        p_rows = P.tolist()
        argmax = np.argmax(logits.data, axis=1).tolist()  # ties: lowest index
        matches = True
        if frozen is not None:
            if len(frozen) != n:
                raise ValueError(f"need one frozen decision per token, got {len(frozen)} "
                                 f"for {n}")
            decisions = list(frozen)
            matches = all(e.is_argmax == (e.index == argmax[t])
                          for t, d in enumerate(decisions) for e in d.per_expert)
            if cfg.routing_mode == "deterministic":
                matches = matches and all(tuple(slots) == d.active for slots, d in
                                          zip(_prefix_lists(P, cfg.top_p), decisions))
        else:
            if rngs is not None and cfg.routing_mode == "sampled":
                orders = [_draw_top_p(P[t], cfg.top_p, rngs[t]) for t in range(n)]
            else:
                orders = _prefix_lists(P, cfg.top_p)
            shared = self._shared_entries()
            decisions = []
            for t, slots in enumerate(orders):
                berns = None
                if rngs is not None:
                    berns = [int(u < est.BERNOULLI_P) for u in rngs[t].random(len(slots))]
                decisions.append(_decision_from_order(slots, p_rows[t], argmax[t],
                                                      cfg.n_routed, berns, shared))
        Y = self._mix(X, probs, decisions, train=rngs is not None,
                      replay=frozen is not None)
        for params in self.shared:
            out = gated_ffn(X, params)
            Y = out if Y is None else ad.add(Y, out)
        if Y is None:
            Y = ad.zeros((n, cfg.d_model))
        return Y, decisions, matches

    def _mix(self, X: ad.Tensor, probs: ad.Tensor, decisions, train: bool,
             replay: bool) -> ad.Tensor | None:
        """Sum of the routed contributions per token; None if there are none.

        Contributions are (token, rank) pairs listed rank-major: each expert
        fills its pairs' rows of a pair buffer, and one scatter then adds the
        buffer into the output in that order, so every token sums its terms
        in selection order, exactly as a per-token left fold does.
        """
        cfg = self.config
        pairs = sorted((e.rank, t, e.index, int(e.is_argmax), e.bern, e.forward_scale)
                       for t, d in enumerate(decisions) for e in d.per_expert
                       if e.role is ExpertRole.ROUTED)
        if not pairs:
            return None
        _, tok, slot, delta, bern, scale = (np.array(col) for col in zip(*pairs))
        gates = ad.transpose(probs)  # row j: every token's gate for slot j
        buf = ad.zeros((len(pairs), cfg.d_model))
        for j, params in enumerate(self.routed):
            pos = np.flatnonzero(slot == j)
            if not pos.size:
                continue
            rows = tok[pos]
            o = ad.scale_rows(gated_ffn(ad.gather_rows(X, rows), params),
                              ad.gather_rows(ad.row(gates, j), rows))
            if train:
                o = est.apply_estimator(o, delta[pos], bern[pos])
            elif replay:
                o = ad.scale_rows(o, ad.Tensor(scale[pos]))
            buf = ad.scatter_add_rows(buf, pos, o)
        return ad.scatter_add_rows(ad.zeros((len(X.data), cfg.d_model)), tok, buf)

    def _shared_entries(self) -> tuple[ExpertActivation, ...]:
        return tuple(ExpertActivation(
            index=self.config.n_slots + s, role=ExpertRole.SHARED, gate_prob=1.0,
            rank=-1, is_argmax=False) for s in range(self.config.n_shared))

    def _forward_token(self, x: ad.Tensor, rngs, frozen):
        if x.data.shape != (self.config.d_model,):
            raise ad.ShapeError(f"token must have shape ({self.config.d_model},), "
                                f"got {x.data.shape}")
        Y, decisions, matches = self._forward_rows(ad.stack_rows([x]), rngs, frozen)
        return ad.row(Y, 0), decisions[0], matches

    def forward_infer(self, x: ad.Tensor) -> tuple[ad.Tensor, RoutingDecision]:
        """y = sum over active slots of p_i * Expert_i(x), plus shared experts.

        Selection is the deterministic Top-P prefix in every routing mode.
        Gates are the raw softmax probabilities; null slots contribute zero
        and are skipped outright.
        """
        y, decision, _ = self._forward_token(x, None, None)
        return y, decision

    def forward_train(self, x: ad.Tensor,
                      rng: np.random.Generator) -> tuple[ad.Tensor, RoutingDecision]:
        """Training forward: estimator-wrapped routed contributions.

        For every activated slot D (null slots included, keeping the rng
        stream aligned with the decision record): draw B ~ Bernoulli(5/8),
        set delta = [D == argmax z], and add apply_estimator(p_D * E_D(x)).
        Shared experts are added plainly.  Selection follows
        ``config.routing_mode``; sampled draws consume the same rng first.
        """
        y, decision, _ = self._forward_token(x, [rng], None)
        return y, decision

    def forward_frozen(self, x: ad.Tensor,
                       frozen: RoutingDecision) -> tuple[ad.Tensor, bool]:
        """Replay a recorded decision with its forward scales as constants.

        Gate probabilities stay live on the tape; the discrete choices
        (active set, delta, B — hence each slot's scale) are pinned, so the
        graph is the smooth branch of the objective and its backward pass is
        the true derivative.  This is what finite-difference checks compare
        against — unlike ``forward_train``, whose estimator deliberately
        routes gradients at 2x regardless of the forward scale.

        The returned flag reports whether a live re-selection at the current
        parameters would still make the same choices (argmax slot and, in
        deterministic mode, the same active set); finite-difference checks
        skip coordinates where it flips.
        """
        y, _, matches = self._forward_token(x, None, [frozen])
        return y, matches

    # ----------------------------------------------------------------- batch

    def layer_apply(self, tokens, mode: str = "infer",
                    step: int = 0) -> tuple[list[ad.Tensor], list[RoutingDecision]]:
        """:meth:`forward_rows` on a list of tokens, one output per token.

        Train mode keys token t's rng stream (config.seed, step, t), so
        logging is order-independent; infer mode draws nothing.
        """
        xs = [t if isinstance(t, ad.Tensor) else ad.Tensor(t) for t in tokens]
        if not xs:
            raise ValueError("token batch must be non-empty")
        Y, decisions, _ = self.forward_rows(ad.stack_rows(xs), mode,
                                            key=(self.config.seed, step))
        return [ad.row(Y, t) for t in range(len(xs))], decisions
