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
drawn original probability mass reaches P.  Both take the same prefix rule:
sampled selection only sorts by Gumbel keys instead of probabilities.
``routing_mode`` applies to training forwards only: inference always takes
the deterministic prefix, so it draws nothing and needs no rng.  Training
forwards wrap each routed contribution in the hybrid straight-through
estimator from :mod:`dyncapmoe.estimator`; gate probabilities are never
renormalized after selection.

:meth:`DynamicCapacityMoE.forward_rows` runs the layer on a batch of token
rows: one router product, one uniform block in training, vectorized
selection, one gated FFN per routed expert over the rows of the tokens
that chose it (dropless grouped dispatch; each FFN call is one tape node,
see :func:`gated_ffn`), then one routing step that applies gates, forward
scales and the estimator to every (token, slot) pair at once.  It returns
the batch's choices as one :class:`Routing`, ``[n, n_slots]`` arrays of
rank, gate, argmax flag, B draw and forward scale; a token's
:class:`RoutingDecision` is built only when someone indexes the Routing.
Frozen replay takes a Routing back, hand-edited with
:func:`dataclasses.replace` if need be.  The per-token forwards are one-row
calls of ``forward_rows``.
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
    "Routing",
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
        for name, low in (("d_model", 1), ("n_routed", 1), ("expert_hidden", 1),
                          ("n_null", 0), ("n_shared", 0), ("seed", 0)):
            ad.check_int(getattr(self, name), name, low)
        if self.shared_hidden is None:
            object.__setattr__(self, "shared_hidden", max(1, self.expert_hidden // 8))
        ad.check_int(self.shared_hidden, "shared_hidden", 1)
        ad.check_real(self.top_p, "top_p", 0.0, 1.0)
        if self.routing_mode not in _ROUTING_MODES:
            raise ValueError(f"routing_mode must be one of {_ROUTING_MODES}")

    @property
    def n_slots(self) -> int:
        """Routable slots: routed experts plus null slots."""
        return self.n_routed + self.n_null


@dataclasses.dataclass(frozen=True)
class RouterState:
    """Per-token routing tape nodes: logits ``z = W_r x`` and ``p = softmax(z)``."""

    logits: ad.Tensor
    probs: ad.Tensor


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


@dataclasses.dataclass(frozen=True, eq=False)
class Routing(Sequence[RoutingDecision]):
    """One layer's routing result for a batch of tokens, as columns.

    Every array is a read-only ``[n, n_slots]`` view, row t for token t:

    * ``rank``: selection order of each slot, -1 where the slot is inactive
      (k of a row is its count of ranks >= 0);
    * ``gate``: the raw router probabilities;
    * ``is_argmax``: the slot is the row's logit argmax;
    * ``bern``: the estimator's B draw (bool), or None where nothing was
      drawn (inference);
    * ``scale``: the forward scale max(delta, (1+2B)/3), derived from
      ``is_argmax`` and ``bern`` (all ones when ``bern`` is None).

    Only active entries carry meaning.  ``n_routed`` and ``n_shared`` fix
    each slot's role and the always-on shared experts.  As a read-only
    sequence, ``routing[t]`` is token t's :class:`RoutingDecision`, built
    when asked for.
    """

    rank: np.ndarray
    gate: np.ndarray
    is_argmax: np.ndarray
    bern: np.ndarray | None
    scale: np.ndarray = dataclasses.field(init=False)
    n_routed: int
    n_shared: int = 0

    def __post_init__(self):
        if np.ndim(self.rank) != 2:
            raise ValueError("rank must be [n, n_slots]")
        for name in ("rank", "gate", "is_argmax", "bern"):
            array = getattr(self, name)
            if array is None:
                continue
            view = np.asarray(array).view()
            if view.shape != np.shape(self.rank):
                raise ValueError(f"{name} must have the shape of rank")
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "scale", np.ones(self.rank.shape) if self.bern is None
                           else est.hybrid_scale(self.is_argmax, self.bern))
        self.scale.flags.writeable = False

    def __len__(self) -> int:
        return self.rank.shape[0]

    def __getitem__(self, t: int) -> RoutingDecision:
        n, n_slots = self.rank.shape
        if not -n <= t < n:
            raise IndexError(f"token {t} out of range for {n} tokens")
        rank = self.rank[t]
        k = int((rank >= 0).sum())
        order = np.argsort(np.where(rank >= 0, rank, n_slots), kind="stable")[:k].tolist()
        gate, is_argmax, scale = (a[t].tolist() for a in (self.gate, self.is_argmax,
                                                          self.scale))
        bern = [None] * n_slots if self.bern is None else self.bern[t].astype(int).tolist()
        per_expert = tuple(ExpertActivation(
            index=slot, role=ExpertRole.ROUTED if slot < self.n_routed else ExpertRole.NULL,
            gate_prob=gate[slot], rank=r, is_argmax=is_argmax[slot], bern=bern[slot],
            forward_scale=scale[slot]) for r, slot in enumerate(order))
        shared = tuple(ExpertActivation(
            index=n_slots + s, role=ExpertRole.SHARED, gate_prob=1.0, rank=-1,
            is_argmax=False) for s in range(self.n_shared))
        return RoutingDecision(active=tuple(order), k=k, per_expert=per_expert,
                               shared=shared)


def _check_probs(p: np.ndarray, top_p: float) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be 1-D and non-empty")
    ad.check_real(top_p, "top_p", 0.0, 1.0)
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return p


def _prefix_ranks(P: np.ndarray, top_p: float, U: np.ndarray | None = None) -> np.ndarray:
    """Top-P on every row of ``P`` [n, slots]: each slot's rank in the row's
    selection order, -1 where it stays inactive.

    Without ``U`` the order is descending probability, ties stably lower
    index first: deterministic Top-P.  With uniforms ``U`` [n, slots] it is
    descending Gumbel key ``log p - log(-log u)``, which orders the slots as
    drawing without replacement in proportion to p does (Gumbel-top-k);
    a zero probability or ``u == 0`` sorts last.  Either way the row takes
    the shortest prefix whose original mass reaches ``top_p``, and a row
    whose full sum falls short through rounding activates every slot.
    """
    n_slots = P.shape[1]
    keys = P
    if U is not None:
        with np.errstate(divide="ignore"):
            keys = np.log(P) - np.log(-np.log(U))
    order = np.argsort(-keys, axis=1, kind="stable")
    reach = np.cumsum(np.take_along_axis(P, order, axis=1), axis=1) >= top_p
    k = np.where(reach.any(axis=1), reach.argmax(axis=1) + 1, n_slots)
    ranks = np.arange(n_slots)
    rank = np.empty(P.shape, dtype=np.int64)
    np.put_along_axis(rank, order, np.where(ranks < k[:, None], ranks, -1), axis=1)
    return rank


def _one_token(rank: np.ndarray, p: np.ndarray) -> RoutingDecision:
    """The inference decision of one token with selection ranks ``rank``;
    the argmax is p's and every slot counts as routed."""
    is_argmax = (np.arange(p.size) == np.argmax(p))[None, :]
    return Routing(rank, p[None, :], is_argmax, None, p.size)[0]


def select_top_p_deterministic(p: np.ndarray, top_p: float) -> RoutingDecision:
    """Minimal descending-probability prefix with cumulative mass >= top_p.

    Ties sort stably, lower index first.  If rounding leaves the full sum
    short of ``top_p`` (only possible at top_p == 1), every slot activates.
    """
    p = _check_probs(p, top_p)
    return _one_token(_prefix_ranks(p[None, :], top_p), p)


def select_top_p_sampled(p: np.ndarray, top_p: float,
                         rng: np.random.Generator) -> RoutingDecision:
    """Draw slots without replacement (renormalized remaining mass) until the
    ORIGINAL probabilities of the drawn slots sum to >= top_p.

    The draw order is the Gumbel-top-k order of ``p.size`` uniforms from
    ``rng``, one per slot (see ``_prefix_ranks``); zero-probability slots
    are never drawn while positive mass remains.
    """
    p = _check_probs(p, top_p)
    return _one_token(_prefix_ranks(p[None, :], top_p, rng.random((1, p.size))), p)


@dataclasses.dataclass(frozen=True)
class ExpertParams:
    """Gated feed-forward expert: d_model -> hidden -> d_model."""

    w_gate: ad.Tensor
    w_up: ad.Tensor
    w_down: ad.Tensor


def gated_ffn(x: ad.Tensor, params: ExpertParams) -> ad.Tensor:
    """``W_down @ (silu(W_gate @ x_i) * (W_up @ x_i))`` for every row ``x_i``
    of the token rows ``x`` [m, d_model], as one tape node.

    Every product is a per-row matrix-vector product, as in
    :func:`~dyncapmoe.autodiff.matvec_rows`, so a row's output does not
    depend on the other rows.  The backward is written by hand.  ``x`` is
    listed as a parent twice, once for each product that reads it, gate
    before up, so :func:`~dyncapmoe.autodiff.backward` adds its two terms
    one at a time, as the five-op graph ``matvec_rows``, ``silu``,
    ``matvec_rows``, ``mul``, ``matvec_rows`` does (see the autodiff module
    notes).
    """
    xd, wg, wu, wd = x.data, params.w_gate.data, params.w_up.data, params.w_down.data
    if xd.ndim != 2 or xd.shape[1] != wg.shape[1]:
        raise ad.ShapeError(f"gated_ffn: token rows must have shape (m, {wg.shape[1]}), "
                            f"got {xd.shape}")
    a = np.matmul(wg, xd[:, :, None])[:, :, 0]
    s = ad._sigmoid(a)
    gate = a * s
    up = np.matmul(wu, xd[:, :, None])[:, :, 0]
    h = gate * up

    def backward_fn(g):
        g_h = g @ wd
        g_a = g_h * up * ad._silu_slope(a, s)
        g_up = g_h * gate
        return g_a @ wg, g_up @ wu, g_a.T @ xd, g_up.T @ xd, g.T @ h

    return ad.op_node(np.matmul(wd, h[:, :, None])[:, :, 0],
                      (x, x, params.w_gate, params.w_up, params.w_down), backward_fn,
                      "gated_ffn")


def _init_expert(d_model: int, hidden: int, seed_key: list) -> ExpertParams:
    """w_gate, w_up and w_down, each Normal(0, fan_in ** -0.5) on its own stream."""
    shapes = ((hidden, d_model), (hidden, d_model), (d_model, hidden))
    return ExpertParams(*(ad.seeded_normal(shape, seed_key + [i], std=shape[1] ** -0.5,
                                           requires_grad=True)
                          for i, shape in enumerate(shapes)))


class DynamicCapacityMoE:
    """The MoE layer: router weight, routed/shared expert banks, null slots.

    Routable slot indices 0..n_routed-1 are parameterized experts and
    n_routed..n_slots-1 are null slots; the shared experts sit outside
    routing.
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
        for bank, experts in (("routed", self.routed), ("shared", self.shared)):
            for i, e in enumerate(experts):
                out.update({f"{bank}{i}.{f.name}": getattr(e, f.name)
                            for f in dataclasses.fields(e)})
        return out

    # --------------------------------------------------------------- routing

    def route(self, x: ad.Tensor) -> RouterState:
        if x.data.shape != (self.config.d_model,):
            raise ad.ShapeError(f"token must have shape ({self.config.d_model},), "
                                f"got {x.data.shape}")
        logits = ad.matmul(self.router, x)
        return RouterState(logits=logits, probs=ad.softmax(logits))

    # -------------------------------------------------------------- forwards

    def forward_rows(self, X: ad.Tensor, mode: str = "infer",
                     key: Sequence[int] | None = None,
                     frozen: Routing | None = None,
                     ) -> tuple[ad.Tensor, Routing, bool]:
        """The layer on a batch: row t of ``X`` [n, d_model] is token t.

        Returns ``(Y, routing, matches)``: ``Y`` [n, d_model] holds each
        token's mixture output (no residual), ``routing`` the batch's
        :class:`Routing` (``routing[t]`` is token t's decision).

        * ``mode="infer"``: the deterministic Top-P prefix, whatever
          ``config.routing_mode``; gates are raw probabilities.
        * ``mode="train"``: selection follows ``config.routing_mode`` and
          every routed contribution goes through the hybrid estimator.
          The forward draws one uniform block
          ``Generator(Philox(key)).random((n, 2 * n_slots))``; row t, which
          depends on ``key`` and t only, is token t's.  Sampled selection
          ranks its first n_slots entries as Gumbel keys, and entry
          n_slots + j sets B ~ Bernoulli(5/8) of slot j.
        * ``frozen`` (a recorded Routing of n rows) replays those choices,
          with its forward scales as constants when it carries B draws,
          and ignores ``mode`` and ``key``; see :meth:`forward_frozen`.
          ``matches`` is only meaningful here.

        Each routed expert runs once on the rows of the tokens that chose
        it, then gates, scales and the estimator apply to all pairs at once;
        null slots never reach the tape and shared experts run on every row.
        Every row is computed as it would be alone, bit for bit.
        """
        if mode not in ("infer", "train"):
            raise ValueError("mode must be 'infer' or 'train'")
        if X.data.ndim != 2 or X.data.shape[1] != self.config.d_model:
            raise ad.ShapeError(f"token rows must have shape (n, {self.config.d_model}), "
                                f"got {X.data.shape}")
        U = None
        if frozen is None and mode == "train":
            if key is None:
                raise ValueError("train mode needs an rng key")
            U = np.random.Generator(np.random.Philox(list(key))).random(
                (X.data.shape[0], 2 * self.config.n_slots))
        return self._forward_rows(X, U, frozen)

    def _forward_rows(self, X: ad.Tensor, U: np.ndarray | None, frozen: Routing | None):
        """``forward_rows`` on a uniform block: train when ``U`` [n, 2 * n_slots]
        is given, replay when ``frozen`` is, inference otherwise."""
        cfg = self.config
        n = X.data.shape[0]
        if frozen is not None and (len(frozen) != n or frozen.rank.shape[1] != cfg.n_slots):
            raise ValueError(f"frozen routing must cover {n} tokens and {cfg.n_slots} slots")
        logits = ad.matvec_rows(self.router, X)
        probs = ad.softmax(logits)
        P = probs.data
        is_argmax = np.argmax(logits.data, axis=1)[:, None] == np.arange(cfg.n_slots)
        matches = True
        if frozen is not None:
            routing = frozen
            active = routing.rank >= 0
            matches = not (active & (routing.is_argmax != is_argmax)).any()
            if cfg.routing_mode == "deterministic":
                matches = matches and np.array_equal(_prefix_ranks(P, cfg.top_p),
                                                     routing.rank)
        elif U is None:
            routing = Routing(_prefix_ranks(P, cfg.top_p), P, is_argmax, None,
                              cfg.n_routed, cfg.n_shared)
        else:
            sampled = cfg.routing_mode == "sampled"
            rank = _prefix_ranks(P, cfg.top_p, U[:, :cfg.n_slots] if sampled else None)
            bern = U[:, cfg.n_slots:] < est.BERNOULLI_P
            routing = Routing(rank, P, is_argmax, bern, cfg.n_routed, cfg.n_shared)
        Y = self._mix(X, probs, routing, train=U is not None)
        for params in self.shared:
            Y = ad.add(Y, gated_ffn(X, params))
        return Y, routing, matches

    def _mix(self, X: ad.Tensor, probs: ad.Tensor, routing: Routing,
             train: bool) -> ad.Tensor:
        """Sum of the routed contributions per token, zeros if there are none.

        Contributions are (token, rank) pairs listed rank-major.  Each expert
        runs on its pairs' tokens, and one op places every expert's rows at
        its pairs' positions of a pair buffer; then the gates, the gradient
        rule (the estimator in training, the recorded scales on a replay
        with B draws) and one scatter into the output apply to every pair
        at once.  The scatter adds rows in pair order, a left fold, so each
        token sums its terms in selection order.
        """
        cfg = self.config
        rank = routing.rank[:, :cfg.n_routed]
        tok, slot = np.nonzero(rank >= 0)
        if not tok.size:
            return ad.zeros((len(X.data), cfg.d_model))
        order = np.lexsort((tok, rank[tok, slot]))
        tok, slot = tok[order], slot[order]
        # the indices come from np.nonzero, so they meet the row ops' preconditions
        parts, positions = [], []
        for j, params in enumerate(self.routed):
            pos = np.flatnonzero(slot == j)
            if pos.size:
                parts.append(gated_ffn(ad._gather_rows(X, tok[pos]), params))
                positions.append(pos)
        buf = ad._place_rows(tok.size, parts, positions)
        buf = ad.scale_rows(buf, ad._gather_rows(probs, (tok, slot)))
        if train:
            buf = est.apply_estimator(buf, routing.scale[tok, slot])
        elif routing.bern is not None:
            buf = ad.scale_rows(buf, ad.Tensor(routing.scale[tok, slot]))
        return ad._scatter_add_rows(ad.zeros((len(X.data), cfg.d_model)), tok, buf)

    def _forward_token(self, x: ad.Tensor, U: np.ndarray | None, frozen: Routing | None):
        if x.data.shape != (self.config.d_model,):
            raise ad.ShapeError(f"token must have shape ({self.config.d_model},), "
                                f"got {x.data.shape}")
        Y, routing, matches = self._forward_rows(ad.stack_rows([x]), U, frozen)
        return ad.row(Y, 0), routing[0], matches

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

        For every activated slot D (null slots included): draw
        B ~ Bernoulli(5/8), set delta = [D == argmax z], and add
        apply_estimator(p_D * E_D(x), max(delta, (1+2B)/3)).  Shared experts
        are added plainly.
        Selection follows ``config.routing_mode``.  The token takes one row
        ``rng.random((1, 2 * n_slots))``, used as ``forward_rows`` uses a
        row of its block: Gumbel keys first, then one B uniform per slot.
        """
        y, decision, _ = self._forward_token(x, rng.random((1, 2 * self.config.n_slots)),
                                             None)
        return y, decision

    def forward_frozen(self, x: ad.Tensor, frozen: Routing) -> tuple[ad.Tensor, bool]:
        """Replay a recorded one-row Routing with its forward scales as constants.

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
        y, _, matches = self._forward_token(x, None, frozen)
        return y, matches
