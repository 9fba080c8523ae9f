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
rows as one tape node: one router product, one uniform block in training,
vectorized selection, then one fused op (dropless grouped dispatch) that
runs each routed expert's gated FFN on the rows of the tokens that chose
it, the shared experts on every row, and applies gates, forward scales and
the estimator to every (token, slot) pair at once; its hand-written
backward keeps the bits of the op graph it replaced (kept in
``tests/moe_reference.py``).  It returns the batch's choices as one
:class:`Routing`, ``[n, n_slots]`` arrays of rank, gate, argmax flag, B
draw and forward scale; a token's :class:`RoutingDecision` is built only
when someone indexes the Routing.  Frozen replay takes a Routing back,
hand-edited with :func:`dataclasses.replace` if need be; a Routing checks
its own rule when built, so every reader trusts it.  Where the routing
comes from (a live draw or a given Routing) and how the gradient crosses
its forward scales (the estimator's doubling or the scale as a constant)
are independent arguments.  The per-token forwards are one-row calls of
``forward_rows``.
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
_GRAD_RULES = (None, "estimator", "constant")


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

    The rule, checked when built (so also by :func:`dataclasses.replace`),
    with a ``ValueError`` naming what breaks it: ``rank`` is an integer
    array with no entry below -1, every row has k >= 1 active slots ranked
    0..k-1, each once, ``n_routed`` is in [1, n_slots] and ``n_shared``
    >= 0.  The record lists its active (token, slot) pairs once, for the
    check, the dispatch and the trace: read-only, as ``_active = (tok,
    slot, rank, k, bounds)``, sorted by slot, then rank, then token, with
    slot j's pairs at ``bounds[j]:bounds[j + 1]``.  Null slots come after
    the routed ones, so the routed pairs are the prefix
    ``[:bounds[n_routed]]``.
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
        n, n_slots = self.rank.shape
        ad.check_int(self.n_routed, "n_routed", 1)
        if self.n_routed > n_slots:
            raise ValueError(f"n_routed must be at most the {n_slots} slots, "
                             f"got {self.n_routed}")
        ad.check_int(self.n_shared, "n_shared", 0)
        if self.rank.dtype.kind not in "iu":
            raise ValueError(f"rank must be an integer array, got {self.rank.dtype}")
        if self.rank.min(initial=0) < -1:
            raise ValueError("rank must be -1 for an inactive slot or a selection rank >= 0")
        active = self.rank >= 0
        tok, slot = np.nonzero(active)
        r = self.rank[active]
        k = np.bincount(tok, minlength=n)
        if np.count_nonzero(k) < n:
            raise ValueError("a record needs at least one routable slot")
        # with every rank below its row's k, ranks 0..k-1 each once means no repeat
        seen = np.zeros(self.rank.shape, dtype=bool)
        if np.count_nonzero(r < k[tok]) == r.size:
            seen[tok, r] = True
        if np.count_nonzero(seen) != r.size:
            raise ValueError("the active slots of a token must have the ranks 0..k-1, "
                             "each once")
        order = np.lexsort((tok, r, slot))
        tok, slot, r = tok[order], slot[order], r[order]
        bounds = np.searchsorted(slot, np.arange(n_slots + 1))
        for array in (tok, slot, r, k, bounds):
            array.flags.writeable = False
        object.__setattr__(self, "_active", (tok, slot, r, k, bounds))
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
    """Top-P on every row of ``P`` [..., n, slots]: each slot's rank in the
    row's selection order, -1 where it stays inactive.

    Without ``U`` the order is descending probability, ties stably lower
    index first: deterministic Top-P.  With uniforms ``U`` [n, slots] it is
    descending Gumbel key ``log p - log(-log u)``, which orders the slots as
    drawing without replacement in proportion to p does (Gumbel-top-k);
    a zero probability or ``u == 0`` sorts last.  Either way the row takes
    the shortest prefix whose original mass reaches ``top_p``, and a row
    whose full sum falls short through rounding activates every slot.
    """
    n_slots = P.shape[-1]
    keys = P
    if U is not None:
        with np.errstate(divide="ignore"):
            keys = np.log(P) - np.log(-np.log(U))
    # one row per token (and probe): row i's slots are order[i]
    order = np.argsort(-keys, axis=-1, kind="stable").reshape(-1, n_slots)
    rows = np.arange(order.shape[0])[:, None]
    reach = np.cumsum(P.reshape(-1, n_slots)[rows, order], axis=-1) >= top_p
    k = np.where(reach.any(axis=-1), reach.argmax(axis=-1) + 1, n_slots)
    ranks = np.arange(n_slots)
    rank = np.empty(order.shape, dtype=np.int64)
    rank[rows, order] = np.where(ranks < k[:, None], ranks, -1)
    return rank.reshape(P.shape)


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


def _gated(a: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(a, up, sigmoid(a), silu(a), silu(a) * up)`` of the gate and up
    products ``a`` and ``up``: what the down product and the backward read."""
    s = ad._sigmoid(a)
    gate = a * s
    return a, up, s, gate, gate * up


def _gated_vjp(g_h, a, up, s, gate) -> tuple[np.ndarray, np.ndarray]:
    """The upstream ``g_h`` of ``silu(a) * up`` back to ``a`` and to ``up``."""
    return g_h * up * ad._silu_slope(a, s), g_h * gate


def _hidden(parts, core: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``_gated`` of the gate and up products of several experts at once.

    ``parts`` lists ``(params, blocks, place)``: an expert's row blocks
    [..., b, _ROW_BLOCK, d_model] and where its products go in arrays of
    shape ``core`` (after the broadcast probe axes), one GEMM per block
    each; the silu and gate work then runs once over all of them.
    """
    lead = np.broadcast_shapes(*(shape for params, xb, _ in parts for shape in (
        xb.shape[:-3], params.w_gate.data.shape[:-2], params.w_up.data.shape[:-2])))
    a, up = np.empty(lead + core), np.empty(lead + core)
    for params, xb, place in parts:
        a[place] = ad._block_matvec(params.w_gate.data, xb)
        up[place] = ad._block_matvec(params.w_up.data, xb)
    return _gated(a, up)


def gated_ffn(x: ad.Tensor, params: ExpertParams) -> ad.Tensor:
    """``W_down @ (silu(W_gate @ x_i) * (W_up @ x_i))`` for every row ``x_i``
    of the token rows ``x`` [m, d_model], as one tape node.  The rows and
    the weights may carry leading probe axes (see the autodiff module
    notes).

    The rows are cut once into the zero-padded blocks of
    :func:`~dyncapmoe.autodiff.matvec_rows`, and every product is one GEMM
    per block, so a row's output has the bits it has alone, whatever the
    other rows are.  The backward is written by hand.  ``x`` is listed as a
    parent twice, once for each product that reads it, gate before up, so
    :func:`~dyncapmoe.autodiff.backward` adds its two terms one at a time,
    as the five-op graph ``matvec_rows``, ``silu``, ``matvec_rows``,
    ``mul``, ``matvec_rows`` does (see the autodiff module notes).  The MoE
    layer runs the same products, blocks and backward for every expert in
    its own single node.
    """
    xd, wg, wu, wd = x.data, params.w_gate.data, params.w_up.data, params.w_down.data
    if xd.ndim < 2 or xd.shape[-1] != wg.shape[-1]:
        raise ad.ShapeError(f"gated_ffn: token rows must have shape (m, {wg.shape[-1]}), "
                            f"got {xd.shape}")
    m = xd.shape[-2]
    # a padded row stays zero through the hidden blocks, which are then the
    # blocks matvec_rows would cut from the hidden rows
    xb = ad._row_blocks(xd)
    blocks = _gated(ad._block_matvec(wg, xb), ad._block_matvec(wu, xb))
    out = ad._block_rows(ad._block_matvec(wd, blocks[-1]), m)

    def backward_fn(g):
        a, up, s, gate, h = (ad._block_rows(v, m) for v in blocks)
        g_a, g_up = _gated_vjp(g @ wd, a, up, s, gate)
        return g_a @ wg, g_up @ wu, g_a.T @ xd, g_up.T @ xd, g.T @ h

    return ad.op_node(out, (x, x, params.w_gate, params.w_up, params.w_down),
                      backward_fn, "gated_ffn", max(xd.ndim, wg.ndim, wu.ndim, wd.ndim) > 2)


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
        # a one-row batch, so the logits have the bits of this token's row
        # in forward_rows, wherever it sits in its block
        logits = ad.row(ad.matvec_rows(self.router, ad.stack_rows([x])), 0)
        return RouterState(logits=logits, probs=ad.softmax(logits))

    # -------------------------------------------------------------- forwards

    def forward_rows(self, X: ad.Tensor, mode: str = "infer",
                     key: Sequence[int] | None = None,
                     frozen: Routing | None = None, *,
                     grad_rule: str | None = None,
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
          ``matches`` is only meaningful here.  A replay also takes ``X``
          and the weights with leading probe axes (see the autodiff module
          notes); ``matches`` is then a bool array, one flag per probe.

        ``grad_rule`` is how the gradient crosses each routed pair's forward
        scale, whatever the routing's source: ``"estimator"`` doubles it
        (:func:`~dyncapmoe.estimator.estimator_grad`), ``"constant"``
        multiplies it by the scale, as by a constant.  None takes the
        estimator in training and the constant scale on a replay.  A rule
        needs B draws: given one, inference and a replay of a Routing
        without ``bern`` raise ``ValueError``.

        The whole layer is one tape node: each routed expert runs once on
        the rows of the tokens that chose it, then gates, scales and the
        estimator apply to all pairs at once; null slots cost nothing and
        shared experts run on every row.  Every row is computed as it
        would be alone, bit for bit.
        """
        if mode not in ("infer", "train"):
            raise ValueError("mode must be 'infer' or 'train'")
        shape = X.data.shape
        if len(shape) < 2 or shape[-1] != self.config.d_model or shape[-2] < 1:
            raise ad.ShapeError(f"token rows must have shape (n, {self.config.d_model}) "
                                f"with n >= 1, got {shape}")
        if grad_rule not in _GRAD_RULES:
            raise ValueError(f"grad_rule must be one of {_GRAD_RULES}")
        if grad_rule is not None and (mode == "infer" if frozen is None
                                      else frozen.bern is None):
            raise ValueError("a gradient rule needs B draws: train mode or a replay "
                             "of a Routing with bern")
        U = None
        if frozen is None and mode == "train":
            if key is None:
                raise ValueError("train mode needs an rng key")
            U = np.random.Generator(np.random.Philox(list(key))).random(
                (X.data.shape[-2], 2 * self.config.n_slots))
        estimator = grad_rule == "estimator" if grad_rule else U is not None
        return self._forward_rows(X, U, frozen, estimator)

    def _forward_rows(self, X: ad.Tensor, U: np.ndarray | None, frozen: Routing | None,
                      estimator: bool):
        """``forward_rows`` on a uniform block: train when ``U`` [n, 2 * n_slots]
        is given, replay when ``frozen`` is, inference otherwise; the
        gradient crosses the forward scales doubled if ``estimator``."""
        cfg = self.config
        n = X.data.shape[-2]
        if frozen is not None and (len(frozen) != n or frozen.rank.shape[1] != cfg.n_slots
                                   or frozen.n_routed != cfg.n_routed
                                   or frozen.n_shared != cfg.n_shared):
            raise ValueError(f"frozen routing must cover {n} tokens and {cfg.n_slots} "
                             f"slots, {cfg.n_routed} of them routed, with "
                             f"{cfg.n_shared} shared experts")
        # the token rows in blocks, cut once for the router and the shared experts
        xb = ad._row_blocks(X.data)
        logits = ad._block_rows(ad._block_matvec(self.router.data, xb), n)
        P = ad._softmax_data(logits)
        routing, matches = self._select(logits, P, U, frozen)
        return self._layer(X, xb, P, routing, estimator), routing, matches

    def _select(self, logits: np.ndarray, P: np.ndarray, U: np.ndarray | None,
                frozen: Routing | None):
        """``(routing, matches)`` of a batch from its router ``logits`` and
        their softmax ``P``: train when ``U`` is given, replay when
        ``frozen`` is, inference otherwise."""
        cfg = self.config
        is_argmax = np.argmax(logits, axis=-1)[..., None] == np.arange(cfg.n_slots)
        if frozen is not None:
            flips = ((frozen.rank >= 0) & (frozen.is_argmax != is_argmax)).any(axis=(-2, -1))
            if cfg.routing_mode == "deterministic":
                flips |= (_prefix_ranks(P, cfg.top_p) != frozen.rank).any(axis=(-2, -1))
            return frozen, ~flips if flips.ndim else not flips
        if U is None:
            return Routing(_prefix_ranks(P, cfg.top_p), P, is_argmax, None,
                           cfg.n_routed, cfg.n_shared), True
        sampled = cfg.routing_mode == "sampled"
        rank = _prefix_ranks(P, cfg.top_p, U[:, :cfg.n_slots] if sampled else None)
        bern = U[:, cfg.n_slots:] < est.BERNOULLI_P
        return Routing(rank, P, is_argmax, bern, cfg.n_routed, cfg.n_shared), True

    def _layer(self, X: ad.Tensor, xb: np.ndarray, P: np.ndarray, routing: Routing,
               estimator: bool) -> ad.Tensor:
        """The layer's output [n, d_model] for the token rows ``X`` (cut into
        the blocks ``xb``) and their router softmax ``P``, as one tape node.

        The routing record lists the routed (token, slot) pairs once,
        expert-major and in (rank, token) order within an expert.  One
        assignment places each chosen expert's rows into zero-padded blocks
        of its own, and every product is one fixed-shape GEMM per block, so
        a row has the bits it has alone.  The silu and gate work runs once
        over the blocks of all routed experts and once over those of all
        shared experts.  Each pair's output row takes its gate, then the
        routing's forward scale where it has B draws, and each token folds
        its pairs into the output one rank at a time, starting from zeros,
        so it sums its terms in selection order.  The shared experts'
        outputs are added after, one by one.  The gradient crosses the
        scale doubled if ``estimator`` (the estimator's rule), else times
        the scale.

        The backward is written by hand, each term in the formula and shape
        of the op it replaces (the row gathers, ``gated_ffn``, the softmax,
        the router product, the gates, the estimator and the fold).  ``X``
        is listed once for each consumer the composed graph had, in the
        order that graph added their terms: the row gather of each chosen
        routed expert, the router product, then the gate and up products
        of each shared expert (see the autodiff module notes).  ``X``, the
        router and the expert weights may carry leading probe axes.
        """
        cfg = self.config
        B = ad._ROW_BLOCK
        xd, wr = X.data, self.router.data
        lead, (n, d) = xd.shape[:-2], xd.shape[-2:]
        tok, slot, rank, _, bounds = routing._active
        m = int(bounds[cfg.n_routed])
        tok, slot, rank = tok[:m], slot[:m], rank[:m]
        # (params, first pair, end pair, first block, end block) of each chosen expert
        experts, nb = [], 0
        for params, lo, hi in zip(self.routed, bounds.tolist(), bounds[1:].tolist()):
            if lo < hi:
                experts.append((params, lo, hi, nb, nb + (hi - lo + B - 1) // B))
                nb = experts[-1][4]
        scale = None
        if estimator or routing.bern is not None:
            scale = routing.scale[tok, slot][:, None]

        Y = np.zeros((n, d))
        if m:
            dest = np.arange(m) + np.repeat([b0 * B - lo for _, lo, _, b0, _ in experts],
                                            [hi - lo for _, lo, hi, _, _ in experts])
            xr = np.zeros(lead + (nb * B, d))
            xr[..., dest, :] = xd[..., tok, :]
            xr = xr.reshape(lead + (nb, B, d))
            routed = _hidden([(e[0], xr[..., e[3]:e[4], :, :], (..., slice(e[3], e[4]),
                                                                  slice(None), slice(None)))
                              for e in experts], (nb, B, cfg.expert_hidden))
            h = routed[-1]
            buf = np.empty(np.broadcast_shapes(
                h.shape[:-3], *(e[0].w_down.data.shape[:-2] for e in experts)) + (m, d))
            for params, lo, hi, b0, b1 in experts:
                buf[..., lo:hi, :] = ad._block_rows(
                    ad._block_matvec(params.w_down.data, h[..., b0:b1, :, :]), hi - lo)
            gp = P[..., tok, slot][..., None]
            pairs = buf * gp
            if scale is not None:
                pairs = pairs * scale
            slab = np.zeros(pairs.shape[:-2] + (int(rank.max()) + 1, n, d))
            slab[..., rank, tok, :] = pairs
            Y = np.zeros(slab.shape[:-3] + (n, d))
            for r in range(slab.shape[-3]):
                Y += slab[..., r, :, :]
        if self.shared:
            shared = _hidden([(params, xb, (..., i, slice(None), slice(None), slice(None)))
                              for i, params in enumerate(self.shared)],
                             (len(self.shared),) + xb.shape[-3:-1] + (cfg.shared_hidden,))
            for i, params in enumerate(self.shared):
                Y = Y + ad._block_rows(ad._block_matvec(params.w_down.data,
                                                        shared[-1][..., i, :, :, :]), n)

        def backward_fn(g):
            x_terms, w_terms = [], []
            if m:
                g_pairs = g[tok]
                if estimator:
                    g_pairs = est.estimator_grad(g_pairs)
                elif scale is not None:
                    g_pairs = g_pairs * scale
                g_buf = g_pairs * gp
                g_probs = np.zeros_like(P)
                g_probs[tok, slot] += (g_pairs * buf).sum(axis=1)
                g_logits = ad._softmax_vjp(P, g_probs)
                g_h = np.zeros((nb * B, cfg.expert_hidden))
                for params, lo, hi, b0, _ in experts:
                    g_h[b0 * B:b0 * B + hi - lo] = g_buf[lo:hi] @ params.w_down.data
                a, up, s, gate, hid = (v.reshape(nb * B, -1) for v in routed)
                g_a, g_up = _gated_vjp(g_h, a, up, s, gate)
                x = xr.reshape(nb * B, d)
                for params, lo, hi, b0, _ in experts:
                    rows = slice(b0 * B, b0 * B + hi - lo)
                    term = np.zeros_like(xd)
                    term[tok[lo:hi]] += (g_a[rows] @ params.w_gate.data
                                         + g_up[rows] @ params.w_up.data)
                    x_terms.append(term)
                    w_terms += [g_a[rows].T @ x[rows], g_up[rows].T @ x[rows],
                                g_buf[lo:hi].T @ hid[rows]]
                x_terms += [g_logits @ wr, g_logits.T @ xd]
            if self.shared:
                g_h = np.empty((len(self.shared), n, cfg.shared_hidden))
                for i, params in enumerate(self.shared):
                    g_h[i] = g @ params.w_down.data
                a, up, s, gate, hid = (ad._block_rows(v, n) for v in shared)
                g_a, g_up = _gated_vjp(g_h, a, up, s, gate)
                for i, params in enumerate(self.shared):
                    x_terms += [g_a[i] @ params.w_gate.data, g_up[i] @ params.w_up.data]
                    w_terms += [g_a[i].T @ xd, g_up[i].T @ xd, g.T @ hid[i]]
            return x_terms + w_terms

        parents = [X] * len(experts) + [X, self.router] * (m > 0) + [X, X] * len(self.shared)
        weights = [w for params in [e[0] for e in experts] + self.shared
                   for w in (params.w_gate, params.w_up, params.w_down)]
        probes = max(a.ndim for a in (xd, wr, *(w.data for w in weights))) > 2
        return ad.op_node(Y, parents + weights, backward_fn, "moe_layer", probes)

    def _forward_token(self, x: ad.Tensor, U: np.ndarray | None, frozen: Routing | None):
        if x.data.shape != (self.config.d_model,):
            raise ad.ShapeError(f"token must have shape ({self.config.d_model},), "
                                f"got {x.data.shape}")
        Y, routing, matches = self._forward_rows(ad.stack_rows([x]), U, frozen, U is not None)
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
