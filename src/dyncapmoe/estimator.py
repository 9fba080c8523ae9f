"""Hybrid straight-through estimator for routing gradients, plus oracles.

A sparsely-activated expert layer samples a discrete expert index, which
blocks gradient flow to the router logits.  The estimator here repairs that
flow with a detach construction:

    o_est = 2*o + const(scale * o - 2*o),      scale = max(delta, (1+2B)/3)

where ``o`` is the probability-weighted expert output, ``delta`` is 1 iff
the sampled expert is the argmax of the logits, and ``B ~ Bernoulli(5/8)``.
:func:`apply_estimator` implements it as one tape op: its value is the
product ``scale * o``, bit for bit the one a frozen replay computes, and its
backward hands ``2g`` to ``o``.  The argmax branch realizes a first-order
(Euler) correction, the other branch a third-order (Heun) one, and
averaging over ``B`` reproduces the Heun quadrature weights 1/4 and 3/4
because

    (6 - 4B) * (1 + 2B) / 3 == 2   for B in {0, 1}.

The oracles in this module certify the estimator in the single-expert
regime by exhaustively enumerating the sampled index and the Bernoulli
draw, and comparing against reverse-mode differentiation of the closed-form
mixture objective

    L(z) = sum_i p_i * f(p_i * e_i),    p = softmax(z),

which involves no sampling and no masks.  The oracles serve the tests and
the benchmark's tracer; the layer, the training loop and ``grad_check`` never
call them, because the certificate does not depend on a model config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "BERNOULLI_P",
    "hybrid_scale",
    "apply_estimator",
    "estimator_grad",
    "ClosedFormObjective",
    "exact_gradient_oracle",
    "estimator_expectation",
]

# Success probability of the Bernoulli mixing draw.  Not configurable: the
# Heun branch's coefficient algebra (outer 6, inner 1/3 at B=0 vs outer 2,
# inner 1 at B=1) is derived for exactly this value.
BERNOULLI_P = 5.0 / 8.0


def _check_binary(value, name: str) -> np.ndarray:
    """``value`` as an array, if every entry is 0 or 1; a bool array holds
    nothing else, so only other dtypes are scanned."""
    value = np.asarray(value)
    if value.dtype != np.bool_ and not ((value == 0) | (value == 1)).all():
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return value


def hybrid_scale(delta, bern):
    """Forward scale max(delta, (1+2B)/3): 1 on the argmax branch, else (1+2B)/3.

    ``delta`` and ``bern`` are 0/1 ints, giving a float, or 0/1 arrays of
    one shape, giving the scale of every entry.
    """
    if np.shape(delta) != np.shape(bern):
        raise ad.ShapeError(f"delta and bern must share a shape, got "
                            f"{np.shape(delta)} and {np.shape(bern)}")
    delta = _check_binary(delta, "delta")
    bern = _check_binary(bern, "bern")
    scale = np.maximum(delta, (1.0 + 2.0 * bern) / 3.0)
    return float(scale) if scale.ndim == 0 else scale


def apply_estimator(o: ad.Tensor, scale) -> ad.Tensor:
    """Scale ``o`` forward while doubling its gradient path.

    The value is ``scale * o`` and backward hands ``2g`` to ``o``, so every
    upstream gradient is exactly twice that of a plain ``o`` graph.

    ``scale`` is the forward scale of :func:`hybrid_scale`, already derived
    from checked draws: a float for one output, or an array of length m for
    the rows of an [m, d] output, one scale per row.
    """
    if np.ndim(scale) > 0:
        if o.data.ndim != 2 or np.shape(scale) != (o.data.shape[0],):
            raise ad.ShapeError("per-row scales need one entry per row of o")
        scale = np.asarray(scale)[:, None]
    return ad.op_node(o.data * scale, (o,), lambda g: (estimator_grad(g),), "estimator")


def estimator_grad(g: np.ndarray) -> np.ndarray:
    """The estimator's gradient rule: whatever the forward scale, the
    upstream ``g`` reaches ``o`` doubled.  ``apply_estimator`` and the MoE
    layer's fused op both apply it."""
    return g * 2.0


# ---------------------------------------------------------------------------
# closed-form objective and oracles
# ---------------------------------------------------------------------------

@dataclass
class ClosedFormObjective:
    """Mixture objective L(z) = sum_i p_i * f(p_i * e_i) with no sampling.

    ``f`` is a monomial of a fixed projection of its vector argument:
    f(v) = (u . v) ** degree, degree in {1, 2, 3}.  Degree 1 is the regime
    where both estimator branches are exact; degree 3 is the boundary of
    the Heun branch; degree 2 exposes the Euler branch's bias.

    ``expert_outputs`` are plain vectors (the expert evaluations at a fixed
    input); they carry no dependence on the logits.
    """

    degree: int
    projection: np.ndarray
    expert_outputs: list[np.ndarray]

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {self.degree}")
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.expert_outputs = [np.asarray(e, dtype=np.float64) for e in self.expert_outputs]
        for e in self.expert_outputs:
            if e.shape != self.projection.shape:
                raise ad.ShapeError("expert outputs and projection must share a shape")

    @property
    def n_experts(self) -> int:
        return len(self.expert_outputs)

    def downstream(self, v: ad.Tensor) -> ad.Tensor:
        """f(v) = (u . v) ** degree as a scalar tape node."""
        t = ad.sum(ad.mul(ad.Tensor(self.projection), v))
        out = t
        for _ in range(self.degree - 1):
            out = ad.mul(out, t)
        return out


def exact_gradient_oracle(obj: ClosedFormObjective, z_values: np.ndarray,
                          per_expert: bool = False) -> np.ndarray | list[np.ndarray]:
    """d L / d z by reverse-mode on the full closed form.

    With ``per_expert=True``, returns the gradient of each summand
    ``p_i * f(p_i * e_i)`` separately (their sum is the total gradient).
    """
    z_values = np.asarray(z_values, dtype=np.float64)

    def term_grad(indices) -> np.ndarray:
        z = ad.Tensor(z_values, requires_grad=True)
        p = ad.softmax(z)
        total = None
        for i in indices:
            p_i = ad.index(p, i)
            term = ad.mul(p_i, obj.downstream(ad.mul(p_i, ad.Tensor(obj.expert_outputs[i]))))
            total = term if total is None else ad.add(total, term)
        ad.backward(total)
        return z.grad

    if per_expert:
        return [term_grad([i]) for i in range(obj.n_experts)]
    return term_grad(range(obj.n_experts))


def estimator_expectation(obj: ClosedFormObjective, z_values: np.ndarray,
                          force_delta: int | None = None,
                          per_expert: bool = False) -> np.ndarray | list[np.ndarray]:
    """Exact expectation of the estimated logit gradient, no Monte Carlo.

    Enumerates every (expert index D, Bernoulli draw B) pair in the
    single-activated-expert regime: for each D the per-draw loss is
    f(apply_estimator(p_D * e_D, hybrid_scale(delta_D, B))), and the
    expectation weights are p_D and {5/8, 3/8}.

    ``force_delta`` pins the branch indicator instead of deriving it from
    argmax(z): 0 exercises the Heun branch everywhere, 1 the Euler branch.
    """
    z_values = np.asarray(z_values, dtype=np.float64)
    p_values = ad._softmax_data(z_values)
    arg = int(np.argmax(z_values))

    def draw_grad(d: int, bern: int) -> np.ndarray:
        delta = int(d == arg) if force_delta is None else _check_binary(force_delta, "force_delta")
        z = ad.Tensor(z_values, requires_grad=True)
        p = ad.softmax(z)
        o = ad.mul(ad.index(p, d), ad.Tensor(obj.expert_outputs[d]))
        loss = obj.downstream(apply_estimator(o, hybrid_scale(delta, bern)))
        ad.backward(loss)
        return z.grad

    def expert_term(d: int) -> np.ndarray:
        inner = BERNOULLI_P * draw_grad(d, 1) + (1.0 - BERNOULLI_P) * draw_grad(d, 0)
        return p_values[d] * inner

    terms = [expert_term(d) for d in range(obj.n_experts)]
    if per_expert:
        return terms
    total = np.zeros_like(z_values)
    for t in terms:
        total += t
    return total
