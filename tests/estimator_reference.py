"""Test-side references for the hybrid estimator's coefficients.

``EstimatorDraw`` is one sampled expert with its (delta, B) draw, its
forward scale derived through ``estimator.hybrid_scale``; the two tables
give the outer and inner coefficients of the Euler (argmax) branch and of
the Heun branch per Bernoulli outcome, and ``heun_quadrature`` is the
two-point rule whose weights 1/4 and 3/4 the Heun branch realizes.  The
layer itself keeps its draws in ``moe.Routing``; only the tests read these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from dyncapmoe import estimator as est


@dataclass(frozen=True)
class EstimatorDraw:
    """One sampled expert with its estimator randomness.

    ``forward_scale`` is derived, never stored independently, so the
    invariants (scale = max(delta, (1+2B)/3); delta=1 forces scale 1)
    hold by construction.
    """

    expert_index: int
    delta: int
    bern: int
    bernoulli_prob: float = field(default=est.BERNOULLI_P, init=False)

    def __post_init__(self):
        est.hybrid_scale(self.delta, self.bern)  # both must be 0 or 1

    @property
    def forward_scale(self) -> float:
        return est.hybrid_scale(self.delta, self.bern)


def euler_scale_reference() -> dict[str, float]:
    """First-order branch coefficients: gradient 2 * f'(1 * a)."""
    return {"outer": 2.0, "inner": 1.0}


def heun_scale_reference() -> dict[int, dict[str, float]]:
    """Third-order branch coefficients per Bernoulli outcome.

    outer * inner == 2 on both rows, which is exactly why a single doubled
    gradient path with a varying forward scale realizes both branches.
    """
    table = {
        1: {"outer": 2.0, "inner": 1.0},
        0: {"outer": 6.0, "inner": 1.0 / 3.0},
    }
    for bern, coeffs in table.items():
        expected_outer = 6.0 - 4.0 * bern
        expected_inner = (1.0 + 2.0 * bern) / 3.0
        assert coeffs["outer"] == expected_outer and coeffs["inner"] == expected_inner
        assert coeffs["outer"] * coeffs["inner"] == 2.0
    return table


def heun_quadrature(g, a: float) -> float:
    """a * ((1/4) g(a) + (3/4) g(a/3)): integrates g over [0, a] exactly for deg <= 2."""
    a = float(a)
    return a * (0.25 * g(a) + 0.75 * g(a / 3.0))
