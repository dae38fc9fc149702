"""How far shortcut certainty-factor updating drifts from the exact rule.

Setting: a hypothesis H, evidence E that is itself uncertain, and the
two conditionals P(H|E) and P(H|not E). The exact posterior for H when
E's probability moves to q mixes both conditionals:

    q * P(H|E) + (1 - q) * P(H|not E)

The certainty-factor shortcut instead just multiplies, keeping only
q * P(H|E). The gap between the two is (1 - q) * P(H|not E): it closes
linearly as the evidence approaches certainty and vanishes when the
hypothesis is impossible without the evidence. These three functions
make that comparison computable on a grid.

Degrees here live on the [0, 1] probability scale; the shortcut's
native signed scale and its rule-combination machinery are out of
scope, since the comparison is about the update step only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .spaces import _finite_scalar


def _probability(value: float, name: str) -> float:
    return _finite_scalar(value, "scenario.bad_probability",
                          f"{name} must be a probability in [0, 1]", lambda x: 0.0 <= x <= 1.0)


@dataclass(frozen=True)
class EvidenceScenario:
    """One uncertain-evidence situation: the two conditionals and the new certainty q."""

    p_h_given_e: float
    p_h_given_not_e: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "p_h_given_e", _probability(self.p_h_given_e, "p_h_given_e"))
        object.__setattr__(
            self, "p_h_given_not_e", _probability(self.p_h_given_not_e, "p_h_given_not_e")
        )
        object.__setattr__(self, "q", _probability(self.q, "q"))


def jeffrey_posterior(sc: EvidenceScenario) -> float:
    """Exact posterior of H: mix both conditionals by the evidence's new weights."""
    return sc.p_h_given_e * sc.q + sc.p_h_given_not_e * (1.0 - sc.q)


def cf_approx_posterior(sc: EvidenceScenario) -> float:
    """Certainty-factor shortcut: scale P(H|E) by the evidence's certainty."""
    return sc.p_h_given_e * sc.q


def divergence_curve(
    p_h_given_e: float, p_h_given_not_e: float, q_grid: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """Absolute gap between exact and shortcut posteriors at each q in the grid.

    Each grid value must be a probability, or ``scenario.bad_probability``
    is raised as for a bad conditional. The gap equals
    p_h_given_not_e * (1 - q): non-increasing in q and exactly zero at
    q = 1, so the shortcut is best for near-certain evidence.
    """
    EvidenceScenario(p_h_given_e, p_h_given_not_e, 1.0)  # checks the conditionals on any grid
    points: list[tuple[float, float]] = []
    for q in q_grid:
        q = _probability(q, "each q grid value")
        sc = EvidenceScenario(p_h_given_e, p_h_given_not_e, q)
        points.append((q, abs(jeffrey_posterior(sc) - cf_approx_posterior(sc))))
    return tuple(points)
