"""Declarative constraints on a posterior distribution.

Every constraint kind compiles to one or more rows
``sum_i coeffs[i] * posterior[i] = target``, and the rows of an update
form one linear system ``A p = b``: ``A`` is a read-only matrix with a
column per outcome of the space, in its order, and ``b`` the targets.
The solver compiles each constraint exactly once per update, and
feasibility screening, the no-op check, the dual system and the final
residual all read that one system.

Construction validates structure (finiteness, space agreement,
weight-vector invariants); whether a *target* is achievable from a
given prior is a separate question answered by
:func:`triage_feasibility` and, in full, by the solver itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConstructionError, SpaceMismatch
from .spaces import Distribution, Event, Partition, RandomVariable, SampleSpace


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConstructionError("constraint.not_finite", f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class EventProb:
    """Pin the posterior probability of an event: P(event) = value.

    Out-of-range values are accepted here and rejected by feasibility
    triage, so that impossible *demands* are reported as infeasible
    rather than as malformed input.
    """

    event: Event
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "probability target"))

    @property
    def space(self) -> SampleSpace:
        return self.event.space

    def describe(self) -> str:
        return f"P({self.event.describe()}) = {self.value:g}"


@dataclass(frozen=True)
class Expectation:
    """Pin the posterior mean of a random variable: E[variable] = value."""

    variable: RandomVariable
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "expectation target"))

    @property
    def space(self) -> SampleSpace:
        return self.variable.space


@dataclass(frozen=True)
class CondProb:
    """Pin a posterior conditional probability: P(target | given) = value.

    Compiles to the linearization P(target and given) - value * P(given) = 0,
    which is equivalent whenever the posterior gives ``given`` positive
    probability. The solver checks that nondegeneracy after the fact.
    """

    target: Event
    given: Event
    value: float

    def __post_init__(self):
        if self.target.space != self.given.space:
            raise ConstructionError(
                "constraint.space_mismatch",
                "target and conditioning events live on different spaces",
            )
        object.__setattr__(self, "value", _require_finite(self.value, "probability target"))

    @property
    def space(self) -> SampleSpace:
        return self.target.space

    def describe(self) -> str:
        return f"P({self.target.describe()} | {self.given.describe()}) = {self.value:g}"


@dataclass(frozen=True)
class PartitionWeights:
    """Pin the posterior mass of every cell of a partition at once.

    The weights form a full probability vector over cells, so simplex
    invariants are enforced at construction, unlike the single-value
    constraint kinds.
    """

    partition: Partition
    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) != len(self.partition.cells):
            raise ConstructionError(
                "constraint.length_mismatch",
                f"got {len(ws)} weights for {len(self.partition.cells)} cells",
            )
        if any(not math.isfinite(w) for w in ws):
            raise ConstructionError("constraint.not_finite", "cell weights must be finite")
        if min(ws) < 0.0:
            raise ConstructionError(
                "constraint.negative_weight", f"negative cell weight {min(ws)}"
            )
        total = math.fsum(ws)
        if abs(total - 1.0) > 1e-9:
            raise ConstructionError(
                "constraint.sum_not_one", f"cell weights sum to {total!r}, not 1"
            )

    @property
    def space(self) -> SampleSpace:
        return self.partition.space


Constraint = Union[EventProb, Expectation, CondProb, PartitionWeights]


def compile_constraint(c: Constraint, space: SampleSpace) -> tuple[tuple[np.ndarray, float], ...]:
    """Lower one constraint to ``(coeffs, target)`` rows aligned to ``space``."""
    if c.space != space:
        raise SpaceMismatch("constraint lives on a different sample space")
    if isinstance(c, EventProb):
        return ((c.event.indicator, c.value),)
    if isinstance(c, Expectation):
        return ((c.variable.array, c.value),)
    if isinstance(c, CondProb):
        coeffs = c.target.intersect(c.given).indicator - c.value * c.given.indicator
        return ((coeffs, 0.0),)
    if isinstance(c, PartitionWeights):
        return tuple((cell.indicator, w) for cell, w in zip(c.partition.cells, c.weights))
    raise TypeError(f"not a constraint: {c!r}")


def compile_all(
    constraints: Sequence[Constraint], space: SampleSpace
) -> tuple[np.ndarray, np.ndarray]:
    """The system ``(A, b)`` of ``constraints``, rows in compilation order; ``A`` is C-ordered."""
    rows = [row for c in constraints for row in compile_constraint(c, space)]
    A = np.array([coeffs for coeffs, _ in rows]).reshape(len(rows), len(space))
    A.flags.writeable = False
    return A, np.array([target for _, target in rows], dtype=float)


def residual(dist: Distribution, system: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest absolute violation of ``A p = b`` under ``dist``, one dot product per row."""
    A, b = system
    p = dist.array
    return max((abs(float(a @ p) - target) for a, target in zip(A, b.tolist())), default=0.0)


def triage_feasibility(
    constraints: Sequence[Constraint],
    system: tuple[np.ndarray, np.ndarray],
    prior: Distribution,
    tol: float,
) -> tuple[tuple[str, ...], np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One pass over the ``system`` compiled from ``constraints``: certificates and pins.

    Returns ``(reasons, live, (A, b))``. ``reasons`` holds one certificate
    per proof that no posterior on the prior's support meets the rows; an
    empty tuple means the pass found none, and the set may still be jointly
    unsatisfiable, which the solver detects. ``live`` masks the outcomes a
    posterior may still weight, and ``(A, b)`` keeps the rows of ``system``
    that still need a multiplier.

    The one kind-specific check is a probability target outside [0, 1]; a
    conditional's linearized row could otherwise be met by P(given) = 0.
    Then, with lo and hi the least and greatest value of row j (in
    compilation order) on the live support, at first the prior's:

    * a target below lo - tol or above hi + tol is infeasible, and the
      stake y = -e_j or y = +e_j is the witness: it loses in every live
      outcome;
    * a target at a row's extreme (at or beyond hi, or at or below lo)
      fixes a face: only the outcomes where the row attains that extreme
      can keep mass, so the live support shrinks to them and the row
      needs no multiplier;
    * any other row stays active.

    After each pin that shrinks the support, the remaining rows are
    checked again on the smaller one, until it stops shrinking. A pin
    keeps the outcomes where its row attains its extreme, so the live
    support never becomes empty.
    """
    reasons: list[str] = []
    for c in constraints:
        if c.space != prior.space:
            raise SpaceMismatch("constraint lives on a different sample space")
        if isinstance(c, (EventProb, CondProb)) and not 0.0 <= c.value <= 1.0:
            reasons.append(f"probability target outside [0, 1]: {c.describe()}")
    A, b = system[0], system[1].tolist()
    active = list(range(len(b)))
    live = prior.support
    while not reasons:
        lo = A.min(axis=1, where=live, initial=np.inf).tolist()
        hi = A.max(axis=1, where=live, initial=-np.inf).tolist()
        for j in active:
            if not lo[j] - tol <= b[j] <= hi[j] + tol:
                sign = "+" if b[j] > hi[j] else "-"
                reasons.append(
                    f"row {j}: target {b[j]!r} lies outside [{lo[j]!r}, {hi[j]!r}], its range "
                    f"on the outcomes still possible (witness y = {sign}e_{j})"
                )
        if reasons:
            break
        for j in [j for j in active if not lo[j] < b[j] < hi[j]]:
            active.remove(j)
            face = live & (A[j] == (hi[j] if b[j] >= hi[j] else lo[j]))
            if not np.array_equal(face, live):
                live = face
                break
        else:  # no pin shrank the support, so no row's range can change
            break
    if len(active) < len(b):
        A = A[active]
    return tuple(reasons), live, (A, np.array([b[j] for j in active], dtype=float))
