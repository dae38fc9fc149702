"""Declarative constraints on a posterior distribution.

Every constraint kind compiles to one or more linear forms
``sum_i coeffs[i] * posterior[i] = target``, which is the shape the
update solver consumes. A form is a read-only coefficient array aligned
to the space's outcome order plus its target; event and expectation
rows share the event's indicator or the variable's array rather than
copying it. The solver compiles each constraint exactly once per
update, and feasibility screening, the no-op check, the dual system and
the final residual all read those same rows.

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
from .spaces import Distribution, Event, Partition, RandomVariable, SampleSpace, ZERO_MASS


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


@dataclass(frozen=True, eq=False)
class LinearForm:
    """One compiled row: require coeffs . posterior == target, ``coeffs`` a read-only array."""

    coeffs: np.ndarray
    target: float


def compile_constraint(c: Constraint, space: SampleSpace) -> tuple[LinearForm, ...]:
    """Lower one constraint to linear forms aligned to ``space``."""
    if c.space != space:
        raise SpaceMismatch("constraint lives on a different sample space")
    if isinstance(c, EventProb):
        return (LinearForm(c.event.indicator, c.value),)
    if isinstance(c, Expectation):
        return (LinearForm(c.variable.array, c.value),)
    if isinstance(c, CondProb):
        coeffs = c.target.intersect(c.given).indicator - c.value * c.given.indicator
        coeffs.flags.writeable = False
        return (LinearForm(coeffs, 0.0),)
    if isinstance(c, PartitionWeights):
        return tuple(
            LinearForm(cell.indicator, w) for cell, w in zip(c.partition.cells, c.weights)
        )
    raise TypeError(f"not a constraint: {c!r}")


def compile_all(constraints: Sequence[Constraint], space: SampleSpace) -> tuple[LinearForm, ...]:
    rows: list[LinearForm] = []
    for c in constraints:
        rows.extend(compile_constraint(c, space))
    return tuple(rows)


def residual(dist: Distribution, rows: Sequence[LinearForm]) -> float:
    """Largest absolute violation of compiled ``rows`` under ``dist``, one dot product per row."""
    p = dist.array
    return max((abs(float(row.coeffs @ p) - row.target) for row in rows), default=0.0)


def triage_feasibility(constraints: Sequence[Constraint], prior: Distribution) -> tuple[str, ...]:
    """Screen for constraints no update from ``prior`` can satisfy.

    Returns one reason per certificate found. Each is a proof that no
    posterior on the prior's support satisfies the constraints. An empty
    tuple means the screen found nothing; the constraints may still be
    jointly unsatisfiable, which the solver detects. Certificates
    checked, per constraint:

    * a probability target outside [0, 1];
    * an expectation target strictly outside the variable's range over
      the prior's support (targets exactly on the boundary pass, since
      a point mass attains them);
    * positive probability demanded of an event with zero prior mass
      (mass can never be created outside the prior's support);
    * positive cell weight demanded of a partition cell with zero
      prior mass.
    """
    reasons: list[str] = []
    support = prior.support
    for c in constraints:
        if c.space != prior.space:
            raise SpaceMismatch("constraint lives on a different sample space")
        if isinstance(c, (EventProb, CondProb)) and not 0.0 <= c.value <= 1.0:
            reasons.append(f"probability target outside [0, 1]: {c.describe()}")
            continue
        if isinstance(c, EventProb):
            if c.value > 0.0 and prior.prob(c.event) <= ZERO_MASS:
                reasons.append(
                    f"event has zero prior mass but positive target: {c.describe()}"
                )
        elif isinstance(c, Expectation):
            vals = c.variable.array[support]
            lo, hi = float(vals.min()), float(vals.max())
            if c.value < lo or c.value > hi:
                reasons.append(
                    f"expectation target {c.value:g} outside attainable range "
                    f"[{lo:g}, {hi:g}] on the prior's support"
                )
        elif isinstance(c, PartitionWeights):
            for cell, w in zip(c.partition.cells, c.weights):
                if w > 0.0 and prior.prob(cell) <= ZERO_MASS:
                    reasons.append(
                        f"cell {cell.describe()} has zero prior mass "
                        f"but positive target weight {w:g}"
                    )
    return tuple(reasons)
