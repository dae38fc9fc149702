"""Declarative constraints on a posterior distribution.

Every constraint kind compiles to one or more rows
``sum_i coeffs[i] * posterior[i] = target``, and the rows of an update
form one :class:`System`: ``A p = b``, with a column of ``A`` per
outcome of the space, plus the constraint each row came from. The
solver compiles each constraint exactly once per update, and every step
of the update, from feasibility screening to the final residual, reads
that one system, never the constraint kinds.

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

from .spaces import Distribution, Event, Partition, RandomVariable, SampleSpace, _row_dots
from .spaces import _finite_array, _finite_scalar, _require_same_space, _require_simplex


def _require_finite(value: float, what: str) -> float:
    return _finite_scalar(value, "constraint.not_finite", f"{what} must be finite")


@dataclass(frozen=True)
class EventProb:
    """Pin the posterior probability of an event: P(event) = value.

    Out-of-range values are accepted here, so that an impossible *demand*
    is reported as infeasible rather than as malformed input: triage
    certifies a value beyond [0, 1] by more than tol, as it does any row.
    """

    event: Event
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "probability target"))

    @property
    def space(self) -> SampleSpace:
        return self.event.space


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
    probability. The solver checks that nondegeneracy after the fact, so a
    value outside [0, 1], met only by P(given) = 0, is degenerate (or
    infeasible, when ``given`` covers every outcome still possible).
    """

    target: Event
    given: Event
    value: float

    def __post_init__(self):
        _require_same_space(self.target.space, self.given.space, "constraint", "conditioning event")
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
    constraint kinds. ``weights`` keeps the values as given; they compile
    to targets over their exact sum, which is 1 within rounding.
    """

    partition: Partition
    weights: tuple[float, ...]

    def __post_init__(self):
        a = _finite_array(self.weights, (len(self.partition.cells),), "constraint",
                          "constraint.length_mismatch", "got {size} weights for {shape[0]} cells",
                          "cell weights must be finite")
        object.__setattr__(self, "weights", tuple(a.tolist()))
        _require_simplex(a, "constraint", "cell weight", "cell weights")

    @property
    def space(self) -> SampleSpace:
        return self.partition.space


Constraint = Union[EventProb, Expectation, CondProb, PartitionWeights]


def compile_constraint(c: Constraint, space: SampleSpace) -> tuple[tuple[np.ndarray, float], ...]:
    """Lower one constraint to ``(coeffs, target)`` rows aligned to ``space``; an event's or
    a cell's row is its bool mask, the others are float64."""
    if not isinstance(c, Constraint):  # before c.space, which another object may lack
        raise TypeError(f"not a constraint: {c!r}")
    _require_same_space(c.space, space, "constraint")
    if isinstance(c, EventProb):
        return ((c.event.indicator, c.value),)
    if isinstance(c, Expectation):
        return ((c.variable.array, c.value),)
    if isinstance(c, CondProb):
        coeffs = c.target.intersect(c.given).indicator - c.value * c.given.indicator
        return ((coeffs, 0.0),)
    total = math.fsum(c.weights)  # a PartitionWeights
    return tuple((cell.indicator, w / total) for cell, w in zip(c.partition.cells, c.weights))


@dataclass(frozen=True, eq=False)
class System:
    """Compiled rows ``A p = b`` on the sample space it names, ``space``: ``A`` is read-only,
    C-ordered float64, with a column per outcome, and row j came from constraint ``source[j]``
    and has conditioning event ``given[j]``, None unless it is conditional."""

    space: SampleSpace
    A: np.ndarray
    b: np.ndarray
    source: tuple[int, ...]
    given: tuple[Event | None, ...]


def compile_all(constraints: Sequence[Constraint], space: SampleSpace) -> System:
    """The :class:`System` of ``constraints``, each compiled once, rows in their order."""
    rows, source, given = [], [], []
    for k, c in enumerate(constraints):
        c_rows = compile_constraint(c, space)
        rows += c_rows
        source += [k] * len(c_rows)
        given += [c.given if isinstance(c, CondProb) else None] * len(c_rows)
    # float64 even when every row is an event's mask
    A = np.array([coeffs for coeffs, _ in rows], float).reshape(len(rows), len(space))
    A.flags.writeable = False
    return System(space, A, np.array([t for _, t in rows], float), tuple(source), tuple(given))


def residual(dist: Distribution, system: System) -> float:
    """Largest absolute violation of ``A p = b`` under ``dist``, each row's ``a @ p`` exactly;
    ``dist`` must live on the system's space (``constraint.space_mismatch``)."""
    _require_same_space(system.space, dist.space, "constraint")
    return float(np.abs(_row_dots(system.A, dist.array) - system.b).max(initial=0.0))


def triage_feasibility(
    system: System, prior: Distribution, tol: float
) -> tuple[tuple[str, ...], np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One pass over the rows of a compiled ``system``: certificates and pins.

    The prior must live on the system's space (``constraint.space_mismatch``).
    Returns ``(reasons, live, (A, b))``. ``reasons`` holds one certificate
    per proof that no posterior on the prior's support meets the rows; an
    empty tuple means the pass found none, and the set may still be jointly
    unsatisfiable, which the solver detects. ``live`` masks the outcomes a
    posterior may still weight, and ``(A, b)`` keeps the rows of ``system``
    that still need a multiplier.

    Every row is judged alike, whatever constraint kind it came from.
    With lo and hi the least and greatest value of row j (in compilation
    order) on the live support, at first the prior's:

    * a target more than tol below lo or above hi (lo - b > tol or
      b - hi > tol, differences that are exact near the boundary) is
      infeasible, and the stake y = -e_j or y = +e_j is the witness: it
      loses in every live outcome;
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
    _require_same_space(system.space, prior.space, "constraint")
    A, b = system.A, system.b.tolist()
    active = list(range(len(b)))
    live = prior.support
    while True:
        lo = A.min(axis=1, where=live, initial=np.inf).tolist()
        hi = A.max(axis=1, where=live, initial=-np.inf).tolist()
        reasons = [
            f"row {j}: target {b[j]!r} lies outside [{lo[j]!r}, {hi[j]!r}], its range on the "
            f"outcomes still possible (witness y = {'+' if b[j] > hi[j] else '-'}e_{j})"
            for j in active if b[j] - hi[j] > tol or lo[j] - b[j] > tol
        ]
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
