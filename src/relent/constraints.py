"""Declarative constraints on a posterior distribution.

Every constraint kind compiles to one or more rows
``sum_i coeffs[i] * posterior[i] = target``, and the rows of an update
form one :class:`System`: ``A p = b``, with a column of ``A`` per
outcome of the space, plus the constraint each row came from. A
partition of at least ``CELL_INDEX_ROWS`` cells is held as its cell
index, one intp per outcome, instead of its dense rows, and every
reader forms its products through the system's :class:`Matrix`. The
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
from typing import Sequence, Union

import numpy as np

from .errors import InfeasibleConstraint
from .spaces import Distribution, Event, Partition, RandomVariable, SampleSpace, _Value, _readonly
from .spaces import _finite_array, _finite_scalar, _require_same_space, _require_simplex, _row_dots


#: A partition of at least this many cells compiles to its cell index, an intp per outcome,
#: and its targets, not to a dense float row per cell; products with its rows then cost O(n)
#: per partition instead of O(n k). Smaller ones keep their dense rows: beside up to 20 dense
#: rows at n >= 2000, the dual's Gram products were faster through the index from 32 cells on
#: at every size measured, and slower at 4 cells.
CELL_INDEX_ROWS = 32


def _require_finite(value: float, what: str) -> float:
    return _finite_scalar(value, "constraint.not_finite", f"{what} must be finite")


class EventProb(_Value):
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


class Expectation(_Value):
    """Pin the posterior mean of a random variable: E[variable] = value."""

    variable: RandomVariable
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "expectation target"))

    @property
    def space(self) -> SampleSpace:
        return self.variable.space


class CondProb(_Value):
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


class PartitionWeights(_Value):
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
    a cell's row is its bool mask, the others are float64. :func:`compile_all` turns the
    masks of a partition of at least ``CELL_INDEX_ROWS`` cells into one cell index."""
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


class Matrix:
    """The rows of a :class:`System`, in its order, on some of its outcomes (the columns).

    ``A`` holds the dense rows, in order, and ``blocks`` the rest: each ``(r0, r1, cell)``
    stands for rows r0 to r1 - 1, disjoint 0/1 rows of one partition, where ``cell`` holds
    for each column the offset from r0 of the row that is 1 there, or r1 - r0 where none is.
    Every product with the rows is formed here: per row (``dot``), per column (``tdot``),
    their ranges, one row, and the restriction to some columns or some rows. Without
    blocks each is one numpy call on ``A``.
    """

    __slots__ = ("A", "blocks", "m", "dense")

    def __init__(self, A: np.ndarray, blocks: tuple, m: int):
        self.A, self.blocks, self.m = A, blocks, m
        self.dense = None  # positions of A's rows, when some rows are blocks'
        if blocks:
            dense = np.ones(m, bool)
            for r0, r1, _ in blocks:
                dense[r0:r1] = False
            self.dense = np.flatnonzero(dense)

    def _spread(self, part: np.ndarray) -> np.ndarray:
        """An m-vector with the dense rows' entries ``part``, for the blocks to fill."""
        out = np.empty(self.m)
        out[self.dense] = part
        return out

    def dot(self, p: np.ndarray | None = None, kernel=np.matmul) -> np.ndarray:
        """A p per row, the dense rows' part by ``kernel(A, p)``; each row's sum if p is None."""
        part = self.A.sum(axis=1) if p is None else kernel(self.A, p)
        if not self.blocks:
            return part
        out = self._spread(part)
        for r0, r1, cell in self.blocks:
            out[r0:r1] = np.bincount(cell, p, r1 - r0 + 1)[:-1]
        return out

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """A^T y per column, or Y A, a row per row of a matrix ``y``."""
        if not self.blocks:
            return self.A.T @ y if y.ndim == 1 else y @ self.A
        out = y[..., self.dense] @ self.A
        for r0, r1, cell in self.blocks:
            pad = np.zeros((*y.shape[:-1], r1 - r0 + 1))  # 0 where no row of the block is 1
            pad[..., :-1] = y[..., r0:r1]
            out += pad[..., cell]
        return out

    def ranges(self, live=True) -> tuple[np.ndarray, np.ndarray]:
        """Each row's least and greatest value on the ``live`` columns (a mask, or all)."""
        lo = self.A.min(axis=1, where=live, initial=np.inf)
        hi = self.A.max(axis=1, where=live, initial=-np.inf)
        if not self.blocks:
            return lo, hi
        lo, hi = self._spread(lo), self._spread(hi)
        for r0, r1, cell in self.blocks:
            count = np.bincount(cell if live is True else cell[live], None, r1 - r0 + 1)
            hi[r0:r1] = count[:-1] > 0  # 1 where the row's cell meets the live columns
            lo[r0:r1] = count[:-1] == count.sum()  # 1 where it holds all of them
        return lo, hi

    def row(self, j: int) -> np.ndarray:
        """Row j on every column: a float row, or a block's row as a bool mask."""
        for r0, r1, cell in self.blocks:
            if r0 <= j < r1:
                return cell == j - r0
        return self.A[j if self.dense is None else int(np.searchsorted(self.dense, j))]

    def compress(self, live: np.ndarray) -> "Matrix":
        """These rows on the ``live`` columns only."""
        return Matrix(self.A.compress(live, axis=1),
                      tuple((r0, r1, cell.compress(live)) for r0, r1, cell in self.blocks), self.m)

    def take(self, rows) -> "Matrix":
        """The rows at the increasing positions ``rows``, in order, each block's renumbered;
        ``A`` itself, not a copy, when they keep every dense row, and this matrix when every
        row."""
        rows = np.asarray(rows, np.intp)
        if len(rows) == self.m:
            return self
        dense = rows if self.dense is None else np.searchsorted(
            self.dense, rows[np.isin(rows, self.dense)])  # positions in A
        blocks = []
        for r0, r1, cell in self.blocks:
            mine = rows[(rows >= r0) & (rows < r1)] - r0
            if mine.size:
                start = int(np.searchsorted(rows, r0))
                offset = np.full(r1 - r0 + 1, mine.size)
                offset[mine] = np.arange(mine.size)
                blocks.append((start, start + mine.size, _readonly(offset[cell])))
        A = self.A if len(dense) == len(self.A) else self.A[dense]
        return Matrix(A, tuple(blocks), len(rows))


class System(_Value):
    """Compiled rows ``A p = b`` on the sample space it names, ``space``.

    Row j is compiled row ``index[j]``, from constraint ``source[j]``, with conditioning
    event ``given[j]`` (None unless conditional) and target ``b[j]``. ``blocks`` holds each
    partition of at least ``CELL_INDEX_ROWS`` cells as ``(r0, r1, cell)``: rows r0 to r1 - 1
    are its cells, and the read-only intp ``cell`` holds each outcome's offset in them, or
    r1 - r0 where none of them is 1. ``A``, read-only and C-ordered float64 with a column per
    outcome, holds every other row, in order. ``matrix``, the :class:`Matrix` of all the
    rows, is set once built; every reader of the rows forms its products through it.
    """

    space: SampleSpace
    A: np.ndarray
    b: np.ndarray
    index: tuple[int, ...]
    source: tuple[int, ...]
    given: tuple[Event | None, ...]
    blocks: tuple[tuple[int, int, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", Matrix(self.A, self.blocks, len(self.b)))

    # one compiled system is one update's, so it equals only itself
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def compile_all(constraints: Sequence[Constraint], space: SampleSpace) -> System:
    """The :class:`System` of ``constraints``, each compiled once, rows in their order; a
    partition of at least ``CELL_INDEX_ROWS`` cells becomes a block, its cell index built
    here from the cells' masks, and every other row a row of ``A``."""
    dense, b, source, given, blocks = [], [], [], [], []
    for k, c in enumerate(constraints):
        c_rows = compile_constraint(c, space)
        if isinstance(c, PartitionWeights) and len(c_rows) >= CELL_INDEX_ROWS:
            cell = np.empty(len(space), np.intp)
            for j, (mask, _) in enumerate(c_rows):
                cell[mask] = j
            blocks.append((len(b), len(b) + len(c_rows), _readonly(cell)))
        else:
            dense += [coeffs for coeffs, _ in c_rows]
        b += [t for _, t in c_rows]
        source += [k] * len(c_rows)
        given += [c.given if isinstance(c, CondProb) else None] * len(c_rows)
    # float64 even when every row is an event's mask
    A = _readonly(np.array(dense, float).reshape(len(dense), len(space)))
    return System(space, A, np.array(b, float), tuple(range(len(b))), tuple(source),
                  tuple(given), tuple(blocks))


def residual(dist: Distribution, system: System) -> float:
    """Largest absolute violation of ``A p = b`` under ``dist``, each dense row's ``a @ p``
    exactly; ``dist`` must live on the system's space (``constraint.space_mismatch``)."""
    _require_same_space(system.space, dist.space, "constraint")
    return float(np.abs(system.matrix.dot(dist.array, _row_dots) - system.b).max(initial=0.0))


class Witness(_Value):
    """A stake y that no posterior can meet: coefficients ``stake`` on the compiled ``rows``
    (row numbers in compilation order) price the targets at ``payoff`` = y . b, which lies
    outside [lo, hi], y . A_i's range on the live outcomes, so every posterior on them misses
    y . b, and so some row, by the gap over |y|_1. Its text is every refusal's certificate."""

    rows: tuple[int, ...]
    stake: tuple[float, ...]
    payoff: float
    lo: float
    hi: float

    def __str__(self) -> str:
        if len(self.stake) == 1 and abs(self.stake[0]) == 1.0:  # row j's own stake, +e_j or -e_j
            (j,), (s,) = self.rows, self.stake
            lo, hi = (self.lo, self.hi) if s > 0 else (-self.hi, -self.lo)
            where, price = f"row {j}", f"target {s * self.payoff!r}"
            stake = f"{'+' if s > 0 else '-'}e_{j}"
        else:
            lo, hi = self.lo, self.hi
            where, price = f"active rows {list(self.rows)}", f"y . b = {self.payoff!r}"
            terms = " ".join(f"{c:+}*e_{j}" for j, c in zip(self.rows, self.stake))
            stake = f"{terms} over the active rows"
        return (f"{where}: {price} lies outside [{lo!r}, {hi!r}], "
                f"its range on the outcomes still possible (witness y = {stake})")


def triage_feasibility(
    system: System, prior: Distribution, tol: float
) -> tuple[np.ndarray, System]:
    """One pass over the rows of a compiled ``system``: certificates and pins.

    The prior must live on the system's space (``constraint.space_mismatch``).
    Returns ``(live, rows)``: ``live`` masks the outcomes a posterior may still
    weight, and ``rows`` is the :class:`System`, on the same space, of the rows that
    still need a multiplier, each with its ``index``, ``source`` and ``given``; it is
    ``system`` itself when no row was pinned. Raises :class:`InfeasibleConstraint` with a
    :class:`Witness` for every row it refutes, each a proof that no posterior on the
    prior's support meets the rows; a set that passes may still be jointly
    unsatisfiable, which the solver detects.

    Every row is judged alike, whatever constraint kind it came from.
    With lo and hi the least and greatest value of row j (in compilation
    order) on the live support, at first the prior's:

    * a target more than tol below lo or above hi (lo - b > tol or
      b - hi > tol, differences that are exact near the boundary) is
      infeasible, and the stake y = -e_j or y = +e_j, on row j's compiled
      number, is the witness: it loses in every live outcome;
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
    A, b = system.matrix, system.b.tolist()
    active = list(range(len(b)))
    live = prior.support
    while True:
        lo, hi = (x.tolist() for x in A.ranges(live))
        witnesses = [
            Witness((system.index[j],), (1.0,), b[j], lo[j], hi[j]) if b[j] > hi[j]
            else Witness((system.index[j],), (-1.0,), -b[j], -hi[j], -lo[j])
            for j in active if b[j] - hi[j] > tol or lo[j] - b[j] > tol
        ]
        if witnesses:
            raise InfeasibleConstraint(*witnesses)
        for j in [j for j in active if not lo[j] < b[j] < hi[j]]:
            active.remove(j)
            face = live & (A.row(j) == (hi[j] if b[j] >= hi[j] else lo[j]))
            if not np.array_equal(face, live):
                live = face
                break
        else:  # no pin shrank the support, so no row's range can change
            break
    if len(active) == len(b):
        return live, system
    kept = A.take(active)
    return live, System(system.space, _readonly(kept.A), system.b[active], *(
        tuple(field[j] for j in active) for field in (system.index, system.source, system.given)),
        kept.blocks)
