"""Executable consistency checks for belief updates over a partition.

The property under test: when new information consists of (a) fresh
masses for the cells of a partition and (b) information purely about
what happens *inside* individual cells, then updating the whole prior
at once and then looking inside a cell must agree with updating that
cell's conditional prior with only its own information. In the special
case of no within-cell information at all, this reduces to the claim
that reweighting cells never disturbs conditional probabilities inside
them.

The check does not assume the property holds: it computes the two sides
independently (through the update solver) and scores each cell by the
largest disagreement in probability of any event inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import CondProb, Constraint, EventProb, PartitionWeights
from .errors import ConstructionError
from .solver import maxent_update
from .spaces import ZERO_MASS, Distribution, Event, Partition, SampleSpace, _finite_scalar
from .spaces import _integer, condition

@dataclass(frozen=True)
class CellInfo:
    """Information about the conditional distribution inside one cell.

    Constraints are read against the cell's conditional distribution,
    so ``EventProb(a, v)`` here means "given the cell, a has
    probability v". Only event-based constraint kinds make sense in
    that reading; expectation and partition constraints are rejected.
    """

    cell_index: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        _integer(self.cell_index, "cellinfo.bad_index", "cell_index must be an int >= 0", 0)
        for c in self.constraints:
            if not isinstance(c, (EventProb, CondProb)):
                raise ConstructionError(
                    "cellinfo.unsupported_kind",
                    "within-cell information must pin event or conditional "
                    f"probabilities, got {type(c).__name__}",
                )


@dataclass(frozen=True)
class AxiomReport:
    """Worst-case disagreement between the two sides of a consistency check.

    per_cell pairs each checked cell index with its deviation.
    skipped_cells lists cells that could not be checked because their
    posterior mass vanished.
    """

    tol: float
    per_cell: tuple[tuple[int, float], ...]
    skipped_cells: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "per_cell", tuple((int(i), float(d)) for i, d in self.per_cell))
        object.__setattr__(self, "skipped_cells", tuple(int(i) for i in self.skipped_cells))

    @property
    def max_deviation(self) -> float:
        return max((d for _, d in self.per_cell), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def _relativize(c: Constraint, cell: Event) -> Constraint:
    """Restate a within-cell constraint on the full space."""
    if isinstance(c, EventProb):
        if not c.event.issubset(cell):
            raise ConstructionError(
                "cellinfo.event_outside_cell",
                f"event {c.event.describe()} is not inside cell {cell.describe()}",
            )
        return CondProb(c.event, cell, c.value)
    # otherwise a CondProb, the one other kind CellInfo admits; for events inside
    # the cell, conditioning on the cell first changes nothing: P(a | b) is
    # already a within-cell statement
    if not (c.target.issubset(cell) and c.given.issubset(cell)):
        raise ConstructionError(
            "cellinfo.event_outside_cell",
            f"events of {c.describe()} are not inside cell {cell.describe()}",
        )
    return c


def check_axiom4_full(
    prior: Distribution,
    part: Partition,
    m: PartitionWeights,
    infos: tuple[CellInfo, ...] | list[CellInfo],
    tol: float,
) -> AxiomReport:
    """Compare whole-space updating against per-cell updating.

    Left side: update ``prior`` with the cell weights plus every
    within-cell constraint restated on the full space, then condition
    on each cell. Right side: condition ``prior`` on the cell first,
    then update with only that cell's own constraints. The deviation
    for a cell is the largest difference between the two sides in the
    probability of any event inside it: the larger of the summed
    positive and the summed negative elementwise differences.

    Cells whose left-side posterior mass vanishes (weight pinned to
    zero) are skipped and flagged; every other cell is conditioned, so
    one without prior mass raises :class:`ZeroMassEvent`. Solver
    failures (infeasible or non-convergent joint constraints) propagate.
    ``tol`` must be finite and nonnegative.
    """
    tol = _finite_scalar(tol, "axiom.bad_tol", "tol must be nonnegative", lambda x: x >= 0.0)
    if m.partition != part:
        raise ConstructionError(
            "axiom.partition_mismatch",
            "cell weights were built for a different partition",
        )
    by_cell: dict[int, list[Constraint]] = {}
    for info in infos:
        if info.cell_index >= len(part.cells):
            raise ConstructionError(
                "cellinfo.bad_index",
                f"cell_index {info.cell_index} out of range for {len(part.cells)} cells",
            )
        by_cell.setdefault(info.cell_index, []).extend(info.constraints)

    full_constraints: list[Constraint] = [m]
    for i, cs in sorted(by_cell.items()):
        full_constraints.extend(_relativize(c, part.cells[i]) for c in cs)
    joint_posterior = maxent_update(prior, full_constraints).posterior

    per_cell: list[tuple[int, float]] = []
    skipped: list[int] = []
    for i, cell in enumerate(part.cells):
        if joint_posterior.prob(cell) <= ZERO_MASS:
            skipped.append(i)
            continue
        left = condition(joint_posterior, cell)
        right = maxent_update(condition(prior, cell), by_cell.get(i, [])).posterior
        d = left.array - right.array
        per_cell.append((i, max(float(d[d > 0].sum()), float(-d[d < 0].sum()))))
    return AxiomReport(tol, tuple(per_cell), tuple(skipped))


def check_axiom4b(
    prior: Distribution,
    part: Partition,
    m: PartitionWeights,
    tol: float,
    seed: int = 0,
) -> AxiomReport:
    """Verify that reweighting partition cells preserves within-cell conditionals.

    This is :func:`check_axiom4_full` with no within-cell information:
    it compares P(a | cell) before and after the update for every event
    a inside each cell. ``seed`` is ignored: the check draws nothing at
    random.
    """
    return check_axiom4_full(prior, part, m, (), tol)


def random_reweighting_case(
    rng: np.random.Generator, n_max: int = 10
) -> tuple[Distribution, Partition, PartitionWeights]:
    """Draw one feasible (prior, partition, weights) triple for property trials.

    Priors and weights are kept away from the simplex boundary so every
    cell has comparable conditionals before and after the update.
    ``n_max``, the largest space drawn, is an int of at least 2.
    """
    _integer(n_max, "axiom.bad_n_max", "n_max must be an int of at least 2", 2)
    n = int(rng.integers(2, n_max + 1))
    space = SampleSpace(tuple(f"w{i}" for i in range(n)))
    prior = Distribution.from_array(space, rng.dirichlet(np.ones(n) * 2.0) * 0.98 + 0.02 / n)
    k = int(rng.integers(2, min(4, n) + 1))
    owner = rng.integers(0, k, size=n)
    owner[rng.permutation(n)[:k]] = np.arange(k)  # every cell nonempty
    cells = [tuple(space.outcomes[i] for i in np.flatnonzero(owner == j)) for j in range(k)]
    part = Partition.from_labels(space, cells)
    weights = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
    weights = weights / weights.sum()
    return prior, part, PartitionWeights(part, tuple(float(w) for w in weights))
