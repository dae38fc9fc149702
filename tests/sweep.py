"""Seeded request generators that several tests draw from.

Each generator takes a ``numpy.random.Generator`` and returns one request, so a test that
seeds it with ``default_rng(seed)`` replays the same draws wherever it runs.
"""

from __future__ import annotations

import numpy as np

from relent.constraints import CondProb, EventProb, Expectation, PartitionWeights
from relent.scenario import Scenario
from relent.spaces import Distribution, Event, Partition, RandomVariable, SampleSpace

from conftest import space_of


def _random_partition(rng: np.random.Generator, space, k: int):
    """``k`` cells of ``space`` cut from a random permutation: each cell's outcome positions,
    and the partition."""
    n = len(space)
    cells = np.split(rng.permutation(n), np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)))
    labels = [[space.outcomes[i] for i in sorted(c)] for c in cells]
    return cells, Partition.from_labels(space, labels)


def _sparse_prior(rng: np.random.Generator, n: int, zeroed: float) -> np.ndarray:
    """Dirichlet(0.5) weights on ``n`` outcomes; in a share ``zeroed`` of the draws each is
    set to 0 with probability 0.3 (one outcome to 1 when none is left), then renormalized."""
    prior = rng.dirichlet(np.full(n, 0.5))
    if rng.random() < zeroed:
        prior[rng.random(n) < 0.3] = 0.0
        if not prior.any():
            prior[rng.integers(n)] = 1.0
    return prior / prior.sum()


def _jeffrey_request(rng: np.random.Generator, classes: int = 4):
    """A prior on 2-8 outcomes (zeros in half the draws), a partition of 2-5 cells, and
    weights from one of the first ``classes`` of five: Dirichlet(1); the same with one
    weight set to 0; a 1 beside a weight of 10^U(-17, -9); the prior's cell masses plus
    |N(0, 1e-11)| noise; Dirichlet(1) with every massless cell given 10^U(-16, -9)."""
    n = int(rng.integers(2, 9))
    prior, space = _sparse_prior(rng, n, 0.5), space_of(n)
    cells, part = _random_partition(rng, space, int(rng.integers(2, min(5, n) + 1)))
    k, masses = len(cells), np.array([prior[c].sum() for c in cells])
    kind = int(rng.integers(classes))
    if kind in (0, 1, 4):
        weights = rng.dirichlet(np.ones(k))
        if kind == 1:
            weights[rng.integers(k)] = 0.0
        if kind == 4:
            weights[masses == 0.0] = 10.0 ** rng.uniform(-16, -9, np.count_nonzero(masses == 0.0))
        weights /= weights.sum()
    elif kind == 2:
        weights = np.zeros(k)
        weights[rng.choice(k, 2, replace=False)] = 1.0, 10.0 ** rng.uniform(-17, -9)
    else:
        weights = masses + np.abs(rng.normal(0.0, 1e-11, k))
    return Distribution.from_array(space, prior), part, tuple(weights.tolist())


def _pinned_support_request(rng: np.random.Generator, pinned: bool):
    """A prior and constraints from ``_jeffrey_request(rng, classes=5)``: one EventProb on
    its first cell or one PartitionWeights on its partition, each in half the draws; when
    ``pinned``, a whole pin P(E) = 0 or 1 on a random event E goes before or after it, so
    the rows triage leaves are that constraint's cells on the pin's face."""
    prior, part, weights = _jeffrey_request(rng, classes=5)
    if rng.random() < 0.5:
        constraints = [EventProb(part.cells[0], weights[0])]
    else:
        constraints = [PartitionWeights(part, weights)]
    if pinned:
        space = prior.space
        event = space.subset(*(w for w in space.outcomes if rng.random() < 0.5))
        constraints.insert(int(rng.integers(2)), EventProb(event, float(rng.integers(2))))
    return prior, constraints


SCALES = (1e-6, 1e-3, 1.0, 1e3)


def _scaled_row(space, members, scale, target):
    """E[scale * [outcome in members]] = target."""
    x = np.zeros(len(space))
    x[members] = scale
    return Expectation(RandomVariable(space, tuple(x.tolist())), target)


def _near_boundary_pair(rng):
    """A prior on 3-8 outcomes, an offset delta = 10^U(-10.5, -8), and two rows (E, c, d),
    each E[scale [outcome in E]] = scale c + d at a given scale.

    Either E1 and E2 are disjoint and miss an outcome, with targets that sum to scale +
    delta, or E1 lies strictly inside E2, which misses an outcome, with E1's target delta
    above E2's; either way the least largest miss of the two rows is exactly delta / 2.
    """
    n = int(rng.integers(3, 9))
    prior = Distribution.from_array(space_of(n), rng.dirichlet(np.ones(n)))
    delta, order, u = 10 ** rng.uniform(-10.5, -8), rng.permutation(n), rng.uniform(0.1, 0.9)
    if rng.random() < 0.5:
        k1 = int(rng.integers(1, n - 1))
        e2 = order[k1 : k1 + int(rng.integers(1, n - k1))]
        return prior, delta, ((order[:k1], u, 0.0), (e2, 1 - u, delta))
    k2 = int(rng.integers(2, n))
    return prior, delta, ((order[: int(rng.integers(1, k2))], u, delta), (order[:k2], u, 0.0))


def _mixed_request(rng: np.random.Generator):
    """A prior on 3-8 outcomes, Dirichlet(0.5) with outcomes zeroed at random in 40% of the
    draws, and 2-4 constraints of a random kind (event, expectation, conditional, partition)
    whose targets are read off a Dirichlet(1) p over every outcome, each constraint's shifted
    by 0, +-10^U(-11, -8) or N(0, 0.1): a partition's first weight gains the shift and its
    last loses it. A weight shifted below zero raises ``ConstructionError`` as the request
    is built, which callers count as a request that fails to build."""
    n = int(rng.integers(3, 9))
    prior = _sparse_prior(rng, n, 0.4)
    space, p = space_of(n), rng.dirichlet(np.ones(n))
    constraints = []
    for _ in range(int(rng.integers(2, 5))):
        kind, which = int(rng.integers(4)), int(rng.integers(3))
        shift = (0.0, rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11, -8),
                 rng.normal(0.0, 0.1))[which]
        event, given = (Event(space, np.compress(rng.random(n) < 0.5, space.outcomes).tolist())
                        for _ in range(2))
        if kind == 0:
            constraints.append(EventProb(event, float(p @ event.indicator) + shift))
        elif kind == 1:
            x = RandomVariable(space, tuple(rng.normal(size=n).tolist()))
            constraints.append(Expectation(x, float(p @ x.array) + shift))
        elif kind == 2:
            mass = float(p @ given.indicator)
            value = float(p @ (event.indicator & given.indicator)) / mass if mass else 0.0
            constraints.append(CondProb(event, given, value + shift))
        else:
            cells, part = _random_partition(rng, space, int(rng.integers(2, min(4, n) + 1)))
            weights = np.array([p[c].sum() for c in cells])
            weights[[0, -1]] += shift, -shift
            constraints.append(PartitionWeights(part, tuple(weights.tolist())))
    return Distribution.from_array(space, prior), constraints


def _pin_beside_request(rng: np.random.Generator):
    """A prior on 3-8 outcomes, Dirichlet(0.5) with outcomes zeroed at random in half the
    draws, and a whole pin P(E) = 0 or 1, E holding each outcome with probability 1/2, beside
    either a 2-5-cell partition with Dirichlet(1) weights or its first cell's EventProb at
    that cell's weight, each in half the draws; the two come in random order."""
    n = int(rng.integers(3, 9))
    prior, space = _sparse_prior(rng, n, 0.5), space_of(n)
    pin = EventProb(Event(space, np.compress(rng.random(n) < 0.5, space.outcomes).tolist()),
                    float(rng.integers(2)))
    _, part = _random_partition(rng, space, int(rng.integers(2, min(5, n) + 1)))
    weights = tuple(rng.dirichlet(np.ones(len(part.cells))).tolist())
    if rng.random() < 0.5:
        constraints = [PartitionWeights(part, weights)]
    else:
        constraints = [EventProb(part.cells[0], weights[0])]
    constraints.insert(int(rng.integers(2)), pin)
    return Distribution.from_array(space, prior), constraints


def _contingency_table(rng: np.random.Generator, k: int = 10) -> Scenario:
    """A uniform k*k*k table fitted to the three pairwise marginals of a random one."""
    w = len(str(k - 1))  # digits per axis, so labels stay distinct beyond k = 10
    space = SampleSpace(tuple(f"t{i:0{w}}{j:0{w}}{l:0{w}}"
                              for i in range(k) for j in range(k) for l in range(k)))
    truth = rng.dirichlet(np.ones(k ** 3))
    i, j, l = np.unravel_index(np.arange(k ** 3), (k, k, k))
    labels = np.asarray(space.outcomes)
    constraints = []
    for cell_of in (i * k + j, i * k + l, j * k + l):
        part = Partition.from_labels(space, [tuple(labels[cell_of == c]) for c in range(k * k)])
        weights = np.bincount(cell_of, weights=truth, minlength=k * k)
        constraints.append(PartitionWeights(part, tuple(weights / weights.sum())))
    return Scenario(space, Distribution.uniform(space), tuple(constraints))
