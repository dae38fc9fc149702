"""Seeded request generators that several tests draw from.

Each generator takes a ``numpy.random.Generator`` and returns one request, so a test that
seeds it with ``default_rng(seed)`` replays the same draws wherever it runs.
"""

from __future__ import annotations

import numpy as np

from relent.constraints import EventProb, Expectation, PartitionWeights
from relent.spaces import Distribution, Partition, RandomVariable

from conftest import space_of


def _jeffrey_request(rng: np.random.Generator, classes: int = 4):
    """A prior on 2-8 outcomes (zeros in half the draws), a partition of 2-5 cells, and
    weights from one of the first ``classes`` of five: Dirichlet(1); the same with one
    weight set to 0; a 1 beside a weight of 10^U(-17, -9); the prior's cell masses plus
    |N(0, 1e-11)| noise; Dirichlet(1) with every massless cell given 10^U(-16, -9)."""
    n = int(rng.integers(2, 9))
    prior = rng.dirichlet(np.full(n, 0.5))
    if rng.random() < 0.5:
        prior[rng.random(n) < 0.3] = 0.0
        if not prior.any():
            prior[rng.integers(n)] = 1.0
    prior /= prior.sum()
    k = int(rng.integers(2, min(5, n) + 1))
    cells = np.split(rng.permutation(n), np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)))
    masses = np.array([prior[c].sum() for c in cells])
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
    space = space_of(n)
    part = Partition.from_labels(space, [[f"w{i}" for i in sorted(c)] for c in cells])
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
