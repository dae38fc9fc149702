"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from relent.coherence import ForecastSystem, quadratic_loss, world_valuations
from relent.spaces import Distribution, SampleSpace


def space_of(n: int) -> SampleSpace:
    return SampleSpace(tuple(f"w{i}" for i in range(n)))


# A prior on w0..w6 and three event pins, (outcomes, target), that no
# distribution meets (an LP puts them 0.29 apart), although every target lies
# in [0, 1] and every event has prior mass, so only the solver can tell.
JOINTLY_INFEASIBLE_PRIOR = (
    0.00033171031570191576, 0.4078790772940108, 0.09638193310384784,
    0.05656974824175936, 0.10776925083143324, 0.09709109575672757,
    0.23397718445651924,
)
JOINTLY_INFEASIBLE_PINS = (
    (("w0", "w1", "w5"), 0.18611416004776848),
    (("w0", "w1", "w2", "w3", "w5", "w6"), 0.17914431730426428),
    (("w0", "w4", "w5", "w6"), 0.528005316371534),
)


def brute_force_dominator(fs: ForecastSystem, step: float = 1e-2):
    """Grid search for any forecast strictly better in every world.

    Independent of the audit's projection machinery on purpose: it
    scans every candidate forecast over [0, 1]^n and returns one
    strict dominator if any exists on the grid, else None.
    """
    worlds = world_valuations(fs)
    base = np.array([quadratic_loss(fs, w) for w in worlds])
    axis = np.arange(0.0, 1.0 + step / 2, step)
    grids = np.meshgrid(*[axis] * len(fs.events), indexing="ij")
    cands = np.stack([g.ravel() for g in grids], axis=1)  # (g^k, k)
    ok = np.ones(len(cands), dtype=bool)
    for w, b in zip(worlds, base):
        losses = ((cands - np.array(w.values)) ** 2).sum(axis=1)
        ok &= losses < b
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    return tuple(float(v) for v in cands[hits[0]])


@st.composite
def spaces(draw, min_size: int = 1, max_size: int = 8) -> SampleSpace:
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return space_of(n)


@st.composite
def weight_vectors(draw, n: int, min_positive: int = 1) -> tuple[float, ...]:
    """Nonnegative weights summing to one, with at least ``min_positive`` live cells."""
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    live = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=min_positive, max_size=n)
    )
    arr = np.array(raw)
    for i in live:
        arr[i] = max(arr[i], 0.05)
    arr = arr / arr.sum()
    return tuple(float(w) for w in arr)


@st.composite
def distributions(draw, min_size: int = 1, max_size: int = 8, min_positive: int = 1):
    space = draw(spaces(min_size=min_size, max_size=max_size))
    ws = draw(weight_vectors(len(space), min_positive=min(min_positive, len(space))))
    return Distribution(space, ws)


@st.composite
def positive_distributions(draw, min_size: int = 2, max_size: int = 8):
    """Distributions with every outcome strictly above the zero-mass threshold."""
    space = draw(spaces(min_size=min_size, max_size=max_size))
    n = len(space)
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.array(raw)
    arr = arr / arr.sum()
    return Distribution.from_array(space, arr)
