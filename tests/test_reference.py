"""The 50-digit reference I-projection, and the solver against it across row units."""

from collections import Counter

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from reference import NoInteriorSolution, i_projection
from relent.constraints import EventProb, Expectation
from relent.errors import RelentError
from relent.solver import maxent_update
from relent.spaces import Distribution, Event, RandomVariable, SampleSpace


class TestReference:
    def test_jeffrey_closed_form(self):
        # one event row: the cells keep their prior odds at their new masses
        p = i_projection([0.125, 0.25, 0.375, 0.25], [[1, 1, 0, 0]], [0.5])
        with mpmath.workdps(50):
            want = [mpf(1) / 6, mpf(1) / 3, mpf(3) / 10, mpf(1) / 5]
            assert max(abs(a - b) for a, b in zip(p, want)) < mpf("1e-24")

    def test_zero_prior_outcomes_stay_zero(self):
        p = i_projection([0.5, 0.0, 0.5], [[0.0, 1.0, 3.0]], [2.0])
        assert p[1] == 0
        with mpmath.workdps(50):
            assert abs(p[2] * 3 - 2) < mpf("1e-24")

    @pytest.mark.parametrize("target", [0.0, 1.0, 1.5], ids=["lowest", "highest", "beyond"])
    def test_target_off_the_interior_raises(self, target):
        with pytest.raises(NoInteriorSolution):
            i_projection([0.5, 0.5], [[0.0, 1.0]], [target])

    def test_face_forced_by_two_rows_raises(self):
        # P(a) = 0.5 and P(a or b) = 0.5 put no mass on b
        with pytest.raises(NoInteriorSolution):
            i_projection([1 / 3] * 3, [[1, 0, 0], [1, 1, 0]], [0.5, 0.5])


def test_solver_against_the_reference_across_row_units():
    """Unit-scale successes match the reference; every other class is only counted.

    Each pair is one expectation row (x + 7, x normal) and one event row on
    n = 4-12 outcomes, with a Dirichlet(1) prior and targets read off a
    Dirichlet(1) p, solved with the expectation row scaled by 1e-6, 1 and 1e9.
    """
    rng = np.random.default_rng(20261019)
    counts = Counter()
    for _ in range(60):
        n = int(rng.integers(4, 13))
        space = SampleSpace(tuple(f"w{i}" for i in range(n)))
        prior = Distribution.from_array(space, rng.dirichlet(np.ones(n)))
        x = rng.normal(size=n) + 7.0
        mask = np.zeros(n, dtype=bool)
        mask[rng.permutation(n)[: int(rng.integers(1, n))]] = True
        event = Event(space, tuple(np.asarray(space.outcomes)[mask]))
        p = rng.dirichlet(np.ones(n))
        for scale in (1e-6, 1.0, 1e9):
            row = x * scale
            A, b = [row, mask.astype(float)], [float(p @ row), float(p[mask].sum())]
            want = np.array(i_projection(prior.array, A, b), dtype=float)
            try:
                got = maxent_update(prior, [Expectation(RandomVariable(space, row), b[0]),
                                            EventProb(event, b[1])]).posterior.array
            except RelentError as exc:
                counts[scale, type(exc).__name__] += 1
                continue
            off = float(np.max(np.abs(got - want)))
            counts[scale, "success" if off <= 1e-9 else "success off the reference"] += 1
            if scale == 1.0:
                assert off <= 1e-9, f"n={n}: {off:.3g} off the reference"
    print(dict(sorted(counts.items())))
    assert sum(counts.values()) == 180
