import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import relent.coherence
import relent.scenario
from relent.coherence import (
    AdmissibilityVerdict,
    ForecastSystem,
    WorldValuation,
    _project_to_hull,
    audit_admissibility,
    quadratic_loss,
    world_losses,
    world_valuations,
)
from relent.constraints import EventProb
from relent.errors import ConstructionError, InfeasibleConstraint, NonConvergence
from relent.scenario import emit_report, parse_file
from relent.solver import SolverOptions, maxent_update
from relent.spaces import Distribution, SampleSpace

from conftest import brute_force_dominator

GOLDEN = Path(__file__).resolve().parent / "golden"
TWO = SampleSpace(("yes", "no"))
E = TWO.subset("yes")
NOT_E = TWO.subset("no")


class TestQuadraticLoss:
    def test_perfect_forecast_scores_zero(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (1.0, 0.0))
        w = WorldValuation.for_outcome(fs, "yes")
        assert quadratic_loss(fs, w) == 0.0

    def test_hedge_scores_quarter_in_both_worlds(self):
        fs = ForecastSystem(TWO, (E,), (0.5,))
        for w in world_valuations(fs):
            assert quadratic_loss(fs, w) == pytest.approx(0.25)

    def test_incoherent_pair_example(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.7, 0.7))
        w = WorldValuation.for_outcome(fs, "yes")  # E true: valuations (1, 0)
        assert quadratic_loss(fs, w) == pytest.approx(0.3**2 + 0.7**2)
        assert quadratic_loss(fs, w) == pytest.approx(0.58)

    def test_length_mismatch_rejected(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.5, 0.5))
        with pytest.raises(ConstructionError):
            quadratic_loss(fs, WorldValuation("yes", (1.0,)))


class TestConstruction:
    def test_forecasts_may_leave_unit_interval(self):
        fs = ForecastSystem(TWO, (E,), (1.4,))
        assert fs.forecasts == (1.4,)

    def test_nan_rejected(self):
        with pytest.raises(ConstructionError) as ei:
            ForecastSystem(TWO, (E,), (float("nan"),))
        assert ei.value.code == "forecast.not_finite"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConstructionError) as ei:
            ForecastSystem(TWO, (E, NOT_E), (0.5,))
        assert ei.value.code == "forecast.length_mismatch"

    def test_stores_one_read_only_array(self):
        fs = ForecastSystem(TWO, [E, NOT_E], [0.25, 1])
        assert fs.array.dtype == np.float64
        assert fs.forecasts == (0.25, 1.0)
        with pytest.raises(ValueError):
            fs.array[0] = 0.5

    def test_infinite_forecast_rejected(self):
        with pytest.raises(ConstructionError) as ei:
            ForecastSystem(TWO, (E, NOT_E), (0.5, float("-inf")))
        assert ei.value.code == "forecast.not_finite"

    def test_equality_and_hash_by_contents(self):
        a = ForecastSystem(TWO, (E, NOT_E), (0.7, 0.7))
        b = ForecastSystem(TWO, [TWO.subset("yes"), TWO.subset("no")], np.array([0.7, 0.7]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != ForecastSystem(TWO, (E, NOT_E), (0.7, 0.3))
        assert a != ForecastSystem(TWO, (NOT_E, E), (0.7, 0.7))

    def test_valuation_matrix_has_a_column_per_event(self):
        fs = ForecastSystem(TWO, (NOT_E, E, NOT_E), (0.1, 0.2, 0.3))
        assert fs.valuation_matrix.tolist() == [[False, True, False], [True, False, True]]
        for V in (fs.valuation_matrix, ForecastSystem(TWO, (), ()).valuation_matrix):
            assert V.dtype == np.bool_
            assert V.flags.c_contiguous and not V.flags.writeable
        assert ForecastSystem(TWO, (), ()).valuation_matrix.shape == (2, 0)

    def test_event_on_another_space_rejected(self):
        with pytest.raises(ConstructionError) as ei:
            ForecastSystem(TWO, (E, SampleSpace(("x", "y")).subset("x")), (0.5, 0.5))
        assert ei.value.code == "forecast.space_mismatch"

    def test_valuation_for_unknown_outcome_rejected(self):
        fs = ForecastSystem(TWO, (E,), (0.5,))
        for outcome in ("maybe", 3, None, ["yes"]):  # an unhashable label is no outcome either
            with pytest.raises(ConstructionError) as ei:
                WorldValuation.for_outcome(fs, outcome)
            assert ei.value.code == "valuation.unknown_outcome"

    def test_valuations_must_be_binary(self):
        with pytest.raises(ConstructionError) as ei:
            WorldValuation("yes", (0.5,))
        assert ei.value.code == "valuation.not_binary"

    def test_verdict_invariants_enforced(self):
        for args in [
            (True, (0.5,), 0.0, (0.25, 0.25)),
            (False, None, 0.1, (0.25, 0.25), (0.0, 0.0)),
            (False, (0.5,), 0.0, (0.25, 0.25), (0.0, 0.0)),
            (True, None, 0.0, (0.25, 0.25), (0.0, 0.0)),
            (False, (0.5,), 0.1, (0.25, 0.25), (0.0,)),
            (True, None, 0.0, (0.25,)),  # a loss for one of TWO's two worlds
        ]:
            with pytest.raises(ConstructionError) as ei:
                AdmissibilityVerdict(TWO, *args)
            assert ei.value.code == "verdict.inconsistent"
        AdmissibilityVerdict(TWO, True, None, 0.0, (0.25, 0.25))
        AdmissibilityVerdict(TWO, False, (0.5,), 0.1, (0.25, 0.25), (0.0, 0.0))


class TestAuditKnownCases:
    def test_overconfident_pair_dominated_by_half_half(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.7, 0.7))
        verdict = audit_admissibility(fs)
        assert not verdict.admissible
        assert_allclose(verdict.dominating, (0.5, 0.5), atol=1e-9)
        # losses drop from 0.58 to 0.50 in both worlds
        dom = ForecastSystem(TWO, (E, NOT_E), verdict.dominating)
        for w in world_valuations(fs):
            assert quadratic_loss(fs, w) == pytest.approx(0.58)
            assert quadratic_loss(dom, w) == pytest.approx(0.50)
        assert verdict.margin == pytest.approx(0.08)

    def test_vertex_is_admissible(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (1.0, 0.0))
        verdict = audit_admissibility(fs)
        assert verdict.admissible
        assert verdict.dominating is None
        assert verdict.margin == 0.0

    def test_coherent_pair_admissible(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.3, 0.7))
        assert audit_admissibility(fs).admissible

    def test_empty_system_trivially_admissible(self):
        fs = ForecastSystem(TWO, (), ())
        assert audit_admissibility(fs).admissible

    def test_forecast_outside_unit_cube_dominated(self):
        fs = ForecastSystem(TWO, (E,), (1.4,))
        verdict = audit_admissibility(fs)
        assert not verdict.admissible
        assert_allclose(verdict.dominating, (1.0,), atol=1e-9)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_unfinished_projection_is_nonconvergence(self, monkeypatch, steps):
        # with the budget cut, the projection stops short of the hull's nearest
        # point; it used to come back as an admissible verdict with margin 0
        fs = parse_file(str(GOLDEN / "audit_dominated_64.json")).forecasts
        assert not audit_admissibility(fs).admissible
        monkeypatch.setattr(relent.coherence, "MAX_MAJOR_STEPS", steps)
        with pytest.raises(NonConvergence) as ei:
            audit_admissibility(fs)
        gap = {1: "0.7125", 2: "0.283913"}[steps]
        assert str(ei.value) == (f"the hull projection stopped after {steps} major steps "
                                 f"with gap {gap} above 5.0346e-14")

    def test_margin_equals_squared_projection_distance(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.7, 0.7))
        verdict = audit_admissibility(fs)
        dist_sq = float(
            np.sum((np.array(verdict.dominating) - np.array(fs.forecasts)) ** 2)
        )
        assert verdict.margin == pytest.approx(dist_sq, rel=1e-9)


class TestAuditProperties:
    def test_distribution_forecasts_are_admissible(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            space = SampleSpace(tuple(f"w{i}" for i in range(n)))
            dist = Distribution.from_array(space, rng.dirichlet(np.ones(n)))
            k = int(rng.integers(1, 4))
            events = tuple(
                space.subset(*(x for x in space.outcomes if rng.random() < 0.5))
                for _ in range(k)
            )
            fs = ForecastSystem.from_distribution(dist, events)
            assert audit_admissibility(fs).admissible

    def test_dominators_verified_by_enumeration(self):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            space = SampleSpace(tuple(f"w{i}" for i in range(n)))
            k = int(rng.integers(1, 4))
            events = tuple(
                space.subset(*(x for x in space.outcomes if rng.random() < 0.5))
                for _ in range(k)
            )
            forecasts = tuple(float(x) for x in rng.uniform(-0.4, 1.4, size=k))
            fs = ForecastSystem(space, events, forecasts)
            verdict = audit_admissibility(fs)
            if verdict.admissible:
                continue
            found += 1
            dom = ForecastSystem(space, events, verdict.dominating)
            worlds = world_valuations(fs)
            improvements = [
                quadratic_loss(fs, w) - quadratic_loss(dom, w) for w in worlds
            ]
            assert min(improvements) > 0.0
            assert min(improvements) == pytest.approx(verdict.margin, rel=1e-9, abs=1e-15)
        assert found > 10  # the generator must actually exercise domination

    def test_agreement_with_brute_force(self):
        rng = np.random.default_rng(5)
        checked = dominated = 0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            space = SampleSpace(tuple(f"w{i}" for i in range(n)))
            k = int(rng.integers(1, 4))
            events = tuple(
                space.subset(*(x for x in space.outcomes if rng.random() < 0.5))
                for _ in range(k)
            )
            forecasts = tuple(float(x) for x in rng.uniform(-0.3, 1.3, size=k))
            fs = ForecastSystem(space, events, forecasts)
            verdict = audit_admissibility(fs)
            grid_hit = brute_force_dominator(fs)
            checked += 1
            if grid_hit is not None:
                # the grid found a strict dominator, so the audit must agree
                assert not verdict.admissible
                dominated += 1
        assert checked == 100
        assert dominated > 10

    def test_admissible_exactly_when_the_update_to_it_is_feasible(self):
        # the static half and the dynamic half judge one belief state: a book is
        # admissible exactly when some distribution announces it, which is when
        # the update from the uniform prior to its forecasts is feasible
        rng = np.random.default_rng(20261020)
        verdicts = []
        for i in range(300):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            space = SampleSpace(tuple(f"w{j}" for j in range(n)))
            events = tuple(space.subset(*(x for x in space.outcomes if rng.random() < 0.5))
                           for _ in range(k))
            if i % 2:
                fs = ForecastSystem(space, events, tuple(rng.uniform(-0.5, 1.5, size=k)))
            else:
                dist = Distribution.from_array(space, rng.dirichlet(np.ones(n)))
                fs = ForecastSystem.from_distribution(dist, events)
            admissible = audit_admissibility(fs).admissible
            verdicts.append(admissible)
            prior = Distribution.uniform(space)
            pins = [EventProb(e, x) for e, x in zip(events, fs.forecasts)]
            for fast in (True, False):
                try:  # NonConvergence fails the test
                    maxent_update(prior, pins, SolverOptions(use_fast_paths=fast))
                except InfeasibleConstraint:
                    assert not admissible, (i, fast)
                else:
                    assert admissible, (i, fast)
        assert 50 < sum(verdicts) < 250  # both verdicts are exercised

    def test_duplicate_event_does_not_change_verdict(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            space = SampleSpace(tuple(f"w{i}" for i in range(n)))
            events = (
                space.subset(*(x for x in space.outcomes if rng.random() < 0.5)),
            )
            x = float(rng.uniform(-0.3, 1.3))
            fs = ForecastSystem(space, events, (x,))
            fs2 = ForecastSystem(space, events + events, (x, x))
            assert audit_admissibility(fs).admissible == audit_admissibility(fs2).admissible

    def test_projection_is_machine_precise_for_interior_points(self):
        # a genuine probability vector sits inside the hull; the audit
        # must not misread it as incoherent
        space = SampleSpace(tuple(f"w{i}" for i in range(4)))
        dist = Distribution(space, (0.1, 0.2, 0.3, 0.4))
        events = (
            space.subset("w0", "w1"),
            space.subset("w1", "w2"),
            space.subset("w3"),
        )
        fs = ForecastSystem.from_distribution(dist, events)
        assert audit_admissibility(fs).admissible


def _book_from_matrix(V, x):
    """The book forecasting ``x`` for the events whose truth table is ``V`` (worlds x events)."""
    space = SampleSpace(tuple(f"w{i}" for i in range(len(V))))
    events = tuple(
        space.subset(*(w for w, true in zip(space.outcomes, column) if true)) for column in V.T
    )
    return ForecastSystem(space, events, x)


SHAPES = ("distinct", "duplicate_worlds", "duplicate_events")
WHERES = ("inside", "face", "just_outside", "anywhere")


def _point(rng, V, where):
    """A point inside the hull of the rows of ``V``, on a face, just outside, or anywhere."""
    weights = rng.dirichlet(np.ones(len(V)))
    if where == "face":
        weights *= rng.random(len(V)) < 0.5
        weights[int(rng.integers(len(V)))] += 0.1  # never all zero
        weights /= weights.sum()
    x = weights @ V
    if where == "just_outside":
        # every 0/1 row is an extreme point, so pushing one away from the
        # centroid leaves the hull
        v = V[int(rng.integers(len(V)))]
        x = v + (v - V.mean(axis=0)) * 10.0 ** rng.uniform(-10, -3)
    elif where == "anywhere":
        x = rng.uniform(-0.5, 1.5, V.shape[1])
    return x


def _nearest_hull_point(V, x):
    """The point of the hull of the rows of ``V`` nearest to ``x``, as the audit finds it."""
    W = V - x
    return _project_to_hull(W, np.einsum("ij,ij->i", W, W)) + x


class TestProjectionOptimality:
    """pi is the projection of x onto the hull exactly when (v - pi).(x - pi) <= 0 for
    every vertex v: a check that does not depend on how pi was found."""

    @staticmethod
    def check(fs):
        V, x = fs.valuation_matrix, fs.array
        pi = _nearest_hull_point(V, x)
        assert float(((V - pi) @ (x - pi)).max(initial=0.0)) <= 1e-12
        assert audit_admissibility(ForecastSystem(fs.space, fs.events, pi)).admissible

    @pytest.mark.parametrize("where", WHERES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_small_books(self, shape, where):
        rng = np.random.default_rng([SHAPES.index(shape), WHERES.index(where)])
        for _ in range(60):
            n, k = int(rng.integers(2, 10)), int(rng.integers(1, 7))
            V = (rng.random((n, k)) < 0.5).astype(float)
            if shape == "duplicate_worlds":
                V = np.vstack([V, V[rng.integers(n, size=int(rng.integers(1, n + 1)))]])
            elif shape == "duplicate_events":
                V = np.hstack([V, V[:, rng.integers(k, size=int(rng.integers(1, k + 1)))]])
            fs = _book_from_matrix(V, _point(rng, V, where))
            if shape == "duplicate_worlds":
                # some outcomes no event separates
                assert len(np.unique(fs.valuation_matrix, axis=0)) < len(fs.space)
            self.check(fs)

    @pytest.mark.parametrize("where", WHERES)
    def test_256_world_book(self, where):
        rng = np.random.default_rng([256, WHERES.index(where)])
        V = (rng.random((256, 16)) < 0.5).astype(float)
        for _ in range(3):
            self.check(_book_from_matrix(V, _point(rng, V, where)))


def _check_by_enumeration(fs):
    """The kernel's point meets the variational inequality, and the audit's dominator,
    if any, loses less than the book in every world."""
    TestProjectionOptimality.check(fs)
    verdict = audit_admissibility(fs)
    if not verdict.admissible:
        dom = ForecastSystem(fs.space, fs.events, verdict.dominating)
        for w in world_valuations(fs):
            assert quadratic_loss(dom, w) < quadratic_loss(fs, w)
    return verdict


def _table(*rows):
    return np.array([[float(ch) for ch in row] for row in rows])


class TestKernelEdgeCases:
    """Degenerate books, each with a known nearest point, checked by enumeration."""

    @pytest.mark.parametrize("V, x, nearest", [
        # four worlds, two of each valuation: the overconfident pair again
        (_table("10", "10", "01", "01"), (0.7, 0.7), (0.5, 0.5)),
        # a single world: its valuation is the whole hull
        (_table("101"), (0.2, 0.3, 0.9), (1.0, 0.0, 1.0)),
        # six events on three worlds: the hull is a triangle in R^6
        (_table("110010", "011001", "101100"), (0.5,) * 6, (2 / 3, 2 / 3, 2 / 3, 1 / 3, 1 / 3, 1 / 3)),
        # the same triangle, from a point inside it
        (_table("110010", "011001", "101100"), (0.6, 0.7, 0.7, 0.3, 0.3, 0.4), None),
        # a forecast on a vertex
        (_table("00", "10", "01", "11"), (1.0, 0.0), None),
        # the empty book: one point, the empty vector
        (np.zeros((3, 0)), (), None),
    ], ids=["duplicate_worlds", "single_world", "more_events_than_worlds", "inside_the_triangle",
            "on_a_vertex", "empty_book"])
    def test_degenerate_book(self, V, x, nearest):
        fs = _book_from_matrix(V, np.array(x, dtype=float))
        verdict = _check_by_enumeration(fs)
        assert verdict.admissible == (nearest is None)
        if nearest is not None:
            assert_allclose(verdict.dominating, nearest, atol=1e-12)
        assert_allclose(_nearest_hull_point(V, fs.array), nearest or fs.array, atol=1e-12)

    # two random books (default_rng seeds 129 and 218: 2-9 worlds, 1-6 events, forecasts
    # uniform on [-0.5, 1.5], rounded here) whose affine minimiser leaves the simplex,
    # so the kernel walks back and drops a vertex
    @pytest.mark.parametrize("V, x", [
        (_table("100", "000", "101", "101", "000", "011"), (0.888, 0.243, 0.649)),
        (_table("000111", "101011", "001101", "110101", "111010", "000100"),
         (0.158, 0.041, 0.208, 0.456, 0.329, 0.964)),
    ], ids=["seed_129", "seed_218"])
    def test_walk_back_drops_a_vertex(self, V, x, monkeypatch):
        sizes = []
        solve = np.linalg.solve

        def recorded(G, rhs):
            sizes.append(len(rhs))
            return solve(G, rhs)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        verdict = _check_by_enumeration(_book_from_matrix(V, np.array(x)))
        assert not verdict.admissible
        # without a drop each solve has one more active vertex than the last
        assert any(b <= a for a, b in zip(sizes, sizes[1:]))


@st.composite
def books(draw):
    """A space of 2-12 worlds, 1-6 random events on it and forecasts in [-0.5, 1.5]."""
    n = draw(st.integers(2, 12))
    space = SampleSpace(tuple(f"w{i}" for i in range(n)))
    k = draw(st.integers(1, 6))
    events = tuple(
        space.subset(*(x for x, keep in zip(space.outcomes, mask) if keep))
        for mask in draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                  min_size=k, max_size=k))
    )
    forecasts = draw(st.lists(
        st.floats(-0.5, 1.5, allow_nan=False, allow_infinity=False), min_size=k, max_size=k
    ))
    return ForecastSystem(space, events, forecasts)


class TestWorldLosses:
    @settings(max_examples=300, deadline=None)
    @given(books())
    def test_equals_the_per_world_reference_bit_for_bit(self, fs):
        worlds = world_valuations(fs)
        before = [quadratic_loss(fs, w) for w in worlds]
        assert world_losses(fs, fs.array).tolist() == before
        verdict = audit_admissibility(fs)
        assert list(verdict.losses) == before
        if verdict.admissible:
            assert verdict.dominating_losses == ()
            return
        dom = ForecastSystem(fs.space, fs.events, verdict.dominating)
        after = [quadratic_loss(dom, w) for w in worlds]
        assert world_losses(fs, verdict.dominating).tolist() == after
        assert list(verdict.dominating_losses) == after
        assert verdict.margin == min(b - a for b, a in zip(before, after))

    def test_empty_book_loses_nothing(self):
        fs = ForecastSystem(TWO, (), ())
        assert world_losses(fs, fs.array).tolist() == [0.0, 0.0]
        assert audit_admissibility(fs).losses == (0.0, 0.0)

    @pytest.mark.parametrize("forecasts", [(0.7, 0.7), (0.4, 0.6)])
    def test_audit_and_report_score_only_the_dominator(self, forecasts, monkeypatch):
        fs = ForecastSystem(TWO, (E, NOT_E), forecasts)
        calls = []
        real = relent.coherence.world_losses

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(relent.coherence, "world_losses", counted)
        # the report must not score the book again under any name of its own
        monkeypatch.setattr(relent.scenario, "world_losses", counted, raising=False)
        verdict = audit_admissibility(fs)
        emit_report(verdict, system=fs)
        # the book's own losses come from the audit's shifted valuations
        scored = [tuple(y.tolist()) for _, y in calls]
        assert scored == ([] if verdict.admissible else [verdict.dominating])

    # books() draws 1-6 events; BLAS ddot unrolls by blocks, so cover longer rows too
    @pytest.mark.parametrize("k", [0, 1, 7, 16, 17, 24, 33, 64, 129])
    @pytest.mark.parametrize("as_given", [np.array, lambda a: tuple(a.tolist()),
                                          lambda a: a.tolist()], ids=["array", "tuple", "list"])
    def test_bit_for_bit_at_long_rows(self, k, as_given):
        rng = np.random.default_rng(k)
        space = SampleSpace(tuple(f"w{i}" for i in range(32)))
        events = tuple(
            space.subset(*(x for x, keep in zip(space.outcomes, mask) if keep))
            for mask in rng.random((k, 32)) < 0.5
        )
        fs = ForecastSystem(space, events, rng.uniform(-0.5, 1.5, k))
        expected = [quadratic_loss(fs, w) for w in world_valuations(fs)]
        assert world_losses(fs, as_given(fs.array)).tolist() == expected
        assert list(audit_admissibility(fs).losses) == expected

    @pytest.mark.parametrize("forecasts", [[0.5], 0.5, [0.5, 0.5, 0.5]],
                             ids=["one_value", "scalar", "three_values"])
    def test_wrong_length_book_is_rejected(self, forecasts):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.5, 0.5))
        with pytest.raises(ConstructionError) as ei:
            world_losses(fs, forecasts)
        assert ei.value.code == "valuation.length_mismatch"

    def test_ragged_book_is_rejected(self):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.5, 0.5))
        with pytest.raises(ConstructionError) as ei:
            world_losses(fs, [[0.5], [1.0, 2.0]])
        assert ei.value.code == "valuation.length_mismatch"

    @pytest.mark.parametrize("forecasts", [["x", 0.5], [math.nan, 0.5], [0.5, math.inf]],
                             ids=["non_numeric", "nan", "inf"])
    def test_book_of_non_finite_numbers_is_rejected(self, forecasts):
        fs = ForecastSystem(TWO, (E, NOT_E), (0.5, 0.5))
        with pytest.raises(ConstructionError) as ei:
            world_losses(fs, forecasts)
        assert ei.value.code == "valuation.not_finite"


class TestNearTheHull:
    def test_books_just_outside_never_raise(self):
        # (0.5 + eps, 0.5 + eps) is eps * sqrt(2) from the hull of {(1, 0), (0, 1)};
        # just past ADMISSIBLE_DIST the margin (~eps^2) is below loss rounding
        events = (E, NOT_E)
        dominated = 0
        for eps in np.linspace(0.8e-9, 3e-8, 60):
            fs = ForecastSystem(TWO, events, (0.5 + eps, 0.5 + eps))
            verdict = audit_admissibility(fs)
            if verdict.admissible:
                continue
            dominated += 1
            dom = ForecastSystem(TWO, events, verdict.dominating)
            for w in world_valuations(fs):
                assert quadratic_loss(dom, w) < quadratic_loss(fs, w)
        assert dominated > 0  # the far end of the sweep is checkably dominated
