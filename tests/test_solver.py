import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import relent.constraints
from relent.constraints import (
    CondProb, EventProb, Expectation, PartitionWeights, compile_all, residual,
)
from relent.errors import (
    ConstructionError,
    DegenerateConditional,
    InfeasibleConstraint,
    NonConvergence,
    ZeroMassEvent,
)
from relent.information import relative_entropy
from relent.scenario import emit_report, parse_file
from relent.solver import (
    SolverOptions,
    UpdateReport,
    jeffrey_update,
    maxent_update,
)
from relent.spaces import (
    Distribution,
    Partition,
    RandomVariable,
    SampleSpace,
    condition,
    conditional_prob,
)

from conftest import (
    JOINTLY_INFEASIBLE_PINS, JOINTLY_INFEASIBLE_PRIOR, positive_distributions, space_of,
)

NO_FAST = SolverOptions(use_fast_paths=False)
DATA = Path(__file__).resolve().parent / "data"

# four-outcome space: tiger/no-tiger crossed with growl/no-growl
TIGER_SPACE = SampleSpace(("tiger_growl", "tiger_quiet", "clear_growl", "clear_quiet"))
TIGER_PRIOR = Distribution(TIGER_SPACE, (0.2, 0.3, 0.3, 0.2))
TIGER_EVENT = TIGER_SPACE.subset("tiger_growl", "tiger_quiet")

DIE_SPACE = SampleSpace(tuple(f"face{k}" for k in range(1, 7)))
DIE_VALUES = RandomVariable(DIE_SPACE, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))

# independently computed at 40-digit precision: exponential tilt of the
# uniform prior that moves the mean of a fair six-sided die to 4.5
DIE_MULTIPLIER = 0.37104893808103333817
DIE_POSTERIOR = (
    0.054353167826491518069,
    0.078771545633053519337,
    0.11415997722944056028,
    0.16544680311005333524,
    0.23977444042689998098,
    0.34749406577406108609,
)
DIE_OBJECTIVE = -0.17817837107422595967


class TestConditionalize:
    def test_matches_condition(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 1.0)])
        assert rep.method == "conditionalization"
        assert_allclose(rep.posterior.array, condition(TIGER_PRIOR, TIGER_EVENT).array)
        assert rep.posterior.prob(TIGER_EVENT) == pytest.approx(1.0)

    def test_zero_mass_rejected(self):
        d = Distribution(space_of(2), (1.0, 0.0))
        with pytest.raises(ZeroMassEvent):
            condition(d, d.space.subset("w1"))


class TestJeffreyUpdate:
    def test_tiger_values(self):
        # raising P(tiger) from 0.5 to 0.8 scales inside each cell
        part = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
        post = jeffrey_update(TIGER_PRIOR, part, (0.8, 0.2))
        assert_allclose(post.array, [0.32, 0.48, 0.12, 0.08], rtol=0, atol=1e-15)

    def test_within_cell_odds_preserved(self):
        part = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
        post = jeffrey_update(TIGER_PRIOR, part, (0.8, 0.2))
        growl_given_tiger_before = conditional_prob(
            TIGER_PRIOR, TIGER_SPACE.subset("tiger_growl"), TIGER_EVENT
        )
        growl_given_tiger_after = conditional_prob(
            post, TIGER_SPACE.subset("tiger_growl"), TIGER_EVENT
        )
        assert growl_given_tiger_after == pytest.approx(growl_given_tiger_before, abs=1e-12)

    def test_zero_weight_cell_is_emptied(self):
        s = space_of(3)
        prior = Distribution(s, (0.5, 0.25, 0.25))
        part = Partition.from_labels(s, [("w0",), ("w1", "w2")])
        post = jeffrey_update(prior, part, (0.0, 1.0))
        assert_allclose(post.array, [0.0, 0.5, 0.5])

    def test_positive_weight_on_empty_cell_rejected(self):
        s = space_of(3)
        prior = Distribution(s, (0.0, 0.5, 0.5))
        part = Partition.from_labels(s, [("w0",), ("w1", "w2")])
        with pytest.raises(InfeasibleConstraint):
            jeffrey_update(prior, part, (0.3, 0.7))

    def test_invalid_weights_rejected_at_construction(self):
        part = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
        with pytest.raises(ConstructionError):
            jeffrey_update(TIGER_PRIOR, part, (0.8, 0.8))

    @given(positive_distributions(min_size=3, max_size=6), st.data())
    @settings(max_examples=40)
    def test_hits_requested_weights(self, prior, data):
        n = len(prior.space)
        cut = data.draw(st.integers(min_value=1, max_value=n - 1))
        part = Partition.from_labels(
            prior.space, [prior.space.outcomes[:cut], prior.space.outcomes[cut:]]
        )
        w = data.draw(st.floats(min_value=0.05, max_value=0.95))
        post = jeffrey_update(prior, part, (w, 1.0 - w))
        assert post.prob(part.cells[0]) == pytest.approx(w, abs=1e-12)


class TestMaxentNoOp:
    def test_satisfied_constraints_return_prior(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 0.5)])
        assert rep.method == "no_op"
        assert rep.posterior is TIGER_PRIOR
        assert rep.iterations == 0
        assert rep.objective == 0.0
        assert rep.multipliers == (0.0,)

    def test_empty_constraints(self):
        rep = maxent_update(TIGER_PRIOR, [])
        assert rep.method == "no_op"
        assert rep.multipliers == ()
        assert rep.final_residual == 0.0


class TestMaxentFastPaths:
    def test_event_pin_routes_to_jeffrey(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 0.8)])
        assert rep.method == "jeffrey"
        assert rep.multipliers == ()
        assert_allclose(rep.posterior.array, [0.32, 0.48, 0.12, 0.08], rtol=0, atol=1e-15)
        assert rep.final_residual <= 1e-12
        assert rep.objective == pytest.approx(
            relative_entropy(rep.posterior, TIGER_PRIOR), abs=1e-15
        )

    def test_certainty_routes_to_conditioning(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 1.0)])
        assert rep.method == "conditionalization"
        assert_allclose(rep.posterior.array, [0.4, 0.6, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_impossibility_routes_to_conditioning_on_complement(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 0.0)])
        assert rep.method == "conditionalization"
        assert_allclose(rep.posterior.array, [0.0, 0.0, 0.6, 0.4], rtol=0, atol=1e-15)

    def test_partition_routes_to_jeffrey(self):
        part = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
        rep = maxent_update(TIGER_PRIOR, [PartitionWeights(part, (0.8, 0.2))])
        assert rep.method == "jeffrey"
        assert_allclose(rep.posterior.array, [0.32, 0.48, 0.12, 0.08], rtol=0, atol=1e-15)

    def test_fast_paths_can_be_disabled(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 0.8)], NO_FAST)
        assert rep.method == "dual_newton"
        assert_allclose(rep.posterior.array, [0.32, 0.48, 0.12, 0.08], rtol=0, atol=1e-9)
        assert len(rep.multipliers) == 1

    def test_full_certainty_through_dual_route(self):
        rep = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, 1.0)], NO_FAST)
        assert rep.method == "conditionalization"
        assert_allclose(rep.posterior.array, [0.4, 0.6, 0.0, 0.0], rtol=0, atol=1e-12)
        # certainty is enforced by support reduction, not a multiplier
        assert rep.multipliers == ()
        assert rep.iterations == 0


class TestMaxentDie:
    def test_loaded_die_frozen_values(self):
        rep = maxent_update(
            Distribution.uniform(DIE_SPACE), [Expectation(DIE_VALUES, 4.5)]
        )
        assert rep.method == "dual_newton"
        assert_allclose(rep.posterior.array, DIE_POSTERIOR, rtol=0, atol=1e-9)
        assert rep.multipliers[0] == pytest.approx(DIE_MULTIPLIER, abs=1e-9)
        assert rep.objective == pytest.approx(DIE_OBJECTIVE, abs=1e-9)
        assert rep.final_residual <= 1e-10
        assert rep.iterations <= 50

    def test_posterior_is_geometric_in_face_value(self):
        rep = maxent_update(
            Distribution.uniform(DIE_SPACE), [Expectation(DIE_VALUES, 4.5)]
        )
        w = rep.posterior.weights
        ratios = [w[i + 1] / w[i] for i in range(5)]
        assert_allclose(ratios, [math.exp(DIE_MULTIPLIER)] * 5, rtol=1e-7)


class TestBoundaryTargets:
    """A target at a row's extreme fixes the face where the row attains it."""

    @pytest.mark.parametrize("scale", [6e-6, 1e-6, 1.0, 1e6, 1e9])
    @pytest.mark.parametrize("face", [0, 5])
    def test_die_mean_at_an_extreme_is_an_exact_point_mass(self, scale, face):
        pips = RandomVariable(DIE_SPACE, tuple(scale * k for k in range(1, 7)))
        target = scale * (face + 1)
        rep = maxent_update(Distribution.uniform(DIE_SPACE), [Expectation(pips, target)])
        assert rep.method == "conditionalization"
        assert rep.multipliers == () and rep.iterations == 0
        expected = np.zeros(6)
        expected[face] = 1.0
        assert np.array_equal(rep.posterior.array, expected)

    def test_boundary_target_exact_at_a_tight_tol(self):
        opts = SolverOptions(tol=1e-15)
        rep = maxent_update(Distribution.uniform(DIE_SPACE), [Expectation(DIE_VALUES, 6.0)], opts)
        assert rep.method == "conditionalization"
        assert np.array_equal(rep.posterior.array, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert rep.final_residual == 0.0

    def test_weight_one_cell_needs_no_multiplier(self):
        # once the zero-weight cell is dropped the other cell is the whole support
        part = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
        rep = maxent_update(TIGER_PRIOR, [PartitionWeights(part, (1.0, 0.0))], NO_FAST)
        assert rep.method == "conditionalization"
        assert rep.multipliers == ()
        assert_allclose(rep.posterior.array, [0.4, 0.6, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_boundary_row_beside_an_active_row(self):
        # E[f] = 1 keeps only a and b, exactly; P(a) = 0.3 is then solved on them
        s = SampleSpace(("a", "b", "c", "d"))
        f = RandomVariable(s, (1.0, 1.0, 2.0, 3.0))
        cs = [Expectation(f, 1.0), EventProb(s.subset("a"), 0.3)]
        rep = maxent_update(Distribution.uniform(s), cs, NO_FAST)
        assert rep.method == "dual_newton"
        assert len(rep.multipliers) == 1
        assert rep.posterior.weights[2:] == (0.0, 0.0)
        assert_allclose(rep.posterior.array[:2], [0.3, 0.7], rtol=0, atol=1e-10)


class TestMaxentCondProb:
    def test_conditional_pin(self):
        s = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(s, (0.1, 0.3, 0.2, 0.4))
        c = CondProb(s.subset("a"), s.subset("a", "b"), 0.8)
        rep = maxent_update(prior, [c])
        post = rep.posterior
        assert rep.method == "dual_newton"
        assert conditional_prob(post, s.subset("a"), s.subset("a", "b")) == pytest.approx(
            0.8, abs=1e-9
        )
        # the tilt solves exp(lam) = 12, so the a:b odds become 4:1
        assert post.weights[0] / post.weights[1] == pytest.approx(4.0, rel=1e-8)
        assert rep.multipliers[0] == pytest.approx(math.log(12.0), abs=1e-7)
        # outcomes outside the conditioning event keep their relative odds
        assert post.weights[2] / post.weights[3] == pytest.approx(0.5, rel=1e-9)

    def test_vacuous_conditional_rejected(self):
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.3, 0.3, 0.4))
        cs = [
            CondProb(s.subset("a"), s.subset("a", "b"), 0.5),
            EventProb(s.subset("a", "b"), 0.0),
        ]
        with pytest.raises(DegenerateConditional):
            maxent_update(prior, cs)

    def test_prior_with_degenerate_conditional_rejected_even_as_no_op(self):
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.0, 0.0, 1.0))
        with pytest.raises(DegenerateConditional):
            maxent_update(prior, [CondProb(s.subset("a"), s.subset("a", "b"), 0.3)])


class TestMaxentCombined:
    def test_certainty_plus_expectation(self):
        s = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(s, (0.25, 0.25, 0.25, 0.25))
        f = RandomVariable(s, (1.0, 2.0, 3.0, 4.0))
        keep = s.subset("a", "b", "c")
        rep = maxent_update(prior, [EventProb(keep, 1.0), Expectation(f, 2.5)])
        assert rep.posterior.weights[3] == 0.0
        assert rep.posterior.prob(keep) == pytest.approx(1.0, abs=1e-12)
        assert float(rep.posterior.array @ f.array) == pytest.approx(2.5, abs=1e-9)
        assert len(rep.multipliers) == 1  # only the expectation is active

    def test_two_event_pins_solved_jointly(self):
        s = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(s, (0.1, 0.2, 0.3, 0.4))
        cs = [EventProb(s.subset("a", "b"), 0.5), EventProb(s.subset("b", "c"), 0.6)]
        rep = maxent_update(prior, cs)
        assert rep.method == "dual_newton"
        assert rep.posterior.prob(s.subset("a", "b")) == pytest.approx(0.5, abs=1e-9)
        assert rep.posterior.prob(s.subset("b", "c")) == pytest.approx(0.6, abs=1e-9)
        assert rep.final_residual <= 1e-10

    def test_redundant_partition_rows_do_not_break_newton(self):
        s = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(s, (0.1, 0.2, 0.3, 0.4))
        part = Partition.from_labels(s, [("a", "b"), ("c", "d")])
        f = RandomVariable(s, (0.0, 1.0, 1.0, 2.0))
        rep = maxent_update(
            prior, [PartitionWeights(part, (0.5, 0.5)), Expectation(f, 1.0)], NO_FAST
        )
        assert rep.posterior.prob(part.cells[0]) == pytest.approx(0.5, abs=1e-9)
        assert float(rep.posterior.array @ f.array) == pytest.approx(1.0, abs=1e-9)


class TestMaxentFailureModes:
    def test_triage_infeasibility_raised_before_solving(self):
        s = space_of(3)
        prior = Distribution(s, (0.5, 0.5, 0.0))
        with pytest.raises(InfeasibleConstraint):
            maxent_update(prior, [EventProb(s.subset("w2"), 0.3)])

    def test_contradictory_pins_detected_by_divergence(self):
        s = space_of(3)
        prior = Distribution.uniform(s)
        cs = [EventProb(s.subset("w0"), 0.2), EventProb(s.subset("w0"), 0.7)]
        with pytest.raises(InfeasibleConstraint):
            maxent_update(prior, cs)

    def test_certainty_wipeout_detected(self):
        s = space_of(3)
        prior = Distribution.uniform(s)
        cs = [EventProb(s.subset("w0"), 1.0), EventProb(s.subset("w0"), 0.0)]
        with pytest.raises(InfeasibleConstraint):
            maxent_update(prior, cs)

    def test_unreachable_certainty_target(self):
        s = space_of(2)
        prior = Distribution(s, (1.0, 0.0))
        with pytest.raises(InfeasibleConstraint):
            maxent_update(prior, [EventProb(s.subset("w0"), 0.4)])

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_zero_target_on_certain_event(self, options):
        s = space_of(3)
        prior = Distribution(s, (0.6, 0.4, 0.0))
        with pytest.raises(InfeasibleConstraint):
            maxent_update(prior, [EventProb(s.subset("w0", "w1"), 0.0)], options)

    def test_unreachable_certainty_target_dual_route(self):
        s = space_of(2)
        prior = Distribution(s, (1.0, 0.0))
        with pytest.raises(InfeasibleConstraint):
            maxent_update(prior, [EventProb(s.subset("w0"), 0.4)], NO_FAST)

    def test_jointly_infeasible_pins_certified_by_the_dual(self):
        s = space_of(7)
        prior = Distribution(s, JOINTLY_INFEASIBLE_PRIOR)
        cs = [EventProb(s.subset(*labels), v) for labels, v in JOINTLY_INFEASIBLE_PINS]
        for options in (SolverOptions(), NO_FAST):
            with pytest.raises(InfeasibleConstraint) as ei:
                maxent_update(prior, cs, options)
            assert "dual multipliers" in ei.value.reason

    def test_feasible_boundary_target_at_small_scale_not_called_infeasible(self):
        # a point mass on face1 attains the mean, and is the only posterior that does
        pips = RandomVariable(DIE_SPACE, tuple(6e-6 * k for k in range(1, 7)))
        rep = maxent_update(Distribution.uniform(DIE_SPACE), [Expectation(pips, 6e-6)])
        assert rep.method == "conditionalization"
        assert np.array_equal(rep.posterior.array, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    @pytest.mark.parametrize("certain", ["whole_space", "whole_support"])
    def test_event_certain_under_every_posterior_certified_by_its_range(self, options, certain):
        # the row is 1 on every outcome a posterior may weight, so no target
        # below 1 is reachable; the witness is the stake y = -e_0
        if certain == "whole_space":
            s = space_of(5)
            prior, event = Distribution.uniform(s), s.subset(*s.outcomes)
        else:
            s = space_of(3)
            prior, event = Distribution(s, (0.6, 0.4, 0.0)), s.subset("w0", "w1")
        with pytest.raises(InfeasibleConstraint) as ei:
            maxent_update(prior, [EventProb(event, 0.5)], options)
        assert ei.value.reason == (
            "row 0: target 0.5 lies outside [1.0, 1.0], its range on the outcomes "
            "still possible (witness y = -e_0)"
        )

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_conditional_met_only_by_emptying_its_given_event(self, options):
        # c has no prior mass, so P(a | a or c) = 0.3 forces P(a) = 0; the
        # row's zero target sits at its least value on the support
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.5, 0.5, 0.0))
        with pytest.raises(DegenerateConditional):
            maxent_update(prior, [CondProb(s.subset("a"), s.subset("a", "c"), 0.3)], options)

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_line_search_accepts_steps_below_any_fixed_floor(self, options):
        # an event pinned near 0.95 whose prior mass is about 0.01, plus an
        # expectation: the second iterate is nearly a point mass, the Newton
        # step is about 5e13 long, and the first ascent lies at t below 1e-14
        sc = parse_file(str(DATA / "line_search_infeasible.json"))
        with pytest.raises(InfeasibleConstraint) as ei:
            maxent_update(sc.prior, sc.constraints, options)
        assert ei.value.reason.startswith("dual multipliers lam prove")
        sc = parse_file(str(DATA / "line_search_feasible.json"))
        rep = maxent_update(sc.prior, sc.constraints, options)
        assert (rep.method, rep.iterations) == ("dual_newton", 11)
        assert rep.final_residual <= 1e-10

    def test_budget_exhaustion_is_nonconvergence(self):
        opts = SolverOptions(max_iter=1, use_fast_paths=True)
        with pytest.raises(NonConvergence):
            maxent_update(
                Distribution.uniform(DIE_SPACE), [Expectation(DIE_VALUES, 4.5)], opts
            )

    def test_options_validation(self):
        with pytest.raises(ConstructionError):
            SolverOptions(tol=0.0)
        with pytest.raises(ConstructionError):
            SolverOptions(max_iter=0)

    @pytest.mark.parametrize("bad", [2.5, True, "5", None])
    def test_max_iter_must_be_an_int(self, bad):
        with pytest.raises(ConstructionError) as ei:
            SolverOptions(max_iter=bad)
        assert ei.value.code == "options.bad_max_iter"


def _random_event(rng, space):
    k = int(rng.integers(1, len(space) + 1))
    return space.subset(*rng.choice(space.outcomes, size=k, replace=False))


def _feasible_by_construction(rng):
    """A prior (sometimes with zeros) and 1-3 mixed constraints met by a Dirichlet p on its support."""
    n = int(rng.integers(3, 9))
    space = space_of(n)
    prior = rng.dirichlet(np.ones(n))
    if rng.random() < 0.3:
        prior[rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False)] = 0.0
    prior /= prior.sum()
    p = np.zeros(n)
    p[prior > 0.0] = rng.dirichlet(np.ones(int((prior > 0.0).sum())))
    cs = []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(3)
        if kind == 0:
            e = _random_event(rng, space)
            cs.append(EventProb(e, float(np.clip(e.indicator @ p, 0.0, 1.0))))
        elif kind == 1:
            x = RandomVariable(space, tuple(rng.normal(size=n)))
            cs.append(Expectation(x, float(x.array @ p)))
        else:
            a, g = _random_event(rng, space), _random_event(rng, space)
            pg = float(g.indicator @ p)
            if pg > 0.0:
                v = float(a.indicator * g.indicator @ p) / pg
                cs.append(CondProb(a, g, float(np.clip(v, 0.0, 1.0))))
    return space, Distribution(space, tuple(prior)), cs


def _infeasible_by_construction(rng):
    """Feasible rows plus two event pins that no distribution meets, by at least 1e-3.

    Either two disjoint events whose targets sum past 1, or a sub-event
    pinned above its superset.
    """
    space, prior, cs = _feasible_by_construction(rng)
    n = len(space)
    gap = float(rng.uniform(1e-3, 0.5))
    order = list(rng.permutation(space.outcomes))
    cut = int(rng.integers(1, n))
    end = int(rng.integers(cut + 1, n + 1))
    if rng.random() < 0.5:
        first = float(rng.uniform(gap, 1.0))
        cs += [EventProb(space.subset(*order[:cut]), first),
               EventProb(space.subset(*order[cut:end]), 1.0 + gap - first)]
    else:
        outer = float(rng.uniform(0.0, 1.0 - gap))
        cs += [EventProb(space.subset(*order[:end]), outer),
               EventProb(space.subset(*order[:cut]), outer + gap)]
    rng.shuffle(cs)
    return prior, cs


class TestInfeasibilityCertificate:
    """Seeded sets whose feasibility is known by construction, solved on the dual route."""

    def test_feasible_sets_never_called_infeasible(self):
        called_infeasible = []
        for seed in range(300):
            _, prior, cs = _feasible_by_construction(np.random.default_rng([seed, 1]))
            try:
                maxent_update(prior, cs, NO_FAST)
            except InfeasibleConstraint:
                called_infeasible.append(seed)
            except (NonConvergence, DegenerateConditional):
                pass
        assert called_infeasible == []

    def test_infeasible_sets_always_certified(self):
        missed = []
        for seed in range(300):
            prior, cs = _infeasible_by_construction(np.random.default_rng([seed, 0]))
            try:
                maxent_update(prior, cs, NO_FAST)
            except InfeasibleConstraint:
                continue
            except NonConvergence:
                pass
            missed.append(seed)
        assert missed == []


class TestFastPathAgreement:
    @given(positive_distributions(min_size=2, max_size=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_event_pin_fast_and_dual_agree(self, prior, data):
        n = len(prior.space)
        cut = data.draw(st.integers(min_value=1, max_value=n - 1))
        event = prior.space.subset(*prior.space.outcomes[:cut])
        v = data.draw(st.floats(min_value=0.05, max_value=0.95))
        fast = maxent_update(prior, [EventProb(event, v)])
        slow = maxent_update(prior, [EventProb(event, v)], NO_FAST)
        assert fast.method in ("jeffrey", "no_op")
        assert slow.method in ("dual_newton", "no_op")
        assert_allclose(slow.posterior.array, fast.posterior.array, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("mass", [1e-13, 1e-300, 1e-320])
    def test_tiny_positive_cell_mass_agrees(self, mass):
        # positive prior mass, however small (1e-320 is subnormal, so the
        # weight ratio w / m overflows), is reweighted and never infeasible
        s = SampleSpace(("a", "b"))
        prior = Distribution(s, (1.0 - mass, mass))
        pin = [EventProb(s.subset("b"), 0.5)]
        fast = maxent_update(prior, pin)
        slow = maxent_update(prior, pin, NO_FAST)
        assert (fast.method, slow.method) == ("jeffrey", "dual_newton")
        assert_allclose(fast.posterior.array, [0.5, 0.5], rtol=0, atol=1e-9)
        assert_allclose(slow.posterior.array, fast.posterior.array, rtol=0, atol=1e-9)

    @given(positive_distributions(min_size=2, max_size=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_posterior_satisfies_constraint_and_objective_sign(self, prior, data):
        n = len(prior.space)
        cut = data.draw(st.integers(min_value=1, max_value=n - 1))
        event = prior.space.subset(*prior.space.outcomes[:cut])
        v = data.draw(st.floats(min_value=0.05, max_value=0.95))
        rep = maxent_update(prior, [EventProb(event, v)])
        assert rep.posterior.prob(event) == pytest.approx(v, abs=1e-9)
        assert rep.objective <= 1e-12
        rows = compile_all([EventProb(event, v)], prior.space)
        assert residual(rep.posterior, rows) == rep.final_residual

    @given(positive_distributions(min_size=2, max_size=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_update_is_idempotent(self, prior, data):
        n = len(prior.space)
        cut = data.draw(st.integers(min_value=1, max_value=n - 1))
        event = prior.space.subset(*prior.space.outcomes[:cut])
        v = data.draw(st.floats(min_value=0.05, max_value=0.95))
        first = maxent_update(prior, [EventProb(event, v)])
        second = maxent_update(first.posterior, [EventProb(event, v)])
        assert second.method == "no_op"


def _event_pins(rng):
    """A prior (sometimes with zeros) and 1-3 event pins at 0 or 1."""
    n = int(rng.integers(2, 9))
    space = space_of(n)
    prior = rng.dirichlet(np.ones(n))
    if rng.random() < 0.3:
        prior[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
    prior /= prior.sum()
    pins = [EventProb(_random_event(rng, space), float(rng.integers(2)))
            for _ in range(int(rng.integers(1, 4)))]
    return Distribution(space, tuple(prior)), pins


class TestPinsAreConditioning:
    """0/1 event pins condition the prior on the outcomes they keep, whatever the options."""

    def test_pin_sets_condition_on_the_kept_event(self):
        methods = []
        for seed in range(400):
            prior, pins = _event_pins(np.random.default_rng([seed, 2]))
            space = prior.space
            kept = np.ones(len(space), dtype=bool)
            for c in pins:
                kept &= (c.event.indicator != 0.0) == (c.value == 1.0)
            kept_event = space.subset(*(x for x, k in zip(space.outcomes, kept) if k))
            if prior.prob(kept_event) <= 1e-12:
                for options in (SolverOptions(), NO_FAST):
                    with pytest.raises(InfeasibleConstraint):
                        maxent_update(prior, pins, options)
                methods.append("infeasible")
                continue
            fast = maxent_update(prior, pins)
            slow = maxent_update(prior, pins, NO_FAST)
            methods.append(fast.method)
            assert emit_report(fast) == emit_report(slow), seed
            if residual(prior, compile_all(pins, space)) <= 1e-10:
                assert fast.method == "no_op", seed
                continue
            assert fast.method == "conditionalization", seed
            assert fast.multipliers == () and fast.iterations == 0
            expected = condition(prior, kept_event).array
            assert np.array_equal(fast.posterior.array, expected), seed
        assert methods.count("conditionalization") >= 150
        assert methods.count("infeasible") >= 40


TIGER_PARTITION = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
TIGER_SCORES = RandomVariable(TIGER_SPACE, (1.0, 2.0, 3.0, 4.0))
COMPILE_ONCE_CASES = {
    # the prior already meets both
    "no_op": [EventProb(TIGER_EVENT, 0.5), Expectation(TIGER_SCORES, 2.5)],
    "jeffrey": [PartitionWeights(TIGER_PARTITION, (0.8, 0.2))],
    "conditionalization": [EventProb(TIGER_EVENT, 1.0)],
    # all four kinds, read off (0.1, 0.4, 0.2, 0.3) over TIGER_SPACE's outcomes
    "dual_newton": [
        EventProb(TIGER_SPACE.subset("tiger_growl", "clear_growl"), 0.3),
        Expectation(TIGER_SCORES, 2.7),
        CondProb(TIGER_SPACE.subset("tiger_growl"), TIGER_EVENT, 0.2),
        PartitionWeights(TIGER_PARTITION, (0.5, 0.5)),
    ],
}


class TestCompileOnce:
    @pytest.mark.parametrize("method", sorted(COMPILE_ONCE_CASES))
    def test_each_constraint_compiled_exactly_once(self, monkeypatch, method):
        compile_constraint = relent.constraints.compile_constraint
        calls = []

        def counting(c, space):
            calls.append(c)
            return compile_constraint(c, space)

        monkeypatch.setattr(relent.constraints, "compile_constraint", counting)
        constraints = COMPILE_ONCE_CASES[method]
        assert maxent_update(TIGER_PRIOR, constraints).method == method
        assert calls == constraints
