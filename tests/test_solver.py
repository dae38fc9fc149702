import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import relent.constraints
import relent.solver
from relent.constraints import (
    CondProb, EventProb, Expectation, PartitionWeights, compile_all, residual, triage_feasibility,
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
    HESS_BLOCK,
    HESS_EPS,
    SolverOptions,
    UpdateReport,
    _dual_newton,
    _weighted_gram,
    jeffrey_update,
    maxent_update,
)
from relent.spaces import (
    ZERO_MASS,
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
from sweep import SCALES, _jeffrey_request, _near_boundary_pair, _pinned_support_request
from sweep import _scaled_row

NO_FAST = SolverOptions(use_fast_paths=False)
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA.parent / "golden"

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
        # above maxent_update's tol the refusal is its certificate, word for word
        with pytest.raises(InfeasibleConstraint) as ei:
            jeffrey_update(prior, part, (0.3, 0.7))
        with pytest.raises(InfeasibleConstraint) as maxent:
            maxent_update(prior, [PartitionWeights(part, (0.3, 0.7))])
        assert str(ei.value) == str(maxent.value)
        # jeffrey_update judges at maxent_update's tol: a weight within it of the empty
        # cell's zero mass is already met, so the prior comes back as it is
        assert jeffrey_update(prior, part, (1e-12, 1.0 - 1e-12)) is prior
        # beyond tol it still raises, with maxent_update's certificate
        beyond = (2e-10, 1.0 - 2e-10)
        with pytest.raises(InfeasibleConstraint, match=r"^row 0: target 2e-10 lies outside") as ei:
            jeffrey_update(prior, part, beyond)
        with pytest.raises(InfeasibleConstraint) as maxent:
            maxent_update(prior, [PartitionWeights(part, beyond)])
        assert str(ei.value) == str(maxent.value)

    def test_tiny_weight_beside_a_pinned_cell_is_answered(self):
        # a weight of 1 pins the support to cell {a}, and 1e-17 on {b, c} lies within tol
        # of that face, so the request is feasible: it conditions on {a}, and the weight
        # left on {b, c} is its residual
        s = space_of(3)
        prior = Distribution(s, (0.2, 0.3, 0.5))
        part = Partition.from_labels(s, [("w0",), ("w1", "w2")])
        post = jeffrey_update(prior, part, (1.0, 1e-17))
        assert post.array.tolist() == [1.0, 0.0, 0.0]
        rep = maxent_update(prior, [PartitionWeights(part, (1.0, 1e-17))])
        assert (rep.method, rep.final_residual) == ("conditionalization", 1e-17)

    def test_invalid_weights_rejected_at_construction(self):
        part = Partition((TIGER_EVENT, TIGER_EVENT.complement()))
        with pytest.raises(ConstructionError):
            jeffrey_update(TIGER_PRIOR, part, (0.8, 0.8))

    @given(positive_distributions(min_size=2), st.data())
    def test_conditioning_is_jeffrey_on_the_event_and_its_complement(self, prior, data):
        # one kernel: the same bits from condition, from jeffrey_update with weights
        # (1, 0) and from maxent_update's pin, which conditions on the face
        labels = data.draw(st.lists(st.sampled_from(prior.space.outcomes), min_size=1,
                                    max_size=len(prior.space) - 1, unique=True))
        e = prior.space.subset(*labels)
        bits = condition(prior, e).array.tobytes()
        jeffrey = jeffrey_update(prior, Partition((e, e.complement())), (1.0, 0.0))
        assert jeffrey.array.tobytes() == bits
        pinned = maxent_update(prior, [EventProb(e, 1.0)])
        assert pinned.method == "conditionalization"
        assert pinned.posterior.array.tobytes() == bits

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


def test_jeffrey_update_is_maxent_update_on_its_partition():
    # one door: every request gets maxent_update's posterior bits, or its exception and text
    rng = np.random.default_rng(20261021)
    for _ in range(300):
        prior, part, weights = _jeffrey_request(rng)
        try:
            expected = maxent_update(prior, [PartitionWeights(part, weights)]).posterior
        except (ConstructionError, InfeasibleConstraint, NonConvergence) as err:
            with pytest.raises(type(err)) as ei:
                jeffrey_update(prior, part, weights)
            assert str(ei.value) == str(err)
        else:
            assert jeffrey_update(prior, part, weights).array.tobytes() == expected.array.tobytes()


def test_the_closed_form_is_the_pinned_support_update():
    # one closed form on the rows triage leaves: where the update conditions without the
    # fast paths, it conditions with them, byte for byte; every Jeffrey answer is the
    # dual's within 1e-9, meets its rows within tol and misses a total of 1 by dust at most.
    # The second class puts a whole pin, P(E) = 0 or 1, before or after the constraint, so
    # the rows left are that constraint's cells on the pin's face
    rng = np.random.default_rng(20261022)
    methods = {False: [], True: []}
    for pinned in (False, True):
        for _ in range(300):
            prior, constraints = _pinned_support_request(rng, pinned)
            try:
                slow = maxent_update(prior, constraints, NO_FAST)
            except InfeasibleConstraint as err:
                with pytest.raises(InfeasibleConstraint, match=re.escape(str(err))):
                    maxent_update(prior, constraints)
                methods[pinned].append("infeasible")
                continue
            fast = maxent_update(prior, constraints)
            methods[pinned].append(fast.method)
            if slow.method == "conditionalization":
                assert emit_report(fast) == emit_report(slow)
            if fast.method == "jeffrey":
                assert_allclose(fast.posterior.array, slow.posterior.array, rtol=0, atol=1e-9)
                assert fast.final_residual <= NO_FAST.tol
                assert abs(math.fsum(fast.posterior.array.tolist()) - 1.0) <= ZERO_MASS
    assert methods[False].count("conditionalization") >= 30
    assert methods[False].count("jeffrey") >= 100
    assert methods[True].count("conditionalization") >= 20
    assert methods[True].count("jeffrey") >= 50


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

    @pytest.mark.parametrize("target", [0.8, 0.3])
    def test_a_0_1_expectation_is_its_event(self, target):
        # the rows alone decide: a variable taking only 0 and 1 is the event where it is 1
        indicator = RandomVariable(TIGER_SPACE, tuple(TIGER_EVENT.indicator.tolist()))
        rep = maxent_update(TIGER_PRIOR, [Expectation(indicator, target)])
        pin = maxent_update(TIGER_PRIOR, [EventProb(TIGER_EVENT, target)])
        assert rep.method == pin.method == "jeffrey"
        assert rep.posterior.array.tobytes() == pin.posterior.array.tobytes()
        assert emit_report(rep) == emit_report(pin)
        assert maxent_update(
            TIGER_PRIOR, [Expectation(indicator, target)], NO_FAST).method == "dual_newton"

    @pytest.mark.parametrize("pin_first", [True, False], ids=["pin_first", "pin_second"])
    @pytest.mark.parametrize("pinned, value, lone, expected", [
        (("a", "b", "c"), 1.0, None, (0.2, 0.3, 0.5, 0.0)),
        (("d",), 0.0, None, (0.2, 0.3, 0.5, 0.0)),
        (("d",), 0.0, 0.4, (0.4, 0.3, 0.3, 0.0)),
    ], ids=["abc_certain", "d_impossible", "d_impossible_beside_a"])
    def test_a_pin_leaves_the_other_constraint_to_jeffrey(self, pinned, value, lone, expected,
                                                          pin_first):
        # the pin empties d, which the cell {c, d} and the rest {b, c} both hold; the rows
        # left are one constraint's cells on {a, b, c}, so Jeffrey's rule answers exactly
        space = SampleSpace(("a", "b", "c", "d"))
        pin = EventProb(space.subset(*pinned), value)
        if lone is None:
            cells = Partition.from_labels(space, [("a",), ("b",), ("c", "d")])
            other = PartitionWeights(cells, (0.2, 0.3, 0.5))
        else:
            other = EventProb(space.subset("a"), lone)
        constraints = [pin, other] if pin_first else [other, pin]
        rep = maxent_update(Distribution.uniform(space), constraints)
        assert (rep.method, rep.iterations, rep.multipliers) == ("jeffrey", 0, ())
        assert rep.posterior.array.tolist() == list(expected)
        assert rep.final_residual == 0.0

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



def _hard_tilt(seed, n=2000, n_expectations=10, n_events=30, length=2.0):
    """A positive prior, expectation and event rows, and the tilt p* their targets come from.

    The tilt's multipliers point in a random direction at ``length`` per
    row, as in the benchmark's hard_dual problems, so p* is the
    I-projection and Newton needs many steps, most of them halved.
    """
    rng = np.random.default_rng(seed)
    space = space_of(n)
    w = rng.uniform(0.2, 1.8, n)
    q = w / w.sum()
    rows = [np.round(rng.normal(size=n), 6) for _ in range(n_expectations)]
    rows += [(rng.random(n) < rng.uniform(0.2, 0.6)).astype(float) for _ in range(n_events)]
    F = np.array(rows)
    lam = rng.normal(size=len(F))
    lam *= length * math.sqrt(len(F)) / np.linalg.norm(lam)
    logits = np.log(q) + lam @ F
    p_star = np.exp(logits - logits.max())
    p_star /= p_star.sum()
    constraints = [Expectation(RandomVariable(space, tuple(f)), float(f @ p_star))
                   for f in F[:n_expectations]]
    constraints += [EventProb(space.subset(*(space.outcomes[i] for i in np.flatnonzero(f))),
                              float(f @ p_star)) for f in F[n_expectations:]]
    return Distribution.from_array(space, q), constraints, p_star


def _log_z(logits):
    shift = logits.max()
    return shift + math.log(np.exp(logits - shift).sum())


class TestNewtonSteps:
    def test_halved_trials_keep_posterior_and_multipliers_consistent(self):
        prior, constraints, p_star = _hard_tilt(26)
        system = compile_all(constraints, prior.space)
        A, b = system.A, system.b
        logq = np.log(prior.array)
        # the full first Newton step from lam = 0, where the dual is 0, lowers the dual,
        # so the line search halves it, as it does several later steps
        Aq = A @ prior.array
        hess = (A * prior.array) @ A.T - np.outer(Aq, Aq) + HESS_EPS * np.eye(len(b))
        step = np.linalg.solve(hess, b - Aq)
        assert step @ b - _log_z(logq + A.T @ step) < 0.0
        opts = SolverOptions()
        rep = maxent_update(prior, constraints, opts)
        assert rep.method == "dual_newton" and len(rep.multipliers) == len(b)
        # the prior is positive everywhere, so the live support is the whole space
        logits = logq + A.T @ np.array(rep.multipliers)
        tilted = np.exp(logits - _log_z(logits))
        assert np.abs(rep.posterior.array - tilted).sum() <= 1e-12
        assert rep.final_residual <= opts.tol
        assert np.abs(rep.posterior.array - p_star).sum() <= 1e-9

    def test_proportional_rows_leave_the_second_at_zero(self):
        # two proportional rows with entries near 1e3: the second is twice the first,
        # so it leaves the Newton system before the first step and its multiplier is 0
        kilo = RandomVariable(DIE_SPACE, DIE_VALUES.array * 1e3)
        twice = RandomVariable(DIE_SPACE, DIE_VALUES.array * 2e3)
        opts = SolverOptions()
        rep = maxent_update(Distribution.uniform(DIE_SPACE),
                            [Expectation(kilo, 4.5e3), Expectation(twice, 9e3)], opts)
        assert rep.method == "dual_newton" and rep.final_residual <= opts.tol
        assert rep.multipliers[1] == 0.0
        assert rep.multipliers[0] == pytest.approx(DIE_MULTIPLIER / 1e3, abs=1e-12)
        assert_allclose(rep.posterior.array, DIE_POSTERIOR, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_more_active_rows_than_live_outcomes(self, options):
        # four expectation rows on two outcomes, each target A p for
        # p = (0.28236341131690407, 0.717636588683096): on two outcomes every row
        # is an affine function of the first, so the Newton system keeps that one
        s = SampleSpace(("a", "b"))
        prior = Distribution(s, (0.039872397071877515, 0.9601276029281224))
        rows = [
            ((-2.0262359241846175, -0.10867355878509197), -0.6501230096922137),
            ((-236.17219318052528, 361.7456818071349), 192.915550938265),
            ((88.54445586470179, -162.09875174161638), -91.3262806184854),
            ((-0.177812978077855, -0.10238812329258584), -0.12368534258783656),
        ]
        rep = maxent_update(prior, [Expectation(RandomVariable(s, r), t) for r, t in rows], options)
        assert rep.final_residual <= options.tol
        assert rep.multipliers[1:] == (0.0, 0.0, 0.0)
        assert_allclose(rep.posterior.array, [0.28236341131690407, 0.717636588683096],
                        rtol=0, atol=1e-9)

    def test_midsize_solution_pins_what_the_document_determines(self):
        # the four partition cells cover the support, so one constant added to
        # their multipliers leaves the posterior unchanged; only their
        # differences are determined. The reference was written by an earlier
        # version of relent at full precision.
        sc = parse_file(str(GOLDEN / "midsize.json"))
        ref = json.loads((DATA / "midsize_solution.json").read_text(encoding="utf-8"))
        rep = maxent_update(sc.prior, sc.constraints)
        assert np.abs(rep.posterior.array - ref["posterior"]).max() <= 1e-12
        lam, ref_lam = np.array(rep.multipliers), np.array(ref["multipliers"])
        assert_allclose(lam[:3], ref_lam[:3], rtol=0.0, atol=1e-9)
        cells, ref_cells = lam[3:], ref_lam[3:]
        assert_allclose(np.subtract.outer(cells, cells), np.subtract.outer(ref_cells, ref_cells),
                        rtol=0.0, atol=1e-9)


ABC = SampleSpace(("a", "b", "c"))


def _complementary_pair(eps):
    """P(a) = 0.3 and P(b or c) = 0.7 + eps: the two rows sum to 1 on every outcome."""
    return [EventProb(ABC.subset("a"), 0.3), EventProb(ABC.subset("b", "c"), 0.7 + eps)]


def _dense(witness, m):
    """The stake y of ``witness`` on all ``m`` compiled rows: 0 on each row it does not name."""
    y = np.zeros(m)
    y[list(witness.rows)] = witness.stake
    return y


def _triaged(prior, constraints, tol):
    """The compiled system of ``constraints`` and the outcomes triage leaves live."""
    system = compile_all(constraints, prior.space)
    return system, triage_feasibility(system, prior, tol)[0]


def _assert_refutes(exc, system, live, tol):
    """Each witness ``exc`` carries, checked by enumerating the ``live`` outcomes: a nonzero
    stake y on compiled rows of ``system``, named in compilation order, whose ``payoff`` is
    y . b and whose [lo, hi] is y . A_i's range on them, each up to the rounding of its dots,
    and y . b lies beyond that range by more than |y|_1 tol, so no posterior meets the rows."""
    assert exc.witnesses and exc.reason == "; ".join(map(str, exc.witnesses))
    for w in exc.witnesses:
        assert list(w.rows) == sorted(set(w.rows)) and all(w.stake)
        y = _dense(w, len(system.b))
        values, payoff = y @ system.A[:, live], float(y @ system.b)
        scale = np.abs(y) @ (np.abs(system.A).max(axis=1) + np.abs(system.b))
        slack = 4 * len(y) * np.finfo(float).eps * scale
        assert abs(w.payoff - payoff) <= slack
        assert abs(w.lo - values.min()) <= slack and abs(w.hi - values.max()) <= slack
        assert max(payoff - values.max(), values.min() - payoff) > np.abs(y).sum() * tol


class TestDependentRows:
    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    @pytest.mark.parametrize("eps", [5e-11, 1.5e-10])
    def test_gap_within_the_spread_tolerance_is_met(self, options, eps):
        # the gap eps is within |y|_1 tol = 2e-10 of the stake y = e_0 + e_1, so each
        # target moves by eps / 2 and the posterior meets both within tol
        rep = maxent_update(Distribution.uniform(ABC), _complementary_pair(eps), options)
        assert rep.method == "dual_newton" and rep.final_residual <= options.tol
        assert rep.final_residual == pytest.approx(eps / 2, rel=1e-3)
        assert rep.multipliers[1] == 0.0
        assert_allclose(rep.posterior.array, [0.3, 0.35, 0.35], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    @pytest.mark.parametrize("eps", [2.5e-10, 1e-9])
    def test_gap_beyond_it_names_the_stake(self, options, eps):
        prior = Distribution.uniform(ABC)
        constraints = _complementary_pair(eps)
        with pytest.raises(InfeasibleConstraint) as info:
            maxent_update(prior, constraints, options)
        (w,) = info.value.witnesses
        system = compile_all(constraints, ABC)
        y = _dense(w, len(system.b))
        # y . A_i is the same on every outcome, and y . b misses it by more than
        # |y|_1 tol, so no posterior meets both rows within tol
        gains = y @ system.A - y @ system.b
        assert np.abs(gains - gains[0]).max() <= 1e-15
        assert np.abs(gains).min() > np.abs(y).sum() * options.tol

    def test_multipliers_do_not_depend_on_the_block_size(self, monkeypatch):
        # an expectation and a 4-cell partition on 40 000 outcomes; the cells sum to 1,
        # so the last leaves the Newton system and the others' multipliers are unique
        n = 40_000
        rng = np.random.default_rng(11)
        space = space_of(n)
        q = rng.uniform(0.2, 1.8, n)
        q /= q.sum()
        x = np.round(rng.normal(size=n), 6)
        cell = rng.integers(0, 4, n)
        logits = np.log(q) + 0.4 * x + np.array([0.3, -0.5, 0.2, 0.0])[cell]
        p_star = np.exp(logits - logits.max())
        p_star /= p_star.sum()
        cells = Partition(tuple(space.subset(*(space.outcomes[i] for i in np.flatnonzero(cell == c)))
                                for c in range(4)))
        constraints = [
            Expectation(RandomVariable(space, tuple(x)), float(x @ p_star)),
            PartitionWeights(cells, tuple(np.bincount(cell, weights=p_star).tolist())),
        ]
        prior = Distribution.from_array(space, q)
        reports = []
        for block in (1 << 14, 1 << 10):  # one block of the Hessian's product, then 40
            monkeypatch.setattr(relent.solver, "HESS_BLOCK", block)
            reports.append(maxent_update(prior, constraints))
        one, forty = reports
        assert one.multipliers[-1] == forty.multipliers[-1] == 0.0
        assert np.abs(np.subtract(one.multipliers, forty.multipliers)).max() <= 1e-12
        assert np.abs(forty.posterior.array - p_star).sum() <= 1e-9


class TestBlockedHessian:
    @staticmethod
    def _gram(n, m=12, seed=5):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        p = rng.dirichlet(np.ones(n))
        B = A * np.sqrt(p)
        return _weighted_gram(A, p, np.empty((m, min(n, HESS_BLOCK)))), B @ B.T

    def test_one_block_is_the_single_product(self):
        gram, single = self._gram(HESS_BLOCK)
        assert gram.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [HESS_BLOCK + 1, 3 * HESS_BLOCK + 7])
    def test_blocks_sum_to_the_single_product(self, n):
        gram, single = self._gram(n)
        assert np.abs(gram - single).max() <= 1e-13 * np.abs(single).max()

    def test_dual_holds_less_than_its_matrix(self):
        # 8 event and 8 expectation rows on 100 000 outcomes, targets read off a
        # tilt p* of q along them; A is 12.2 MiB, and a workspace the size of A,
        # or a copy such as |A|, would alone reach it
        rng = np.random.default_rng(3)
        n = 100_000
        q = rng.uniform(0.2, 1.8, n)
        q /= q.sum()
        A = np.vstack([rng.random((8, n)) < 0.4, rng.normal(size=(8, n))]).astype(float)
        logits = np.log(q) + rng.normal(scale=0.3, size=16) @ A
        p_star = np.exp(logits - logits.max())
        p_star /= p_star.sum()
        tracemalloc.start()
        try:
            p, _, _ = _dual_newton(q, A, A @ p_star, tuple(range(16)), SolverOptions())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes
        assert np.abs(p - p_star).sum() <= 1e-9

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_tilted_problem_over_three_blocks(self, options):
        # expectation, event and cond_prob rows on 40 000 outcomes; the tilt is
        # along x, E, g and t∧g, which span the compiled rows (the conditional's
        # row is t∧g - v g), so p* is the I-projection
        n = 40_000
        assert 2 * HESS_BLOCK < n <= 3 * HESS_BLOCK
        rng = np.random.default_rng(8)
        space = space_of(n)
        q = rng.uniform(0.2, 1.8, n)
        q /= q.sum()
        x = np.round(rng.normal(size=n), 6)
        event, given = rng.random(n) < 0.4, rng.random(n) < 0.5
        both = given & (rng.random(n) < 0.5)
        logits = np.log(q) + np.array([0.3, -0.8, 0.5, 0.9]) @ np.array([x, event, given, both])
        p_star = np.exp(logits - logits.max())
        p_star /= p_star.sum()

        def subset(mask):
            return space.subset(*(space.outcomes[i] for i in np.flatnonzero(mask)))

        constraints = [
            Expectation(RandomVariable(space, tuple(x)), float(x @ p_star)),
            EventProb(subset(event), float(p_star[event].sum())),
            EventProb(subset(given), float(p_star[given].sum())),
            CondProb(subset(both), subset(given), float(p_star[both].sum() / p_star[given].sum())),
        ]
        rep = maxent_update(Distribution.from_array(space, q), constraints, options)
        assert rep.method == "dual_newton" and rep.final_residual <= options.tol
        assert np.abs(rep.posterior.array - p_star).sum() <= 1e-9


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
            _assert_refutes(ei.value, *_triaged(prior, cs, options.tol), options.tol)

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
    def test_line_search_damps_steps_that_would_collapse_the_posterior(self, options):
        # an event pinned near 0.95 whose prior mass is about 0.01, plus an
        # expectation: the first step at t = 0.5 would raise the dual by far
        # less than its slope promises and leave p nearly a point mass;
        # sufficient increase damps the first two steps to t = 0.125 and
        # 0.0625 instead, and the solve takes 7 steps
        sc = parse_file(str(DATA / "line_search_infeasible.json"))
        with pytest.raises(InfeasibleConstraint) as ei:
            maxent_update(sc.prior, sc.constraints, options)
        _assert_refutes(ei.value, *_triaged(sc.prior, sc.constraints, options.tol), options.tol)
        sc = parse_file(str(DATA / "line_search_feasible.json"))
        rep = maxent_update(sc.prior, sc.constraints, options)
        assert (rep.method, rep.iterations) == ("dual_newton", 7)
        assert rep.final_residual <= 1e-10

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_line_search_accepts_steps_below_any_fixed_floor(self, options):
        # outcome a has prior mass 1e-20 and the mean of 1e4 * [a] must reach
        # 5e3, so P(a) goes to 0.5 at lam = 20 ln 10 / 1e4; the first Newton
        # step is about 2.5e15 long and the dual first rises at t near 2e-18
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (1e-20, 0.5, 0.5 - 1e-20))
        rep = maxent_update(prior, [Expectation(RandomVariable(s, (1e4, 0.0, 0.0)), 5e3)], options)
        assert rep.method == "dual_newton"
        assert rep.final_residual <= 1e-10
        assert_allclose(rep.posterior.array, [0.5, 0.25, 0.25], rtol=0, atol=1e-12)
        assert_allclose(rep.multipliers, [20 * math.log(10) / 1e4], rtol=1e-12)

    def test_budget_exhaustion_is_nonconvergence(self):
        opts = SolverOptions(max_iter=1, use_fast_paths=True)
        with pytest.raises(NonConvergence):
            maxent_update(
                Distribution.uniform(DIE_SPACE), [Expectation(DIE_VALUES, 4.5)], opts
            )

    @pytest.mark.parametrize("fails_at", [1, 2])
    def test_a_singular_newton_system_stalls_the_line_search(self, monkeypatch, fails_at):
        # one independent row, so no row leaves the dual and every solve is a Newton step;
        # a LinAlgError there gives a zero step, which no halving can turn into a rise
        calls, solve = [], np.linalg.solve

        def failing(a, b):
            calls.append(None)
            if len(calls) == fails_at:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing)
        stall = (rf"^update stopped after {fails_at - 1} Newton steps with residual \S+ above "
                 r"tol 1e-10: no step along the Newton direction raised the dual$")
        with pytest.raises(NonConvergence, match=stall):
            maxent_update(Distribution.uniform(DIE_SPACE), [Expectation(DIE_VALUES, 4.5)])
        assert len(calls) == fails_at

    def test_no_covariance_to_judge_by_keeps_every_row(self, monkeypatch):
        # when rounding leaves the rows' covariance indefinite, no row leaves the dual
        constraints = [Expectation(DIE_VALUES, 4.5), EventProb(DIE_SPACE.subset("face1"), 0.1)]
        expected = maxent_update(Distribution.uniform(DIE_SPACE), constraints)

        def indefinite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
        report = maxent_update(Distribution.uniform(DIE_SPACE), constraints)
        assert report.method == "dual_newton" and len(report.multipliers) == 2
        assert emit_report(report) == emit_report(expected)

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
        assert str(ei.value) == f"max_iter must be an int of at least 1, got {bad!r}"

    @pytest.mark.parametrize("bad", ["no", None, 0, 1])
    def test_use_fast_paths_must_be_a_bool(self, bad):
        # "no" is truthy, so taken as given it would turn Jeffrey's closed form on
        with pytest.raises(ConstructionError) as ei:
            SolverOptions(use_fast_paths=bad)
        assert ei.value.code == "options.bad_use_fast_paths"

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_use_fast_paths_accepts_a_bool(self, flag):
        assert SolverOptions(use_fast_paths=flag).use_fast_paths is bool(flag)


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

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    def test_the_dual_proof_prints_each_side_in_full(self, options):
        # P(a) = 0.5 + 1e-8 beside P(b) = 0.5: the two sides of the proof part in the 8th
        # digit, so the printed y . b must read above the printed range by |y|_1 tol
        s = SampleSpace(("a", "b", "c"))
        cs = [EventProb(s.subset("a"), 0.5 + 1e-8), EventProb(s.subset("b"), 0.5)]
        with pytest.raises(InfeasibleConstraint) as ei:
            maxent_update(Distribution.uniform(s), cs, options)
        (w,) = ei.value.witnesses
        assert w.rows == (0, 1) and ei.value.reason.startswith(
            f"active rows [0, 1]: y . b = {w.payoff!r} lies outside [{w.lo!r}, {w.hi!r}], its range")
        assert w.payoff - w.hi > np.abs(w.stake).sum() * options.tol
        assert w.lo == 0.0  # y . A_c, the stake's payoff on the outcome neither row holds
        _assert_refutes(ei.value, *_triaged(Distribution.uniform(s), cs, options.tol), options.tol)

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    @pytest.mark.parametrize("pins", [
        [("a", 0.5 + 1e-8), ("b", 0.5)],  # the dual's multipliers refute the pair
        [("a", 0.3), ("bc", 0.7 + 1e-9)],  # the rows sum to 1, so their dependency stake does
    ], ids=["dual", "dependency"])
    def test_a_stake_names_the_compiled_rows_after_a_pin(self, options, pins):
        # P(d) = 0 is compiled row 0 and pins d's face, so the stake lies on rows 1 and 2,
        # numbered as compiled, not as the 0th and 1st of the rows triage leaves
        s = SampleSpace(("a", "b", "c", "d"))
        cs = [EventProb(s.subset("d"), 0.0)] + [EventProb(s.subset(*e), v) for e, v in pins]
        with pytest.raises(InfeasibleConstraint) as ei:
            maxent_update(Distribution.uniform(s), cs, options)
        (w,) = ei.value.witnesses
        assert w.rows == (1, 2)
        assert ei.value.reason.startswith("active rows [1, 2]: y . b = ")
        assert ei.value.reason.endswith(
            f"(witness y = {w.stake[0]:+}*e_1 {w.stake[1]:+}*e_2 over the active rows)")
        _assert_refutes(ei.value, *_triaged(Distribution.uniform(s), cs, options.tol), options.tol)


class TestOneToleranceContract:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("off", [5e-11, 1.5e-10, 3e-10, 1e-9])
    def test_a_request_is_refused_exactly_when_no_posterior_meets_it(self, scale, off):
        # E[scale [a]] = scale / 2 + off beside E[scale [b]] = scale / 2 on a uniform prior
        # over {a, b, c}: P(a) + P(b) <= 1, so the least largest miss is off / 2
        cs = [_scaled_row(ABC, [0], scale, scale / 2 + off), _scaled_row(ABC, [1], scale, scale / 2)]
        options = SolverOptions()
        if off / 2 > options.tol:
            with pytest.raises(InfeasibleConstraint) as ei:
                maxent_update(Distribution.uniform(ABC), cs, options)
            _assert_refutes(ei.value, *_triaged(Distribution.uniform(ABC), cs, options.tol),
                            options.tol)
            return
        try:
            rep = maxent_update(Distribution.uniform(ABC), cs, options)
        except NonConvergence:
            assert scale < 1e-3  # rows of scale 1e-6 meet an absolute tol badly (ROADMAP item 1)
            return
        assert rep.final_residual <= options.tol

    def test_near_boundary_requests_are_refused_only_beyond_tol(self):
        rng = np.random.default_rng(20261042)
        tol = SolverOptions().tol
        infeasible = unproven = 0  # unproven ones end NonConvergence (ROADMAP item 4's hull)
        for _ in range(200):
            prior, delta, pair = _near_boundary_pair(rng)
            for scale in SCALES:
                infeasible += delta / 2 > tol
                cs = [_scaled_row(prior.space, e, scale, scale * c + d) for e, c, d in pair]
                try:
                    rep = maxent_update(prior, cs)
                except InfeasibleConstraint as err:
                    assert delta / 2 > tol, (delta, scale)
                    _assert_refutes(err, *_triaged(prior, cs, tol), tol)
                    continue
                except NonConvergence:
                    unproven += delta / 2 > tol
                    continue
                assert rep.final_residual <= tol
        print(f"NonConvergence on {unproven} of the {infeasible} infeasible requests in 800")


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

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0, 1e-17)])
    def test_a_weight_of_one_conditions_whatever_the_options(self, weights):
        # the weight 1 pins the support to {a}; the rows triage leaves on it are none, so
        # both settings condition, and the fast paths change not a byte of the report
        s = space_of(3)
        prior = Distribution(s, (0.2, 0.3, 0.5))
        reweight = [PartitionWeights(Partition.from_labels(s, [("w0",), ("w1", "w2")]), weights)]
        fast = maxent_update(prior, reweight)
        slow = maxent_update(prior, reweight, NO_FAST)
        assert (fast.method, slow.method) == ("conditionalization", "conditionalization")
        assert emit_report(fast) == emit_report(slow)

    def test_dust_left_by_rows_covering_the_support_is_jeffrey(self):
        # 5e-13 on the massless {w0} lies within tol, so triage pins that row; the rows left
        # cover the live support and leave 5e-13 <= ZERO_MASS, so Jeffrey's rule answers
        s = space_of(3)
        prior = Distribution(s, (0.0, 0.5, 0.5))
        cells = Partition.from_labels(s, [("w0",), ("w1",), ("w2",)])
        rep = maxent_update(prior, [PartitionWeights(cells, (5e-13, 0.3, 0.7 - 5e-13))])
        assert rep.method == "jeffrey"
        assert rep.posterior.array[0] == 0.0
        # the residual is the compiled target of the pinned row, 5e-13 over the exact sum
        assert rep.final_residual == pytest.approx(5e-13, rel=1e-15)
        assert_allclose(rep.posterior.array, [0.0, 0.3, 0.7], rtol=0, atol=1e-12)

    def test_weight_admitted_within_tol_on_a_massless_cell(self):
        # triage admits the weight 5e-11 on {c}, which has no prior mass, and pins its row;
        # the rows left cover the live support but leave 5e-11, more than ZERO_MASS, which
        # the closed form would drop, so both settings take the dual, which spreads it
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.5, 0.5, 0.0))
        cells = Partition.from_labels(s, [("a",), ("b",), ("c",)])
        reweight = [PartitionWeights(cells, (0.7, 0.3 - 5e-11, 5e-11))]
        fast = maxent_update(prior, reweight)
        slow = maxent_update(prior, reweight, NO_FAST)
        assert (fast.method, slow.method) == ("dual_newton", "dual_newton")
        assert fast.posterior == slow.posterior
        assert_allclose(fast.posterior.array, [0.7, 0.3, 0.0], rtol=0, atol=1e-10)
        assert fast.final_residual == pytest.approx(5e-11, rel=1e-6)

    @pytest.mark.parametrize("options", [SolverOptions(), NO_FAST], ids=["fast", "no_fast"])
    @pytest.mark.parametrize("offset", [0.0, 2e-10, 5e-10, 9e-10])
    def test_partition_weights_off_one_within_sum_tol(self, options, offset):
        # weights that pass SUM_TOL but miss 1 by more than tol compile to their
        # values over their exact sum, which Jeffrey's rule and the dual both meet
        s = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(s, (0.1, 0.2, 0.3, 0.4))
        cells = Partition.from_labels(s, [("a", "b"), ("c", "d")])
        reweight = PartitionWeights(cells, (0.3, 0.7 + offset))
        expected = prior.array * np.repeat([1.0, (0.7 + offset) / 0.7], 2) / (1.0 + offset)
        for constraints in ([reweight], [reweight, EventProb(s.subset("a"), 0.1)]):
            rep = maxent_update(prior, constraints, options)
            assert rep.final_residual <= options.tol
            assert abs(math.fsum(rep.posterior.array.tolist()) - 1.0) <= 1e-15
            assert_allclose(rep.posterior.array, expected, rtol=0, atol=options.tol)

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
        system = compile_all([EventProb(event, v)], prior.space)
        assert residual(rep.posterior, system) == rep.final_residual

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
