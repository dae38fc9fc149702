import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relent.constraints import (
    CondProb,
    EventProb,
    Expectation,
    PartitionWeights,
    System,
    Witness,
    compile_all,
    compile_constraint,
    residual,
    triage_feasibility,
)
from relent.errors import (
    ConstructionError,
    DegenerateConditional,
    InfeasibleConstraint,
)
from relent.solver import maxent_update
from relent.spaces import Distribution, Partition, RandomVariable, SampleSpace

from conftest import positive_distributions, space_of


@pytest.fixture
def abc():
    return SampleSpace(("a", "b", "c"))


class TestConstruction:
    def test_event_prob_accepts_out_of_range_value(self, abc):
        # range problems are a feasibility question, not a construction one
        c = EventProb(abc.subset("a"), 1.2)
        assert c.value == 1.2

    def test_event_prob_rejects_nan(self, abc):
        with pytest.raises(ConstructionError) as ei:
            EventProb(abc.subset("a"), float("nan"))
        assert ei.value.code == "constraint.not_finite"

    def test_cond_prob_space_mismatch(self, abc):
        other = space_of(2)
        with pytest.raises(ConstructionError) as ei:
            CondProb(abc.subset("a"), other.subset("w0"), 0.5)
        assert ei.value.code == "constraint.space_mismatch"

    def test_partition_weights_validated(self, abc):
        p = Partition.from_labels(abc, [("a",), ("b", "c")])
        with pytest.raises(ConstructionError) as ei:
            PartitionWeights(p, (0.7, 0.7))
        assert ei.value.code == "constraint.sum_not_one"
        with pytest.raises(ConstructionError) as ei:
            PartitionWeights(p, (1.2, -0.2))
        assert ei.value.code == "constraint.negative_weight"
        with pytest.raises(ConstructionError) as ei:
            PartitionWeights(p, (1.0,))
        assert ei.value.code == "constraint.length_mismatch"

    def test_expectation_rejects_inf(self, abc):
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        with pytest.raises(ConstructionError) as ei:
            Expectation(f, float("inf"))
        assert ei.value.code == "constraint.not_finite"


class TestCompile:
    @pytest.mark.parametrize("call", [
        lambda space: compile_constraint(object(), space),
        lambda space: compile_all([EventProb(space.subset("a"), 0.5), "a"], space),
        lambda space: maxent_update(Distribution.uniform(space), [0.5]),
    ], ids=["compile_constraint", "compile_all", "maxent_update"])
    def test_an_object_that_is_not_a_constraint_is_a_type_error(self, abc, call):
        # checked before its space is read, which such an object may not have
        with pytest.raises(TypeError, match=r"^not a constraint: "):
            call(abc)

    def test_event_prob_row(self, abc):
        ((coeffs, target),) = compile_constraint(EventProb(abc.subset("a", "c"), 0.8), abc)
        assert_allclose(coeffs, [1.0, 0.0, 1.0])
        assert target == 0.8

    def test_expectation_row(self, abc):
        f = RandomVariable(abc, (1.0, 2.0, 6.0))
        ((coeffs, target),) = compile_constraint(Expectation(f, 2.5), abc)
        assert_allclose(coeffs, [1.0, 2.0, 6.0])
        assert target == 2.5

    def test_cond_prob_linearization(self, abc):
        # P(a | {a, b}) = 0.25 becomes 1_{a} - 0.25 * 1_{a,b} with target 0
        c = CondProb(abc.subset("a"), abc.subset("a", "b"), 0.25)
        ((coeffs, target),) = compile_constraint(c, abc)
        assert_allclose(coeffs, [0.75, -0.25, 0.0])
        assert target == 0.0

    def test_cond_prob_target_outside_given_intersected(self, abc):
        # only the overlap of target and given matters
        c = CondProb(abc.subset("a", "c"), abc.subset("a", "b"), 0.5)
        ((coeffs, _),) = compile_constraint(c, abc)
        assert_allclose(coeffs, [0.5, -0.5, 0.0])

    def test_partition_weights_rows(self, abc):
        p = Partition.from_labels(abc, [("a",), ("b", "c")])
        (c0, t0), (c1, t1) = compile_constraint(PartitionWeights(p, (0.3, 0.7)), abc)
        assert_allclose(c0, [1.0, 0.0, 0.0])
        assert t0 == 0.3
        assert_allclose(c1, [0.0, 1.0, 1.0])
        assert t1 == 0.7

    def test_space_mismatch_rejected(self, abc):
        c = EventProb(space_of(2).subset("w0"), 0.5)
        for compile_ in (lambda: compile_constraint(c, abc),
                         lambda: compile_all([EventProb(abc.subset("a"), 0.5), c], abc)):
            with pytest.raises(ConstructionError) as ei:
                compile_()
            assert ei.value.code == "constraint.space_mismatch"

    def test_partition_targets_are_weights_over_their_exact_sum(self, abc):
        p = Partition.from_labels(abc, [("a",), ("b", "c")])
        c = PartitionWeights(p, (0.3, 0.7 + 2e-10))
        assert c.weights == (0.3, 0.7 + 2e-10)  # stored as given
        b = compile_all([c], abc).b
        assert b.tolist() == [0.3 / (1.0 + 2e-10), (0.7 + 2e-10) / (1.0 + 2e-10)]

    def test_compile_all_concatenates(self, abc):
        p = Partition.from_labels(abc, [("a",), ("b",), ("c",)])
        system = compile_all(
            [EventProb(abc.subset("a"), 0.2), PartitionWeights(p, (0.2, 0.3, 0.5))], abc
        )
        assert_allclose(
            system.A, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert system.b.tolist() == [0.2, 0.2, 0.3, 0.5]

    @pytest.mark.parametrize("constraints", [
        lambda s: [EventProb(s.subset("a"), 0.2), EventProb(s.subset("b", "c"), 0.5)],
        lambda s: [PartitionWeights(Partition.from_labels(s, [("a",), ("b", "c")]), (0.4, 0.6))],
        lambda s: [],
    ], ids=["events", "partition", "empty"])
    def test_rows_stack_as_read_only_c_ordered_float64(self, abc, constraints):
        # an event's row is its bool mask; the system's A is float64 all the same
        A = compile_all(constraints(abc), abc).A
        assert A.dtype == np.float64
        assert A.flags.c_contiguous and not A.flags.writeable
        assert A.shape[1] == 3

    def test_rows_know_their_constraint_and_conditioning_event(self, abc):
        p = Partition.from_labels(abc, [("a",), ("b", "c")])
        f = RandomVariable(abc, (1.0, 2.0, 6.0))
        first, second = abc.subset("a", "b"), abc.subset("b", "c")
        system = compile_all([
            CondProb(abc.subset("a"), first, 0.25),
            PartitionWeights(p, (0.3, 0.7)),
            Expectation(f, 2.5),
            EventProb(abc.subset("c"), 0.4),
            CondProb(abc.subset("c"), second, 0.5),
        ], abc)
        assert system.source == (0, 1, 1, 2, 3, 4)
        assert len(system.given) == 6
        assert system.given[0] is first and system.given[5] is second  # no copies
        assert system.given[1:5] == (None,) * 4

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_compiled_matrix_is_read_only_and_c_ordered(self, abc, count):
        f = RandomVariable(abc, (1.0, 2.0, 6.0))
        system = compile_all([Expectation(f, 2.5)] * count, abc)
        A, b = system.A, system.b
        assert A.shape == (count, 3) and b.shape == (count,) and b.dtype == float
        assert A.flags.c_contiguous and not A.flags.writeable
        with pytest.raises(ValueError):
            A[..., 0] = 1.0


class TestResidual:
    def test_zero_when_satisfied(self, abc):
        d = Distribution(abc, (0.2, 0.3, 0.5))
        cs = [
            EventProb(abc.subset("a"), 0.2),
            CondProb(abc.subset("b"), abc.subset("b", "c"), 0.375),
        ]
        assert residual(d, compile_all(cs, abc)) == pytest.approx(0.0, abs=1e-15)

    def test_reports_worst_violation(self, abc):
        d = Distribution(abc, (0.2, 0.3, 0.5))
        cs = [
            EventProb(abc.subset("a"), 0.25),  # off by 0.05
            EventProb(abc.subset("c"), 0.7),  # off by 0.2
        ]
        assert residual(d, compile_all(cs, abc)) == pytest.approx(0.2)

    def test_empty_constraint_list(self, abc):
        assert residual(Distribution.uniform(abc), compile_all([], abc)) == 0.0

    @given(positive_distributions(), st.data())
    def test_self_describing_constraints_have_zero_residual(self, d, data):
        labels = data.draw(
            st.lists(st.sampled_from(d.space.outcomes), min_size=1, unique=True)
        )
        e = d.space.subset(*labels)
        cs = [EventProb(e, d.prob(e))]
        assert residual(d, compile_all(cs, d.space)) == pytest.approx(0.0, abs=1e-12)


def per_row_residual(dist, system):
    """The reference: one 1-D ``a @ p`` per row, in a Python loop."""
    return max((abs(float(a @ dist.array) - t) for a, t in zip(system.A, system.b.tolist())),
               default=0.0)


class TestResidualKernel:
    @pytest.mark.parametrize("m", [0, 1, 3, 10, 300])
    def test_equals_the_per_row_reference_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        largest = 100_000 if m <= 10 else 3000  # keeps A to a few MB
        for n in (1, 2, 7, *rng.integers(8, largest, size=3, endpoint=True).tolist()):
            p = rng.random(n) * (rng.random(n) < 0.7)  # about 30% zeros
            p[rng.integers(n)] += 1.0
            dist = Distribution(space_of(n), p / p.sum())
            A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(0.0, 9.0, size=(m, 1))
            b = A @ dist.array + rng.normal(size=m) * 10.0 ** rng.uniform(-12.0, 0.0, size=m)
            system = System(dist.space, A, b, tuple(range(m)), tuple(range(m)), (None,) * m, ())
            got = residual(dist, system)
            assert type(got) is float
            assert got == per_row_residual(dist, system), (m, n)


def triage(constraints, prior):
    """Run the pass on ``constraints`` compiled over the prior's space."""
    return triage_feasibility(compile_all(constraints, prior.space), prior, 1e-10)


def certificates(constraints, prior):
    """The row certificates the pass raises on ``constraints``, or "" when it raises none."""
    try:
        triage(constraints, prior)
    except InfeasibleConstraint as err:
        return err.reason
    return ""


class TestTriage:
    def test_clean_constraints_pass(self, abc):
        # nothing pinned, so the rows left are the compiled system itself
        prior = Distribution(abc, (0.5, 0.3, 0.2))
        system = compile_all([EventProb(abc.subset("a"), 0.9)], abc)
        live, rows = triage_feasibility(system, prior, 1e-10)
        assert live.all() and rows is system
        assert_allclose(rows.A, [[1.0, 0.0, 0.0]])
        assert list(rows.b) == [0.9]

    def test_rows_left_keep_their_source_and_given(self, abc):
        # the pin on c leaves rows 1-3 as a System on the same space, each row with the
        # constraint it came from and its conditioning event, its matrix read-only
        prior = Distribution.uniform(abc)
        given = abc.subset("a", "b")
        cells = Partition.from_labels(abc, [("a",), ("b", "c")])
        system = compile_all([EventProb(abc.subset("c"), 0.0), CondProb(abc.subset("a"), given, 0.3),
                              PartitionWeights(cells, (0.4, 0.6))], abc)
        live, rows = triage_feasibility(system, prior, 1e-10)
        assert list(live) == [True, True, False]
        assert rows.space is abc and rows.index == (1, 2, 3) and rows.source == (1, 2, 2)
        assert rows.given == (given, None, None)
        assert rows.A.tobytes() == system.A[1:].tobytes() and not rows.A.flags.writeable
        assert rows.b.tolist() == system.b[1:].tolist()

    def test_probability_out_of_range(self, abc):
        # an event target is judged by its row like any other: beyond tol it is
        # certified with its stake, within tol of 0 or 1 it pins a face
        prior = Distribution.uniform(abc)
        a = abc.subset("a")
        assert certificates([EventProb(a, 1.2)], prior) == (
            "row 0: target 1.2 lies outside [0.0, 1.0], its range on the outcomes still "
            "possible (witness y = +e_0)")
        assert "(witness y = -e_0)" in certificates([EventProb(a, -1e-9)], prior)
        # y = -e_0 prices -b against -A_i's range [-1, -0]
        with pytest.raises(InfeasibleConstraint) as ei:
            triage([EventProb(a, -1e-9)], prior)
        assert ei.value.witnesses == (Witness((0,), (-1.0,), 1e-9, -1.0, -0.0),)
        for value, kept in ((1.0 + 5e-11, [True, False, False]), (-5e-11, [False, True, True])):
            live, rows = triage([EventProb(a, value)], prior)
            assert list(live) == kept and rows.A.shape == (0, 3)

    def test_target_is_judged_by_its_true_distance(self, abc):
        # 1 + 1e-10 rounds to a float 1.0000000827e-10 above 1, beyond tol, although
        # hi + tol rounds to that same float; the difference b - hi is exact
        prior = Distribution.uniform(abc)
        a = abc.subset("a")
        assert certificates([EventProb(a, 1.0 + 1e-10)], prior) == (
            "row 0: target 1.0000000001 lies outside [0.0, 1.0], its range on the outcomes "
            "still possible (witness y = +e_0)")
        with pytest.raises(InfeasibleConstraint, match=r"witness y = \+e_0"):
            maxent_update(prior, [EventProb(a, 1.0 + 1e-10)])
        # every target near an end either gets a certificate or a report within tol
        for k in range(16):
            for value in (1.0 + k * 1e-11, -k * 1e-11):
                reasons = certificates([EventProb(a, value)], prior)
                assert bool(reasons) == (abs(value - (value > 0.5)) > 1e-10), value
                if not reasons:
                    assert maxent_update(prior, [EventProb(a, value)]).final_residual <= 1e-10

    def test_cond_prob_out_of_range(self, abc):
        # the row P(a) - v P(a, b) is met only by P(a, b) = 0, so the pass pins
        # that face and the solver's conditional check names the constraint
        prior = Distribution.uniform(abc)
        for value in (-0.1, 1.2):
            c = CondProb(abc.subset("a"), abc.subset("a", "b"), value)
            live, rows = triage([c], prior)
            assert list(live) == [False, False, True] and rows.A.shape == (0, 3)
            with pytest.raises(DegenerateConditional, match=r"P\(\{a\} \| \{a, b\}\)"):
                maxent_update(prior, [c])
        # conditioned on every outcome, the row is nonzero wherever mass can go
        c = CondProb(abc.subset("a"), abc.subset("a", "b", "c"), 1.2)
        assert "(witness y = +e_0)" in certificates([c], prior)

    def test_expectation_outside_range(self, abc):
        prior = Distribution.uniform(abc)
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        above = certificates([Expectation(f, 3.5)], prior)
        below = certificates([Expectation(f, 0.5)], prior)
        assert above and "witness y = +e_0" in above
        assert below and "witness y = -e_0" in below

    def test_expectation_range_uses_prior_support(self, abc):
        # outcome c carries value 3 but has no prior mass, so 2.5 is unreachable
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        assert certificates([Expectation(f, 2.5)], prior)

    def test_expectation_boundary_is_not_certified(self, abc):
        # attainable by a point mass, so the screen must let it through,
        # and the point mass is the only posterior: the row fixes its face
        prior = Distribution.uniform(abc)
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        live, rows = triage([Expectation(f, 3.0)], prior)
        assert list(live) == [False, False, True]
        assert rows.A.shape == (0, 3) and rows.b.size == 0
        # a least value shared by two outcomes keeps both
        g = RandomVariable(abc, (-2.0, -2.0, 5.0))
        live, rows = triage([Expectation(g, -2.0)], prior)
        assert list(live) == [True, True, False] and rows.A.shape == (0, 3)

    def test_positive_target_on_zero_mass_event(self, abc):
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        assert certificates([EventProb(abc.subset("c"), 0.1)], prior)
        # zero target on a zero-mass event is already satisfied
        live, rows = triage([EventProb(abc.subset("c"), 0.0)], prior)
        assert list(live) == [True, True, False] and rows.A.shape == (0, 3)

    def test_positive_weight_on_zero_mass_cell(self, abc):
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        p = Partition.from_labels(abc, [("a", "b"), ("c",)])
        assert certificates([PartitionWeights(p, (0.9, 0.1))], prior)
        live, rows = triage([PartitionWeights(p, (1.0, 0.0))], prior)
        # the weight-1 row covers the live support, so neither row needs a multiplier
        assert list(live) == [True, True, False] and rows.A.shape == (0, 3)

    def test_multiple_reasons_collected(self, abc):
        # one raise, with every row's certificate joined by "; "
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        cs = [EventProb(abc.subset("c"), 0.1), Expectation(f, 99.0)]
        reasons = certificates(cs, prior)
        assert [r[:6] for r in reasons.split("; ")] == ["row 0:", "row 1:"]
        with pytest.raises(InfeasibleConstraint) as ei:
            triage(cs, prior)
        assert ei.value.witnesses == (Witness((0,), (1.0,), 0.1, 0.0, 0.0),
                                      Witness((1,), (1.0,), 99.0, 1.0, 2.0))

    def test_space_mismatch_rejected(self, abc):
        # a system compiled over another space is caught by its width
        prior = Distribution.uniform(space_of(2))
        with pytest.raises(ConstructionError) as ei:
            triage_feasibility(compile_all([EventProb(abc.subset("a"), 0.5)], abc), prior, 1e-10)
        assert ei.value.code == "constraint.space_mismatch"

    def test_zero_target_pins_the_argmin_face_of_a_signed_row(self, abc):
        # the row is negative on c, which the prior rules out; on the live
        # support its least value is 0 at a, so the zero target keeps only a
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        f = RandomVariable(abc, (0.0, 1.0, -3.0))
        live, rows = triage([Expectation(f, 0.0)], prior)
        assert list(live) == [True, False, False] and rows.A.shape == (0, 3)
        # with c live, the same zero target is interior and the row stays active
        live, rows = triage([Expectation(f, 0.0)], Distribution.uniform(abc))
        assert live.all()
        assert_allclose(rows.A, [f.array])
        assert list(rows.b) == [0.0]

    def test_pins_recheck_rows_on_the_smaller_support(self, abc):
        # pinning P(a, b) = 1 drops c, after which P(b) = 1 fixes b alone and
        # P(c) = 0.2 is beyond its range 0 on what is left
        prior = Distribution.uniform(abc)
        pins = [EventProb(abc.subset("a", "b"), 1.0), EventProb(abc.subset("b"), 1.0)]
        live, rows = triage(pins, prior)
        assert list(live) == [False, True, False] and rows.A.shape == (0, 3)
        reasons = certificates(pins + [EventProb(abc.subset("c"), 0.2)], prior)
        assert reasons == ("row 2: target 0.2 lies outside [0.0, 0.0], its range on the "
                           "outcomes still possible (witness y = +e_2)")

    def test_target_within_tol_of_a_whole_support_row_is_not_certified(self, abc):
        prior = Distribution.uniform(abc)
        whole = abc.subset("a", "b", "c")
        live, _ = triage([EventProb(whole, float(np.nextafter(1.0, 0.0)))], prior)
        assert live.all()
        assert certificates([EventProb(whole, 0.5)], prior)


class TestWitness:
    def test_a_row_stake_prints_the_row_with_its_own_target_and_range(self):
        # y = -e_2 prices -b_2 against [-hi, -lo]; the text reads row 2's b_2 and [lo, hi]
        assert str(Witness((2,), (-1.0,), -0.5, -1.0, -1.0)) == (
            "row 2: target 0.5 lies outside [1.0, 1.0], its range on the outcomes still "
            "possible (witness y = -e_2)")
        assert str(Witness((0,), (1.0,), 1.2, 0.0, 1.0)) == (
            "row 0: target 1.2 lies outside [0.0, 1.0], its range on the outcomes still "
            "possible (witness y = +e_0)")

    def test_any_other_stake_prints_its_price_and_every_term(self):
        assert str(Witness((1, 3), (0.5, -2.0), 0.25, -1.0, 0.0)) == (
            "active rows [1, 3]: y . b = 0.25 lies outside [-1.0, 0.0], its range on the "
            "outcomes still possible (witness y = +0.5*e_1 -2.0*e_3 over the active rows)")
        assert str(Witness((4,), (2.0,), 3.0, 0.0, 2.0)) == (
            "active rows [4]: y . b = 3.0 lies outside [0.0, 2.0], its range on the "
            "outcomes still possible (witness y = +2.0*e_4 over the active rows)")

    def test_the_error_carries_its_witnesses_and_joins_their_text(self):
        witnesses = (Witness((0,), (1.0,), 1.2, 0.0, 1.0),
                     Witness((1, 2), (1.0, 1.0), 2.5, 1.0, 1.0))
        err = InfeasibleConstraint(*witnesses)
        assert err.witnesses == witnesses
        assert err.reason == str(err) == f"{witnesses[0]}; {witnesses[1]}"
