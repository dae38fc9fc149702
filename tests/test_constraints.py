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
    compile_all,
    compile_constraint,
    residual,
    triage_feasibility,
)
from relent.errors import ConstructionError, SpaceMismatch
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
        with pytest.raises(SpaceMismatch):
            compile_constraint(c, abc)

    def test_compile_all_concatenates(self, abc):
        p = Partition.from_labels(abc, [("a",), ("b",), ("c",)])
        A, b = compile_all(
            [EventProb(abc.subset("a"), 0.2), PartitionWeights(p, (0.2, 0.3, 0.5))], abc
        )
        assert_allclose(A, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert b.tolist() == [0.2, 0.2, 0.3, 0.5]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_compiled_matrix_is_read_only_and_c_ordered(self, abc, count):
        f = RandomVariable(abc, (1.0, 2.0, 6.0))
        A, b = compile_all([Expectation(f, 2.5)] * count, abc)
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


def triage(constraints, prior):
    """Run the pass on ``constraints`` compiled over the prior's space."""
    return triage_feasibility(constraints, compile_all(constraints, prior.space), prior, 1e-10)


class TestTriage:
    def test_clean_constraints_pass(self, abc):
        prior = Distribution(abc, (0.5, 0.3, 0.2))
        reasons, live, (A, b) = triage([EventProb(abc.subset("a"), 0.9)], prior)
        assert reasons == ()
        assert live.all()
        assert_allclose(A, [[1.0, 0.0, 0.0]])
        assert list(b) == [0.9]

    def test_probability_out_of_range(self, abc):
        prior = Distribution.uniform(abc)
        reasons = triage([EventProb(abc.subset("a"), 1.2)], prior)[0]
        assert len(reasons) == 1
        assert "outside [0, 1]" in reasons[0]

    def test_cond_prob_out_of_range(self, abc):
        prior = Distribution.uniform(abc)
        assert triage([CondProb(abc.subset("a"), abc.subset("a", "b"), -0.1)], prior)[0]

    def test_expectation_outside_range(self, abc):
        prior = Distribution.uniform(abc)
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        above = triage([Expectation(f, 3.5)], prior)[0]
        below = triage([Expectation(f, 0.5)], prior)[0]
        assert above and "witness y = +e_0" in above[0]
        assert below and "witness y = -e_0" in below[0]

    def test_expectation_range_uses_prior_support(self, abc):
        # outcome c carries value 3 but has no prior mass, so 2.5 is unreachable
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        assert triage([Expectation(f, 2.5)], prior)[0]

    def test_expectation_boundary_is_not_certified(self, abc):
        # attainable by a point mass, so the screen must let it through
        prior = Distribution.uniform(abc)
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        reasons, live, (A, b) = triage([Expectation(f, 3.0)], prior)
        assert not reasons
        # and the point mass is the only posterior: the row fixes its face
        assert list(live) == [False, False, True]
        assert A.shape == (0, 3) and b.size == 0
        # a least value shared by two outcomes keeps both
        g = RandomVariable(abc, (-2.0, -2.0, 5.0))
        reasons, live, (A, _) = triage([Expectation(g, -2.0)], prior)
        assert not reasons
        assert list(live) == [True, True, False] and A.shape == (0, 3)

    def test_positive_target_on_zero_mass_event(self, abc):
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        assert triage([EventProb(abc.subset("c"), 0.1)], prior)[0]
        # zero target on a zero-mass event is already satisfied
        reasons, live, (A, _) = triage([EventProb(abc.subset("c"), 0.0)], prior)
        assert not reasons
        assert list(live) == [True, True, False] and A.shape == (0, 3)

    def test_positive_weight_on_zero_mass_cell(self, abc):
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        p = Partition.from_labels(abc, [("a", "b"), ("c",)])
        assert triage([PartitionWeights(p, (0.9, 0.1))], prior)[0]
        reasons, live, (A, _) = triage([PartitionWeights(p, (1.0, 0.0))], prior)
        assert not reasons
        # the weight-1 row covers the live support, so neither row needs a multiplier
        assert list(live) == [True, True, False] and A.shape == (0, 3)

    def test_multiple_reasons_collected(self, abc):
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        f = RandomVariable(abc, (1.0, 2.0, 3.0))
        reasons = triage([EventProb(abc.subset("c"), 0.1), Expectation(f, 99.0)], prior)[0]
        assert len(reasons) == 2

    def test_space_mismatch_rejected(self, abc):
        prior = Distribution.uniform(space_of(2))
        cs = [EventProb(abc.subset("a"), 0.5)]
        with pytest.raises(SpaceMismatch):
            triage_feasibility(cs, compile_all(cs, abc), prior, 1e-10)

    def test_zero_target_pins_the_argmin_face_of_a_signed_row(self, abc):
        # the row is negative on c, which the prior rules out; on the live
        # support its least value is 0 at a, so the zero target keeps only a
        prior = Distribution(abc, (0.5, 0.5, 0.0))
        f = RandomVariable(abc, (0.0, 1.0, -3.0))
        reasons, live, (A, _) = triage([Expectation(f, 0.0)], prior)
        assert not reasons
        assert list(live) == [True, False, False] and A.shape == (0, 3)
        # with c live, the same zero target is interior and the row stays active
        reasons, live, (A, b) = triage([Expectation(f, 0.0)], Distribution.uniform(abc))
        assert not reasons and live.all()
        assert_allclose(A, [f.array])
        assert list(b) == [0.0]

    def test_pins_recheck_rows_on_the_smaller_support(self, abc):
        # pinning P(a, b) = 1 drops c, after which P(b) = 1 fixes b alone and
        # P(c) = 0.2 is beyond its range 0 on what is left
        prior = Distribution.uniform(abc)
        pins = [EventProb(abc.subset("a", "b"), 1.0), EventProb(abc.subset("b"), 1.0)]
        reasons, live, (A, _) = triage(pins, prior)
        assert not reasons and list(live) == [False, True, False] and A.shape == (0, 3)
        reasons = triage(pins + [EventProb(abc.subset("c"), 0.2)], prior)[0]
        assert reasons == ("row 2: target 0.2 lies outside [0.0, 0.0], its range on the "
                           "outcomes still possible (witness y = +e_2)",)

    def test_target_within_tol_of_a_whole_support_row_is_not_certified(self, abc):
        prior = Distribution.uniform(abc)
        whole = abc.subset("a", "b", "c")
        reasons, live, _ = triage([EventProb(whole, float(np.nextafter(1.0, 0.0)))], prior)
        assert not reasons and live.all()
        assert triage([EventProb(whole, 0.5)], prior)[0]
