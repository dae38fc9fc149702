import math
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relent.certainty_factors import EvidenceScenario
from relent.coherence import ForecastSystem, world_losses
from relent.constraints import (
    CondProb,
    EventProb,
    PartitionWeights,
    compile_all,
    compile_constraint,
    residual,
    triage_feasibility,
)
from relent.errors import ConstructionError, ZeroMassEvent
from relent.information import relative_entropy, self_information
from relent.solver import SolverOptions, jeffrey_update, maxent_update
from relent.spaces import (
    Distribution,
    Event,
    JointDistribution,
    Partition,
    RandomVariable,
    SUM_TOL,
    SampleSpace,
    _integer,
    _reweight,
    _row_dots,
    condition,
    conditional_prob,
    expectation,
    marginal,
)

from conftest import distributions, positive_distributions, space_of


class TestSampleSpace:
    def test_basic(self):
        s = SampleSpace(("a", "b", "c"))
        assert len(s) == 3
        assert "b" in s
        assert "z" not in s
        # a label of another type is no outcome, an unhashable one included
        assert all(x not in s for x in (3, None, ["a"], {"a": 0}))
        assert s.index == {"a": 0, "b": 1, "c": 2}

    def test_rejects_empty(self):
        with pytest.raises(ConstructionError) as ei:
            SampleSpace(())
        assert ei.value.code == "space.empty"

    def test_rejects_duplicates(self):
        with pytest.raises(ConstructionError) as ei:
            SampleSpace(("a", "b", "a"))
        assert ei.value.code == "space.duplicate_label"

    def test_rejects_non_string_labels(self):
        with pytest.raises(ConstructionError) as ei:
            SampleSpace(("a", 2))  # type: ignore[arg-type]
        assert ei.value.code == "space.bad_label"

    def test_accepts_str_subclass_labels(self):
        class Label(str):
            pass

        s = SampleSpace((Label("a"), "b", Label("c")))
        assert s.index == {"a": 0, "b": 1, "c": 2}
        with pytest.raises(ConstructionError) as ei:
            SampleSpace((Label("a"), b"b"))  # type: ignore[arg-type]
        assert ei.value.code == "space.bad_label"

    def test_rejects_labels_that_cannot_be_written(self):
        with pytest.raises(ConstructionError) as ei:
            SampleSpace(("a", "b\ud800c", "\udfff"))
        assert ei.value.code == "space.bad_label"
        assert str(ei.value) == "outcome label 'b\\ud800c' is not writable text"
        assert SampleSpace(("é", "\U0001f600", "a\x00b")).outcomes[1] == "\U0001f600"

    def test_equality_is_by_value(self):
        assert SampleSpace(("a", "b")) == SampleSpace(("a", "b"))
        assert SampleSpace(("a", "b")) != SampleSpace(("b", "a"))


class TestEvent:
    def test_indicator_alignment(self):
        s = SampleSpace(("a", "b", "c"))
        e = s.subset("c", "a")
        assert_allclose(e.indicator, [1.0, 0.0, 1.0])

    def test_unknown_label_rejected(self):
        s = SampleSpace(("a", "b"))
        with pytest.raises(ConstructionError) as ei:
            Event(s, frozenset({"a", "z"}))
        assert ei.value.code == "event.unknown_label"

    @pytest.mark.parametrize("labels,message", [
        ([1, "zz"], "[1, 'zz']"),
        ([["a"]], "[['a']]"),
        (["b", "zz", ("x",), "y", "zz"], "[('x',), 'y', 'zz']"),
        (frozenset({"z", "a", "y"}), "['y', 'z']"),
    ], ids=["mixed", "unhashable", "tuple", "strings"])
    def test_unknown_labels_of_any_type_are_coded(self, labels, message):
        s = SampleSpace(("a", "b"))
        with pytest.raises(ConstructionError) as ei:
            Event(s, labels)
        assert ei.value.code == "event.unknown_label"
        assert str(ei.value) == f"event references labels not in the space: {message}"

    def test_list_tuple_and_generator_give_one_indicator(self):
        s = SampleSpace(("a", "b", "c", "d"))
        labels = ["d", "b", "d"]
        events = [Event(s, labels), Event(s, tuple(labels)), Event(s, (x for x in labels))]
        for e in events:
            assert e.indicator.tolist() == [0.0, 1.0, 0.0, 1.0]
            assert e == events[0]

    def test_labels_are_in_space_order(self):
        s = SampleSpace(("z", "a", "m", "b"))
        e = Event(s, {"b", "z", "m"})
        assert e.labels == ["z", "m", "b"]
        assert e.members == {"b", "m", "z"}
        assert e.describe() == "{b, m, z}"
        assert Event(s, ()).labels == []
        assert Event(s, ()).describe() == "{}"

    @pytest.mark.parametrize("build", [
        lambda s: Event(s, "ab"),
        lambda s: Partition.from_labels(s, ["ab", ["c"]]),
    ], ids=["event", "partition-cell"])
    def test_a_string_is_not_a_collection_of_labels(self, build):
        # iterated, "ab" would be the event {a, b}
        s = SampleSpace(("a", "b", "c", "ab"))
        with pytest.raises(ConstructionError) as ei:
            build(s)
        assert ei.value.code == "event.bad_members"
        assert str(ei.value) == "members must be a collection of labels, got 'ab'"
        assert s.subset("ab").labels == ["ab"]

    def test_set_algebra(self):
        s = SampleSpace(("a", "b", "c", "d"))
        e = s.subset("a", "b")
        f = s.subset("b", "c")
        assert e.intersect(f).members == {"b"}
        assert e.complement().members == {"c", "d"}
        assert e.difference(f).members == {"a"}
        assert e.intersect(f).issubset(e)

    def test_every_event_is_a_read_only_mask(self):
        s = SampleSpace(("a", "b", "c", "d", "e"))
        e, f = s.subset("a", "b", "d"), s.subset("b", "c")
        events = [e, f, e.complement(), e.intersect(f), e.difference(f), s.whole(),
                  Event(s, ()), *Partition.from_labels(s, [("a", "c"), ("b", "d", "e")]).cells]
        for x in events:
            assert x.indicator.dtype == np.bool_
            assert x.indicator.nbytes == len(s)
            assert not x.indicator.flags.writeable
            with pytest.raises(ValueError):
                x.indicator[0] = True
        assert not f.issubset(e) and e.intersect(f).issubset(f)

    def test_cross_space_rejected(self):
        e = SampleSpace(("a", "b")).subset("a")
        f = SampleSpace(("x", "y")).subset("x")
        with pytest.raises(ConstructionError) as ei:
            e.intersect(f)
        assert ei.value.code == "event.space_mismatch"


class TestDistribution:
    def test_uniform(self):
        s = space_of(4)
        d = Distribution.uniform(s)
        assert_allclose(d.array, [0.25] * 4)

    def test_prob(self):
        s = SampleSpace(("a", "b", "c"))
        d = Distribution(s, (0.5, 0.3, 0.2))
        assert d.prob(s.subset("a", "c")) == pytest.approx(0.7)
        assert d.prob(s.subset()) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConstructionError) as ei:
            Distribution(space_of(3), (0.5, 0.5))
        assert ei.value.code == "dist.length_mismatch"

    def test_rejects_negative(self):
        with pytest.raises(ConstructionError) as ei:
            Distribution(space_of(2), (1.1, -0.1))
        assert ei.value.code == "dist.negative_weight"

    def test_rejects_bad_sum(self):
        with pytest.raises(ConstructionError) as ei:
            Distribution(space_of(2), (0.5, 0.6))
        assert ei.value.code == "dist.sum_not_one"

    def test_rejects_nan(self):
        with pytest.raises(ConstructionError) as ei:
            Distribution(space_of(2), (float("nan"), 1.0))
        assert ei.value.code == "dist.not_finite"

    def test_tolerates_tiny_sum_error(self):
        # 0.1 added ten times misses 1.0 by float noise; stays within tolerance
        d = Distribution(space_of(10), (0.1,) * 10)
        assert d.prob(d.space.whole()) == pytest.approx(1.0)

    def test_array_is_readonly(self):
        d = Distribution.uniform(space_of(3))
        with pytest.raises(ValueError):
            d.array[0] = 0.9

    @pytest.mark.parametrize("weights", [[-0.0, 0.5, 0.5], np.array([0.5, -0.0, 0.5])],
                             ids=["list", "array"])
    def test_a_negative_zero_weight_is_stored_as_zero(self, weights):
        # -0.0 passes the simplex check, and used to print as "-0"
        d = Distribution(space_of(3), weights)
        assert [math.copysign(1.0, w) for w in d.weights] == [1.0, 1.0, 1.0]
        assert not d.array.flags.writeable

    @given(distributions())
    def test_simplex_invariants(self, d: Distribution):
        assert min(d.weights) >= 0.0
        assert math.fsum(d.weights) == pytest.approx(1.0, abs=1e-9)


def weights_totalling(rng: np.random.Generator, shape: tuple, target: float) -> np.ndarray:
    """Skewed nonnegative weights whose exactly rounded total is about ``target``."""
    w = rng.random(shape) ** 3
    w *= target / w.sum()
    top = np.unravel_index(np.argmax(w), shape)
    for _ in range(2):  # move the largest weight by what the exact total misses
        w[top] += target - math.fsum(w.ravel().tolist())
    return w


def ulps_around(x: float, k: int) -> list[float]:
    """``x`` and the k floats on either side of it."""
    return [x + i * float(np.spacing(x)) for i in range(-k, k + 1)]


class TestSimplexCheck:
    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (128,), (1000,), (12345,), (100_000,),
                                       (250, 400)], ids=str)
    def test_verdict_and_message_match_the_exactly_rounded_total(self, shape):
        rng = np.random.default_rng(list(shape))
        near = ulps_around(1.0 + SUM_TOL, 4) + ulps_around(1.0 - SUM_TOL, 4)
        far = [0.25, 1.0 - 1e-6, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 3.0]
        if len(shape) == 1:
            build, kind, nouns = partial(Distribution, space_of(shape[0])), "dist", "weights"
        else:
            build = partial(JointDistribution, space_of(shape[0]), space_of(shape[1]))
            kind, nouns = "joint", "entries"
        near_verdicts = set()
        for target in near + far:
            w = weights_totalling(rng, shape, target)
            total = math.fsum(w.ravel().tolist())
            expected = None if abs(total - 1.0) <= SUM_TOL else f"{nouns} sum to {total!r}, not 1"
            try:
                build(w)
                got = None
            except ConstructionError as e:
                assert e.code == f"{kind}.sum_not_one"
                got = str(e)
            assert got == expected, (target, total)
            if target in near:
                near_verdicts.add(got is None)
        assert near_verdicts == {True, False}

    top = float(np.finfo(float).max)
    past_ulp = 0.3 * math.ulp(top)  # two of these carry top past the float range

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [top, past_ulp, past_ulp]],
                             ids=["sum-overflows", "exact-total-overflows"])
    def test_weights_past_the_float_range_are_rejected(self, weights):
        # the rough sum of the second rounds down to top; only the exact one overflows
        s = space_of(len(weights))
        cells = Partition.from_labels(s, [(x,) for x in s.outcomes])
        builds = [
            ("dist", "weights", lambda: Distribution(s, weights)),
            ("joint", "entries", lambda: JointDistribution(space_of(1), s, [weights])),
            ("constraint", "cell weights", lambda: PartitionWeights(cells, tuple(weights))),
        ]
        for kind, nouns, build in builds:
            with pytest.raises(ConstructionError) as ei:
                build()
            assert ei.value.code == f"{kind}.sum_not_one"
            assert str(ei.value) == f"{nouns} sum to inf, not 1"


class TestRandomVariable:
    def test_from_mapping_aligns_to_space_order(self):
        s = SampleSpace(("a", "b", "c"))
        f = RandomVariable.from_mapping(s, {"c": 3.0, "a": 1.0, "b": 2.0})
        assert f.values == (1.0, 2.0, 3.0)

    def test_from_mapping_requires_totality(self):
        s = SampleSpace(("a", "b"))
        with pytest.raises(ConstructionError) as ei:
            RandomVariable.from_mapping(s, {"a": 1.0})
        assert ei.value.code == "variable.not_total"
        assert str(ei.value) == "no value for outcomes ['b']"

    def test_from_mapping_rejects_unknown(self):
        s = SampleSpace(("a", "b"))
        with pytest.raises(ConstructionError) as ei:
            RandomVariable.from_mapping(s, {"a": 1.0, "b": 2.0, "z": 3.0})
        assert ei.value.code == "variable.unknown_label"
        assert str(ei.value) == "variable references labels not in the space: ['z']"

    @pytest.mark.parametrize("mapping,message", [
        ({"a": 1, "b": 2, 3: 4, "c": 5}, "[3, 'c']"),
        ({"a": 1, "b": 2, "zz": 3, "c": 4, 10: 5}, "[10, 'c', 'zz']"),
    ], ids=["int-and-str", "sorted-by-text"])
    def test_from_mapping_rejects_unknown_labels_of_any_type(self, mapping, message):
        s = SampleSpace(("a", "b"))
        with pytest.raises(ConstructionError) as ei:
            RandomVariable.from_mapping(s, mapping)
        assert ei.value.code == "variable.unknown_label"
        assert str(ei.value) == f"variable references labels not in the space: {message}"

    def test_from_mapping_in_order_with_one_key_renamed(self):
        s = SampleSpace(("a", "b", "c"))
        with pytest.raises(ConstructionError) as ei:
            RandomVariable.from_mapping(s, {"a": 1.0, "renamed": 2.0, "c": 3.0})
        assert ei.value.code == "variable.not_total"
        assert str(ei.value) == "no value for outcomes ['b']"

    def test_from_mapping_in_order_and_shuffled_agree(self):
        s = space_of(100)
        rng = np.random.default_rng(3)
        ordered = {x: float(v) for x, v in zip(s.outcomes, rng.normal(size=100))}
        shuffled = {s.outcomes[i]: ordered[s.outcomes[i]] for i in rng.permutation(100)}
        assert list(shuffled) != list(ordered)
        expected = list(ordered.values())
        assert RandomVariable.from_mapping(s, ordered).array.tolist() == expected
        assert RandomVariable.from_mapping(s, shuffled).array.tolist() == expected

    def test_rejects_non_finite(self):
        with pytest.raises(ConstructionError) as ei:
            RandomVariable(space_of(2), (1.0, float("inf")))
        assert ei.value.code == "variable.not_finite"


class TestPartition:
    def test_valid(self):
        s = SampleSpace(("a", "b", "c", "d"))
        p = Partition.from_labels(s, [("a", "b"), ("c",), ("d",)])
        assert len(p.cells) == 3
        assert p.space == s

    def test_rejects_overlap(self):
        s = SampleSpace(("a", "b", "c"))
        with pytest.raises(ConstructionError) as ei:
            Partition.from_labels(s, [("a", "b"), ("b", "c")])
        assert ei.value.code == "partition.overlapping_cells"
        assert str(ei.value) == "outcomes in more than one cell: ['b']"
        with pytest.raises(ConstructionError) as ei:  # one outcome in three cells
            Partition.from_labels(s, [("c", "a"), ("c",), ("b", "c")])
        assert str(ei.value) == "outcomes in more than one cell: ['c']"

    def test_rejects_gap(self):
        s = SampleSpace(("a", "b", "c"))
        with pytest.raises(ConstructionError) as ei:
            Partition.from_labels(s, [("a",), ("b",)])
        assert ei.value.code == "partition.not_exhaustive"
        assert str(ei.value) == "outcomes in no cell: ['c']"

    def test_rejects_empty_cell(self):
        s = SampleSpace(("a", "b"))
        with pytest.raises(ConstructionError) as ei:
            Partition.from_labels(s, [("a", "b"), ()])
        assert ei.value.code == "partition.empty_cell"

    def test_rejects_no_cells(self):
        with pytest.raises(ConstructionError) as ei:
            Partition(())
        assert ei.value.code == "partition.empty"

    def test_rejects_cells_from_two_spaces(self):
        with pytest.raises(ConstructionError) as ei:
            Partition((SampleSpace(("a", "b")).whole(), space_of(2).whole()))
        assert ei.value.code == "partition.space_mismatch"


class TestJointDistribution:
    def test_shape_validation(self):
        with pytest.raises(ConstructionError) as ei:
            JointDistribution(space_of(2), space_of(3), ((0.5, 0.5), (0.0, 0.0)))
        assert ei.value.code == "joint.shape_mismatch"

    def test_ragged_rows_are_a_shape_mismatch(self):
        with pytest.raises(ConstructionError) as ei:
            JointDistribution(space_of(2), space_of(2), ((0.5, 0.5), (0.0,)))
        assert ei.value.code == "joint.shape_mismatch"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ConstructionError) as ei:
            JointDistribution(space_of(2), space_of(2), ((0.5, bad), (0.25, 0.25)))
        assert ei.value.code == "joint.not_finite"

    def test_rejects_negative_entry(self):
        with pytest.raises(ConstructionError) as ei:
            JointDistribution(space_of(2), space_of(2), ((0.75, -0.25), (0.25, 0.25)))
        assert ei.value.code == "joint.negative_weight"
        assert "-0.25" in str(ei.value)

    def test_rejects_sum_not_one(self):
        with pytest.raises(ConstructionError) as ei:
            JointDistribution(space_of(2), space_of(2), ((0.5, 0.25), (0.25, 0.25)))
        assert ei.value.code == "joint.sum_not_one"

    def test_stores_one_read_only_array(self):
        j = JointDistribution(space_of(2), space_of(3), [[0.1, 0.2, 0.2], [0.3, 0.1, 0.1]])
        assert j.array.dtype == np.float64
        assert j.array.shape == (2, 3)
        with pytest.raises(ValueError):
            j.array[0, 0] = 0.5

    def test_equality_and_hash_by_contents(self):
        table = np.array([[0.4, 0.1], [0.1, 0.4]])
        a = JointDistribution(space_of(2), space_of(2), table)
        b = JointDistribution.from_array(space_of(2), space_of(2), table.tolist())
        assert a == b
        assert hash(a) == hash(b)
        assert a != JointDistribution(space_of(2), space_of(2), table.T[::-1])

    def test_independent_marginals(self):
        p = Distribution(space_of(2), (0.3, 0.7))
        q = Distribution(SampleSpace(("x", "y", "z")), (0.2, 0.5, 0.3))
        j = JointDistribution.independent(p, q)
        assert_allclose(marginal(j, "row").array, p.array)
        assert_allclose(marginal(j, "col").array, q.array)

    def test_identity_coupling(self):
        d = Distribution(space_of(3), (0.2, 0.3, 0.5))
        j = JointDistribution.identity_coupling(d)
        assert_allclose(j.array, np.diag([0.2, 0.3, 0.5]))
        assert_allclose(marginal(j, "row").array, d.array)
        assert_allclose(marginal(j, "col").array, d.array)

    def test_marginal_rejects_unknown_axis(self):
        j = JointDistribution.identity_coupling(Distribution.uniform(space_of(2)))
        with pytest.raises(ConstructionError) as ei:
            marginal(j, "diag")
        assert ei.value.code == "joint.bad_axis"
        assert str(ei.value) == "axis must be 'row' or 'col', got 'diag'"


class TestCondition:
    def test_known_values(self):
        # restricting (0.1, 0.2, 0.7) to the last two outcomes gives (0, 2/9, 7/9)
        s = space_of(3)
        d = Distribution(s, (0.1, 0.2, 0.7))
        out = condition(d, s.subset("w1", "w2"))
        assert_allclose(out.array, [0.0, 2.0 / 9.0, 7.0 / 9.0], rtol=0, atol=1e-15)

    def test_zero_mass_rejected(self):
        s = space_of(3)
        d = Distribution(s, (0.5, 0.5, 0.0))
        with pytest.raises(ZeroMassEvent):
            condition(d, s.subset("w2"))

    def test_empty_event_rejected(self):
        d = Distribution.uniform(space_of(2))
        with pytest.raises(ZeroMassEvent):
            condition(d, d.space.subset())

    @given(positive_distributions(), st.data())
    def test_idempotent(self, d: Distribution, data):
        labels = data.draw(
            st.lists(st.sampled_from(d.space.outcomes), min_size=1, unique=True)
        )
        e = d.space.subset(*labels)
        once = condition(d, e)
        twice = condition(once, e)
        assert_allclose(twice.array, once.array, rtol=0, atol=1e-15)
        assert once.prob(e) == pytest.approx(1.0)

    @given(positive_distributions(), st.data())
    def test_bits_of_the_restricted_weights_over_the_mass(self, d: Distribution, data):
        labels = data.draw(
            st.lists(st.sampled_from(d.space.outcomes), min_size=1, unique=True)
        )
        e = d.space.subset(*labels)
        expected = d.array * e.indicator / d.prob(e)
        assert condition(d, e).array.tobytes() == expected.tobytes()

    @given(positive_distributions())
    def test_whole_space_is_identity(self, d: Distribution):
        assert_allclose(condition(d, d.space.whole()).array, d.array, rtol=0, atol=1e-15)


class TestExpectation:
    def test_known_value(self):
        s = space_of(3)
        d = Distribution(s, (0.2, 0.3, 0.5))
        f = RandomVariable(s, (1.0, 2.0, 3.0))
        assert expectation(d, f) == pytest.approx(2.3)

    def test_cross_space_rejected(self):
        d = Distribution.uniform(space_of(2))
        f = RandomVariable(space_of(3), (1.0, 2.0, 3.0))
        with pytest.raises(ConstructionError) as ei:
            expectation(d, f)
        assert ei.value.code == "variable.space_mismatch"

    @given(positive_distributions())
    def test_constant_variable(self, d: Distribution):
        f = RandomVariable(d.space, (4.2,) * len(d.space))
        assert expectation(d, f) == pytest.approx(4.2)


class TestConditionalProb:
    def test_matches_ratio(self):
        s = SampleSpace(("a", "b", "c", "d"))
        d = Distribution(s, (0.1, 0.2, 0.3, 0.4))
        a = s.subset("a", "c")
        b = s.subset("c", "d")
        assert conditional_prob(d, a, b) == pytest.approx(0.3 / 0.7)

    def test_zero_mass_condition_rejected(self):
        s = space_of(2)
        d = Distribution(s, (1.0, 0.0))
        with pytest.raises(ZeroMassEvent):
            conditional_prob(d, s.subset("w0"), s.subset("w1"))

    @given(positive_distributions())
    def test_conditioning_on_whole_space(self, d: Distribution):
        a = d.space.subset(d.space.outcomes[0])
        assert conditional_prob(d, a, d.space.whole()) == pytest.approx(d.weights[0])

    @given(positive_distributions(), st.data())
    def test_agrees_with_condition_then_prob(self, d: Distribution, data):
        labels = data.draw(
            st.lists(st.sampled_from(d.space.outcomes), min_size=1, unique=True)
        )
        b = d.space.subset(*labels)
        a = d.space.subset(d.space.outcomes[0])
        assert conditional_prob(d, a, b) == pytest.approx(condition(d, b).prob(a))


_S = space_of(2)
_A = _S.subset("w0")
_CELLS = Partition.from_labels(_S, [("w0",), ("w1",)])


@pytest.mark.parametrize("build, code", [
    (lambda: Distribution(_S, [[0.5], [0.25, 0.25]]), "dist.length_mismatch"),
    (lambda: Distribution(_S, ["x", 0.5]), "dist.not_finite"),
    (lambda: Distribution(_S, "ab"), "dist.length_mismatch"),
    (lambda: Distribution(_S, [10**400, 0.0]), "dist.not_finite"),
    (lambda: RandomVariable(_S, [[1], [2, 3]]), "variable.not_total"),
    (lambda: JointDistribution(_S, _S, [["x", 0.5], [0.25, 0.25]]), "joint.not_finite"),
    (lambda: ForecastSystem(_S, (_A, _A.complement()), [[1], [2, 3]]),
     "forecast.length_mismatch"),
    (lambda: PartitionWeights(_CELLS, ("x", 1)), "constraint.not_finite"),
    (lambda: PartitionWeights(_CELLS, 0.5), "constraint.length_mismatch"),
    (lambda: EventProb(_A, "x"), "constraint.not_finite"),
    (lambda: EventProb(_A, None), "constraint.not_finite"),
    (lambda: EventProb(_A, 10**400), "constraint.not_finite"),
    (lambda: EvidenceScenario("x", 0.5, 0.5), "scenario.bad_probability"),
    (lambda: SolverOptions(tol="x"), "options.bad_tol"),
], ids=[
    "dist-ragged", "dist-string-entry", "dist-string", "dist-huge-int", "variable-ragged",
    "joint-string-entry", "forecast-ragged", "cells-string-entry", "cells-scalar",
    "event-prob-string", "event-prob-none", "event-prob-huge-int", "evidence-string",
    "options-string-tol",
])
def test_malformed_numbers_raise_the_kinds_code(build, code):
    with pytest.raises(ConstructionError) as ei:
        build()
    assert ei.value.code == code


_D = Distribution.uniform(_S)
_T = space_of(3)
_OTHER = _T.subset("w0")
_XY = SampleSpace(("x", "y"))  # the size of _S, other outcomes
_ON_XY = compile_all([EventProb(_XY.subset("x"), 0.3)], _XY)
_SPACE = "lives on a different sample space"


@pytest.mark.parametrize("call, code, message", [
    (lambda: _A.intersect(_OTHER), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: _A.difference(_OTHER), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: _A.issubset(_OTHER), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: _D.prob(_OTHER), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: condition(_D, _OTHER), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: conditional_prob(_D, _OTHER, _A), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: conditional_prob(_D, _A, _OTHER), "event.space_mismatch", f"event {_SPACE}"),
    (lambda: expectation(_D, RandomVariable(_T, (1.0, 2.0, 3.0))), "variable.space_mismatch",
     f"random variable {_SPACE}"),
    (lambda: compile_constraint(EventProb(_OTHER, 0.5), _S), "constraint.space_mismatch",
     f"constraint {_SPACE}"),
    (lambda: CondProb(_A, _OTHER, 0.5), "constraint.space_mismatch",
     f"conditioning event {_SPACE}"),
    (lambda: Partition((_A, _OTHER)), "partition.space_mismatch", f"partition cell {_SPACE}"),
    (lambda: ForecastSystem(_S, (_A, _OTHER), (0.5, 0.5)), "forecast.space_mismatch",
     f"forecast event {_SPACE}"),
    (lambda: triage_feasibility(compile_all([EventProb(_OTHER, 0.5)], _T), _D, 1e-10),
     "constraint.space_mismatch", f"constraint {_SPACE}"),
    (lambda: triage_feasibility(_ON_XY, _D, 1e-10), "constraint.space_mismatch",
     f"constraint {_SPACE}"),
    (lambda: residual(_D, _ON_XY), "constraint.space_mismatch", f"constraint {_SPACE}"),
    (lambda: relative_entropy(_D, Distribution.uniform(_T)), "dist.space_mismatch",
     f"posterior {_SPACE}"),
    (lambda: relative_entropy(_D, Distribution(_S, (1.0, 0.0))), "dist.outside_support",
     "posterior has mass on outcomes the prior excludes: ['w1']"),
    (lambda: marginal(JointDistribution.identity_coupling(_D), "diag"), "joint.bad_axis",
     "axis must be 'row' or 'col', got 'diag'"),
], ids=[
    "intersect", "difference", "issubset", "prob", "condition", "conditional-prob-target",
    "conditional-prob-given", "expectation", "compile-constraint", "cond-prob", "partition",
    "forecast-system", "triage", "triage-same-size", "residual-same-size", "relative-entropy-space",
    "relative-entropy-support", "marginal-axis",
])
def test_bad_arguments_raise_the_kinds_code(call, code, message):
    with pytest.raises(ConstructionError) as ei:
        call()
    assert ei.value.code == code
    assert str(ei.value) == message


def test_ragged_input_is_named_in_the_message():
    with pytest.raises(ConstructionError, match="^got ragged weights for 2 outcomes$"):
        Distribution(_S, [[0.5], [0.25, 0.25]])
    with pytest.raises(ConstructionError, match="^probability target must be finite, got 'x'$"):
        EventProb(_A, "x")


@pytest.mark.parametrize("call, code", [
    (lambda: EventProb(_A, "0.5"), "constraint.not_finite"),
    (lambda: PartitionWeights(_CELLS, ("0.25", "0.75")), "constraint.not_finite"),
    (lambda: Distribution(_S, ["0.25", "0.75"]), "dist.not_finite"),
    (lambda: Distribution(_S, [0.25, b"0.75"]), "dist.not_finite"),
    (lambda: Distribution(_S, [Fraction(1, 4), "0.75"]), "dist.not_finite"),
    (lambda: RandomVariable(_S, np.array(["1", "2"])), "variable.not_finite"),
    (lambda: self_information("0.5"), "information.bad_probability"),
    (lambda: SolverOptions(tol="1e-3"), "options.bad_tol"),
], ids=["event-prob", "partition-weights", "dist", "dist-bytes", "dist-mixed", "variable",
        "self-information", "tol"])
def test_text_is_not_a_number(call, code):
    # float() parses "0.5"; the library takes numbers only, as the scenario loader does
    with pytest.raises(ConstructionError) as ei:
        call()
    assert ei.value.code == code


def test_fractions_and_numpy_scalars_are_numbers():
    assert Distribution(_S, [Fraction(1, 4), np.float32(0.75)]).weights == (0.25, 0.75)
    assert EventProb(_A, Fraction(1, 2)).value == 0.5
    assert self_information(np.float64(0.5)) == pytest.approx(math.log(2.0))
    assert SolverOptions(tol=np.float32(0.5)).tol == 0.5


@pytest.mark.parametrize("value", [0, -1, 2.0, 2.5, True, "3", None, np.int64(3)])
def test_integer_rule_takes_an_int_at_least_the_bound(value):
    # a bool is an int to Python, but no count or index; nor is a numpy integer
    with pytest.raises(ConstructionError) as ei:
        _integer(value, "kind.bad_count", "count must be an int of at least 1", 1)
    assert ei.value.code == "kind.bad_count"
    assert str(ei.value) == f"count must be an int of at least 1, got {value!r}"


def test_integer_rule_returns_the_int():
    assert _integer(1, "kind.bad_count", "count must be an int of at least 1", 1) == 1
    assert _integer(10**30, "kind.bad_count", "count must be an int of at least 1", 1) == 10**30


def test_array_values_of_another_type_are_unequal():
    d = Distribution.uniform(_S)
    v = RandomVariable(_S, d.array)
    assert d.__eq__(v) is NotImplemented
    assert d != v and v != d
    assert d != "w0" and d != d.weights
    assert d == Distribution.uniform(_S) and hash(d) == hash(Distribution.uniform(_S))


def test_partition_weights_stay_a_tuple_of_floats():
    c = PartitionWeights(_CELLS, np.array([0.25, 0.75], dtype=np.float32))
    assert c.weights == (0.25, 0.75)
    assert all(type(w) is float for w in c.weights)


_cached_space = cache(space_of)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [3, 100, 8191, 8192, 8193, 100_000, 1 << 18])
def test_masks_give_the_bits_of_0_1_float_indicators(n, seed):
    # numpy casts a bool operand in buffers of 8192 elements, so n crosses one
    rng = np.random.default_rng([seed, n])
    s = _cached_space(n)
    w = rng.random(n)
    w[rng.random(n) < 0.1] = 0.0
    w[-1] = 0.5  # every event below holds the last outcome, so none is massless
    prior = Distribution(s, w / w.sum())

    def event(density):
        mask = rng.random(n) < density
        mask[-1] = True
        return Event(s, [s.outcomes[i] for i in np.flatnonzero(mask).tolist()])

    e, g, t = event(0.3), event(0.6), event(0.5)
    F = {x: x.indicator.astype(float) for x in (e, g, t)}

    assert prior.prob(e) == float(prior.array @ F[e])
    assert np.array_equal(condition(prior, e).array,
                          _reweight(prior, (F[e],), (1.0,), (float(prior.array @ F[e]),)).array)
    report = maxent_update(prior, [EventProb(e, 1.0)])  # conditions on the pinned support
    live = (prior.support & e.indicator).astype(float)
    assert report.method == "conditionalization"
    assert np.array_equal(report.posterior.array,
                          _reweight(prior, (live,), (1.0,), (prior.array @ live,)).array)

    labels = rng.integers(4, size=n)
    labels[:4] = np.arange(4)[:n]
    part = Partition.from_labels(s, [[s.outcomes[i] for i in np.flatnonzero(labels == k)]
                                     for k in range(min(n, 4))])
    cells = [c.indicator.astype(float) for c in part.cells]
    masses = [float(prior.array @ c) for c in cells]
    weights = rng.random(len(cells)) * (np.array(masses) > 0.0)
    weights = (weights / weights.sum()).tolist()
    total = math.fsum(weights)
    assert np.array_equal(
        jeffrey_update(prior, part, weights).array,
        _reweight(prior, cells, [x / total for x in weights], masses).array)

    ((coeffs, _),) = compile_constraint(CondProb(t, g, 0.3), s)
    assert np.array_equal(coeffs, F[t] * F[g] - 0.3 * F[g])

    events = (e, g, t, e.complement(), g.difference(t))
    fs = ForecastSystem(s, events, rng.random(len(events)))
    D = np.array([x.indicator.astype(float) for x in events]).T.copy() - fs.array
    assert np.array_equal(world_losses(fs, fs.array), _row_dots(D, D))
