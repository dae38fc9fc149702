import numpy as np
import pytest
from numpy.testing import assert_allclose

from relent.axioms import (
    AxiomReport,
    CellInfo,
    check_axiom4_full,
    check_axiom4b,
    random_reweighting_case as random_case,
)
from relent.constraints import CondProb, EventProb, Expectation, PartitionWeights
from relent.errors import ConstructionError, InfeasibleConstraint, ZeroMassEvent
from relent.solver import maxent_update
from relent.spaces import (
    Distribution,
    Partition,
    RandomVariable,
    SampleSpace,
    condition,
    conditional_prob,
)

DIE = SampleSpace(tuple(f"face{k}" for k in range(1, 7)))
EVEN_ODD = Partition.from_labels(DIE, [("face2", "face4", "face6"), ("face1", "face3", "face5")])

TIGER_SPACE = SampleSpace(("tiger_door1", "tiger_door2", "clear_door1", "clear_door2"))
TIGER_PRIOR = Distribution(TIGER_SPACE, (0.2, 0.3, 0.3, 0.2))
TIGER = TIGER_SPACE.subset("tiger_door1", "tiger_door2")
TIGER_PART = Partition((TIGER, TIGER.complement()))


class TestCellInfo:
    def test_rejects_negative_index(self):
        with pytest.raises(ConstructionError) as ei:
            CellInfo(-1, ())
        assert ei.value.code == "cellinfo.bad_index"

    @pytest.mark.parametrize("index", [1.5, "1", True], ids=["float", "string", "bool"])
    def test_rejects_an_index_that_is_not_an_int(self, index):
        with pytest.raises(ConstructionError) as ei:
            CellInfo(index, ())
        assert ei.value.code == "cellinfo.bad_index"
        assert str(ei.value) == f"cell_index must be an int >= 0, got {index!r}"

    def test_rejects_expectation(self):
        f = RandomVariable(DIE, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        with pytest.raises(ConstructionError) as ei:
            CellInfo(0, (Expectation(f, 3.0),))
        assert ei.value.code == "cellinfo.unsupported_kind"

    def test_accepts_event_pins(self):
        info = CellInfo(0, (EventProb(DIE.subset("face2"), 0.5),))
        assert info.cell_index == 0


class TestAxiomReport:
    def test_valid_report(self):
        rep = AxiomReport(tol=1e-8, per_cell=())
        assert rep.max_deviation == 0.0
        assert rep.passed
        rep = AxiomReport(tol=1e-8, per_cell=((0, 1e-9), (1, 1.0)))
        assert rep.max_deviation == 1.0
        assert not rep.passed


class TestAxiom4b:
    def test_die_reweighting_preserves_face_odds(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        rep = check_axiom4b(prior, EVEN_ODD, m, tol=1e-9)
        assert rep.passed
        assert rep.max_deviation <= 1e-9
        assert rep.skipped_cells == ()
        # spot check the headline number: P(face2 | even) stays 1/3
        post = maxent_update(prior, [m]).posterior
        assert conditional_prob(post, DIE.subset("face2"), EVEN_ODD.cells[0]) == pytest.approx(
            1.0 / 3.0, abs=1e-9
        )

    def test_no_op_weights_give_exactly_zero_deviation(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.5, 0.5))
        rep = check_axiom4b(prior, EVEN_ODD, m, tol=1e-12)
        assert rep.max_deviation == 0.0
        assert rep.passed

    def test_tiger_scenario(self):
        m = PartitionWeights(TIGER_PART, (0.8, 0.2))
        rep = check_axiom4b(TIGER_PRIOR, TIGER_PART, m, tol=1e-9)
        assert rep.passed
        post = maxent_update(TIGER_PRIOR, [m]).posterior
        door1 = TIGER_SPACE.subset("tiger_door1")
        before = conditional_prob(TIGER_PRIOR, door1, TIGER)
        after = conditional_prob(post, door1, TIGER)
        assert after == pytest.approx(before, abs=1e-9)
        assert before == pytest.approx(0.4)

    def test_zero_weight_cell_is_skipped_and_flagged(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (1.0, 0.0))
        rep = check_axiom4b(prior, EVEN_ODD, m, tol=1e-9)
        assert rep.skipped_cells == (1,)
        assert rep.passed

    def test_partition_mismatch_rejected(self):
        other = Partition.from_labels(DIE, [tuple(DIE.outcomes[:1]), tuple(DIE.outcomes[1:])])
        m = PartitionWeights(other, (0.5, 0.5))
        with pytest.raises(ConstructionError) as ei:
            check_axiom4b(Distribution.uniform(DIE), EVEN_ODD, m, tol=1e-9)
        assert ei.value.code == "axiom.partition_mismatch"

    def test_infeasible_weights_propagate(self):
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.5, 0.5, 0.0))
        part = Partition.from_labels(s, [("a", "b"), ("c",)])
        m = PartitionWeights(part, (0.7, 0.3))
        with pytest.raises(InfeasibleConstraint):
            check_axiom4b(prior, part, m, tol=1e-9)

    def test_seed_is_ignored(self):
        prior = Distribution(DIE, (0.1, 0.15, 0.2, 0.25, 0.2, 0.1))
        m = PartitionWeights(EVEN_ODD, (0.6, 0.4))
        a = check_axiom4b(prior, EVEN_ODD, m, tol=1e-9, seed=1)
        b = check_axiom4b(prior, EVEN_ODD, m, tol=1e-9, seed=42)
        assert a == b

    def test_randomized_triples(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            prior, part, m = random_case(rng)
            rep = check_axiom4b(prior, part, m, tol=1e-8, seed=trial)
            assert rep.passed, f"trial {trial}: deviation {rep.max_deviation}"

    def test_relabeling_invariance_at_tolerance(self):
        # the property should not depend on how outcomes are named/ordered
        prior = Distribution(DIE, (0.1, 0.15, 0.2, 0.25, 0.2, 0.1))
        m = PartitionWeights(EVEN_ODD, (0.7, 0.3))
        rep = check_axiom4b(prior, EVEN_ODD, m, tol=1e-8)

        perm = [3, 0, 5, 2, 1, 4]
        space2 = SampleSpace(tuple(DIE.outcomes[i] for i in perm))
        prior2 = Distribution(space2, tuple(prior.weights[i] for i in perm))
        part2 = Partition.from_labels(
            space2, [sorted(c.members) for c in EVEN_ODD.cells]
        )
        m2 = PartitionWeights(part2, (0.7, 0.3))
        rep2 = check_axiom4b(prior2, part2, m2, tol=1e-8)
        assert rep.passed and rep2.passed
        assert rep.max_deviation <= 1e-10 and rep2.max_deviation <= 1e-10


class TestAxiom4Full:
    def test_empty_infos_reduce_to_cell_reweighting(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        rep = check_axiom4_full(prior, EVEN_ODD, m, [], tol=1e-9)
        assert rep.passed
        # both sides must equal the conditional prior of each cell
        post = maxent_update(prior, [m]).posterior
        for cell in EVEN_ODD.cells:
            assert_allclose(
                condition(post, cell).array, condition(prior, cell).array, atol=1e-9
            )

    def test_within_cell_pin_on_die(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        infos = [CellInfo(0, (EventProb(DIE.subset("face2"), 0.5),))]
        rep = check_axiom4_full(prior, EVEN_ODD, m, infos, tol=1e-8)
        assert rep.passed
        assert rep.max_deviation <= 1e-8
        assert dict(rep.per_cell).keys() == {0, 1}

    def test_left_side_actually_moves(self):
        # guard against a trivially-true comparison: the joint update must
        # land on the analytically expected posterior
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        infos = [CellInfo(0, (EventProb(DIE.subset("face2"), 0.5),))]
        full = [m] + [CondProb(DIE.subset("face2"), EVEN_ODD.cells[0], 0.5)]
        post = maxent_update(prior, full).posterior
        expected = {
            "face2": 0.4,
            "face4": 0.2,
            "face6": 0.2,
            "face1": 0.2 / 3,
            "face3": 0.2 / 3,
            "face5": 0.2 / 3,
        }
        assert_allclose(
            post.array, [expected[x] for x in DIE.outcomes], rtol=0, atol=1e-8
        )
        assert rep_passed(check_axiom4_full(prior, EVEN_ODD, m, infos, tol=1e-8))

    def test_single_cell_partition_is_identity_relativization(self):
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.2, 0.3, 0.5))
        whole = Partition((s.whole(),))
        m = PartitionWeights(whole, (1.0,))
        infos = [CellInfo(0, (EventProb(s.subset("a"), 0.4),))]
        rep = check_axiom4_full(prior, whole, m, infos, tol=1e-8)
        assert rep.passed
        left = maxent_update(prior, [m, CondProb(s.subset("a"), s.whole(), 0.4)]).posterior
        right = maxent_update(prior, [EventProb(s.subset("a"), 0.4)]).posterior
        assert_allclose(left.array, right.array, atol=1e-8)

    def test_conditional_constraint_inside_cell(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.6, 0.4))
        inside = CondProb(DIE.subset("face2"), DIE.subset("face2", "face4"), 0.75)
        rep = check_axiom4_full(prior, EVEN_ODD, m, [CellInfo(0, (inside,))], tol=1e-8)
        assert rep.passed

    def test_event_outside_cell_rejected(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        infos = [CellInfo(1, (EventProb(DIE.subset("face2"), 0.5),))]  # face2 is even
        with pytest.raises(ConstructionError) as ei:
            check_axiom4_full(prior, EVEN_ODD, m, infos, tol=1e-8)
        assert ei.value.code == "cellinfo.event_outside_cell"

    def test_conditional_outside_cell_rejected(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        leaves = CondProb(DIE.subset("face2"), DIE.subset("face1", "face2"), 0.5)  # face1 is odd
        with pytest.raises(ConstructionError) as ei:
            check_axiom4_full(prior, EVEN_ODD, m, [CellInfo(0, (leaves,))], tol=1e-8)
        assert ei.value.code == "cellinfo.event_outside_cell"

    def test_out_of_range_cell_index_rejected(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (0.8, 0.2))
        with pytest.raises(ConstructionError) as ei:
            check_axiom4_full(prior, EVEN_ODD, m, [CellInfo(5, ())], tol=1e-8)
        assert ei.value.code == "cellinfo.bad_index"

    def test_zero_mass_cell_rejected(self):
        # the joint update gives c mass 0.3, but its conditional prior is undefined
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.5, 0.5 - 1e-13, 1e-13))
        part = Partition.from_labels(s, [("a", "b"), ("c",)])
        m = PartitionWeights(part, (0.7, 0.3))
        with pytest.raises(ZeroMassEvent):
            check_axiom4_full(prior, part, m, [], tol=1e-8)

    def test_zero_mass_zero_weight_cell_skipped(self):
        s = SampleSpace(("a", "b", "c"))
        prior = Distribution(s, (0.5, 0.5, 0.0))
        part = Partition.from_labels(s, [("a", "b"), ("c",)])
        m = PartitionWeights(part, (1.0, 0.0))
        rep = check_axiom4_full(prior, part, m, [], tol=1e-8)
        assert rep.skipped_cells == (1,)
        assert [i for i, _ in rep.per_cell] == [0]

    def test_zero_weight_cell_skipped(self):
        prior = Distribution.uniform(DIE)
        m = PartitionWeights(EVEN_ODD, (1.0, 0.0))
        rep = check_axiom4_full(prior, EVEN_ODD, m, [], tol=1e-8)
        assert rep.skipped_cells == (1,)
        assert rep.passed

    def test_randomized_cases_with_feasible_infos(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            prior, part, m = random_case(rng, n_max=8)
            events, conditionals = [], []
            for i, cell in enumerate(part.cells[:2]):
                members = cell.labels
                if len(members) < 2:
                    continue
                a = prior.space.subset(members[0])
                v = float(rng.uniform(0.1, 0.9))
                events.append(CellInfo(i, (EventProb(a, v),)))
                conditionals.append(CellInfo(i, (CondProb(a, cell, v),)))  # the same pin
            for infos in (events, conditionals):
                rep = check_axiom4_full(prior, part, m, infos, tol=1e-8)
                assert rep.passed, f"trial {trial}: deviation {rep.max_deviation}"


class TestCellScore:
    """A cell's score is the largest change in probability of any event inside it."""

    @staticmethod
    def worst_event(post, before, cell):
        members = cell.labels
        worst = 0.0
        for bits in range(1, 2 ** len(members)):
            a = post.space.subset(*(x for k, x in enumerate(members) if bits >> k & 1))
            change = conditional_prob(post, a, cell) - conditional_prob(before, a, cell)
            worst = max(worst, abs(change))
        return worst

    def test_equals_the_worst_event(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            prior, part, m = random_case(rng, n_max=8)
            post = maxent_update(prior, [m]).posterior
            rep = check_axiom4b(prior, part, m, tol=1e-8)
            assert [i for i, _ in rep.per_cell] == list(range(len(part.cells)))
            for i, score in rep.per_cell:
                cell = part.cells[i]
                oracle = self.worst_event(post, prior, cell)
                assert abs(score - oracle) <= 1e-15, f"trial {trial}, cell {i}"

    def test_equals_the_worst_event_for_a_rule_that_moves_conditionals(self, monkeypatch):
        # a rival right side (the conditional prior raised to the power 1.5) makes
        # every score large, so the formula is tested away from rounding level
        def rival(prior, constraints):
            if constraints:
                return maxent_update(prior, constraints)
            w = prior.array ** 1.5
            return maxent_update(Distribution.from_array(prior.space, w / w.sum()), [])

        monkeypatch.setattr("relent.axioms.maxent_update", rival)
        rng = np.random.default_rng(32)
        for trial in range(30):
            prior, part, m = random_case(rng, n_max=8)
            post = maxent_update(prior, [m]).posterior
            rep = check_axiom4b(prior, part, m, tol=1e-8)
            for i, score in rep.per_cell:
                cell = part.cells[i]
                right = rival(condition(prior, cell), []).posterior
                oracle = self.worst_event(post, right, cell)
                assert abs(score - oracle) <= 1e-15, f"trial {trial}, cell {i}"
            assert rep.max_deviation > 1e-3 or all(len(c.labels) == 1 for c in part.cells)


def rep_passed(rep: AxiomReport) -> bool:
    return rep.passed


class TestArguments:
    """The axiom helpers check their numbers with the spaces rules, and give their own codes."""

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"), "1e-8", None])
    @pytest.mark.parametrize("check", [
        lambda tol: check_axiom4b(Distribution.uniform(DIE), EVEN_ODD,
                                  PartitionWeights(EVEN_ODD, (0.8, 0.2)), tol),
        lambda tol: check_axiom4_full(Distribution.uniform(DIE), EVEN_ODD,
                                      PartitionWeights(EVEN_ODD, (0.8, 0.2)), (), tol),
    ], ids=["4b", "4full"])
    def test_tol_must_be_finite_and_nonnegative(self, check, tol):
        # a negative or NaN tol would fail every check
        with pytest.raises(ConstructionError) as ei:
            check(tol)
        assert ei.value.code == "axiom.bad_tol"
        assert str(ei.value).startswith("tol must be nonnegative, got ")

    def test_zero_tol_is_exactness(self):
        m = PartitionWeights(EVEN_ODD, (0.5, 0.5))  # the prior already meets it: no move
        rep = check_axiom4b(Distribution.uniform(DIE), EVEN_ODD, m, 0)
        assert rep.tol == 0.0 and rep.passed

    @pytest.mark.parametrize("n_max", [1, 0, -3, True, 2.5, "10", None])
    def test_n_max_must_be_an_int_of_at_least_2(self, n_max):
        # 1, 0 and True used to reach numpy's bare "low >= high"; 2.5 was taken
        with pytest.raises(ConstructionError) as ei:
            random_case(np.random.default_rng(0), n_max)
        assert ei.value.code == "axiom.bad_n_max"
        assert str(ei.value) == f"n_max must be an int of at least 2, got {n_max!r}"

    def test_n_max_of_2_draws_two_outcomes(self):
        prior, part, _ = random_case(np.random.default_rng(0), 2)
        assert len(prior.space) == 2 and len(part.cells) == 2
