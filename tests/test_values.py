"""The value contract every frozen relent type keeps: construction, text, equality, hashing.

Each class is built positionally and by keyword, prints as ``Name(field=value, ...)``,
compares and hashes by its fields (``Distribution`` by its array, ``System`` by identity),
refuses assignment and deletion, and checks its fields after they are set.
"""

from __future__ import annotations

import numpy as np
import pytest

from relent.constraints import EventProb, System, Witness, compile_all
from relent.errors import ConstructionError
from relent.scenario import EntropyQuery, Scenario
from relent.solver import SolverOptions
from relent.spaces import Distribution, Event, SampleSpace

AB = SampleSpace(("a", "b"))
AB_REPR = "SampleSpace(outcomes=('a', 'b'))"


def _frozen(value, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)


class TestSolverOptions:
    def test_defaults_positions_and_keywords_agree(self):
        assert SolverOptions() == SolverOptions(1e-10, 200, True)
        assert SolverOptions(1e-6, max_iter=5) == SolverOptions(max_iter=5, tol=1e-6)
        assert SolverOptions(use_fast_paths=False).use_fast_paths is False

    def test_repr_eq_and_hash(self):
        opts = SolverOptions(1e-8, 50)
        assert repr(opts) == "SolverOptions(tol=1e-08, max_iter=50, use_fast_paths=True)"
        assert opts == opts and not opts != SolverOptions(1e-8, 50)
        assert opts != SolverOptions(1e-8, 51)
        assert opts.__eq__((1e-8, 50, True)) is NotImplemented
        assert hash(opts) == hash((1e-8, 50, True)) == hash(SolverOptions(1e-8, 50))

    def test_frozen(self):
        _frozen(SolverOptions(), "tol")
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            SolverOptions().extra = 1

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError, match="positional argument"):
            SolverOptions(1e-10, 200, True, 4)
        with pytest.raises(TypeError, match="unexpected keyword argument 'tolerance'"):
            SolverOptions(tolerance=1e-10)
        with pytest.raises(TypeError, match="multiple values for argument 'tol'"):
            SolverOptions(1e-10, tol=1e-9)

    def test_fields_are_checked_after_they_are_set(self):
        with pytest.raises(ConstructionError) as exc:
            SolverOptions(max_iter=0)
        assert exc.value.code == "options.bad_max_iter"
        assert SolverOptions(tol=1).tol == 1.0 and type(SolverOptions(tol=1).tol) is float


class TestScenario:
    PRIOR = Distribution.uniform(AB)

    def test_keywords_and_defaults(self):
        sc = Scenario(space=AB, prior=self.PRIOR, constraints=())
        assert (sc.queries, sc.forecasts) == ((), None)
        assert sc == Scenario(AB, self.PRIOR, (), (), None)
        assert sc != Scenario(AB, self.PRIOR, (), (EntropyQuery(),))
        assert hash(sc) == hash((AB, self.PRIOR, (), (), None))

    def test_repr(self):
        sc = Scenario(AB, self.PRIOR, (), queries=(EntropyQuery(),))
        assert repr(sc) == (
            f"Scenario(space={AB_REPR}, prior=Distribution(space={AB_REPR}, "
            "array=array([0.5, 0.5])), constraints=(), queries=(EntropyQuery(),), "
            "forecasts=None)")
        assert EntropyQuery() == EntropyQuery() and hash(EntropyQuery()) == hash(())

    def test_a_missing_argument_raises_type_error(self):
        with pytest.raises(TypeError, match="'constraints'"):
            Scenario(AB, self.PRIOR)
        _frozen(Scenario(AB, self.PRIOR, ()), "queries")


class TestWitness:
    def test_repr_eq_and_hash(self):
        w = Witness((0, 2), (1.0, -0.5), 0.25, 0.5, 1.0)
        assert repr(w) == "Witness(rows=(0, 2), stake=(1.0, -0.5), payoff=0.25, lo=0.5, hi=1.0)"
        assert w == Witness(rows=(0, 2), stake=(1.0, -0.5), payoff=0.25, lo=0.5, hi=1.0)
        assert w != Witness((0, 2), (1.0, -0.5), 0.25, 0.5, 2.0)
        assert hash(w) == hash(((0, 2), (1.0, -0.5), 0.25, 0.5, 1.0))
        _frozen(w, "stake")


class TestSystem:
    def test_equality_is_identity(self):
        constraints = [EventProb(AB.subset("a"), 0.25)]
        system, again = compile_all(constraints, AB), compile_all(constraints, AB)
        assert system == system and system != again
        assert hash(system) == object.__hash__(system)
        _frozen(system, "A")

    def test_repr(self):
        system = System(AB, np.eye(2)[:1], np.array([0.25]), (0,), (0,), (None,))
        assert repr(system) == (
            f"System(space={AB_REPR}, A=array([[1., 0.]]), b=array([0.25]), index=(0,), "
            "source=(0,), given=(None,))")


class TestDistribution:
    def test_equality_and_hash_read_the_array(self):
        d = Distribution(AB, [0.25, 0.75])
        assert d == Distribution(space=AB, array=(0.25, 0.75))
        assert d != Distribution(AB, [0.75, 0.25])
        assert d.__eq__(Event(AB, ["a"])) is NotImplemented
        assert hash(d) == hash(((AB,), (0.25, 0.75)))
        assert repr(d) == f"Distribution(space={AB_REPR}, array=array([0.25, 0.75]))"
        _frozen(d, "array")

    def test_weights_are_checked_after_they_are_set(self):
        with pytest.raises(ConstructionError) as exc:
            Distribution(AB, [0.5, 0.6])
        assert exc.value.code == "dist.sum_not_one"
        with pytest.raises(TypeError, match="'array'"):
            Distribution(AB)


class TestEvent:
    def test_its_own_constructor_takes_labels(self):
        e = Event(AB, ["b"])
        assert e == Event(space=AB, members=("b",)) and e != Event(AB, ["a"])
        assert e.complement() == Event(AB, ["a"])
        assert hash(e) == hash(((AB,), (False, True)))
        assert repr(e) == f"Event(space={AB_REPR}, indicator=array([False,  True]))"
        _frozen(e, "indicator")
        with pytest.raises(TypeError):
            Event(AB)

    def test_sample_space_keeps_its_cached_index(self):
        space = SampleSpace(["x", "y"])
        assert space.outcomes == ("x", "y") and space.index == {"x": 0, "y": 1}
        assert space == SampleSpace(("x", "y")) and hash(space) == hash((("x", "y"),))
        _frozen(space, "outcomes")

