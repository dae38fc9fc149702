import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relent.certainty_factors import (
    EvidenceScenario,
    cf_approx_posterior,
    divergence_curve,
    jeffrey_posterior,
)
from relent.errors import ConstructionError
from relent.solver import jeffrey_update
from relent.spaces import Distribution, Partition, SampleSpace

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestScenario:
    def test_fields_validated(self):
        with pytest.raises(ConstructionError) as ei:
            EvidenceScenario(1.2, 0.3, 0.5)
        assert ei.value.code == "scenario.bad_probability"
        with pytest.raises(ConstructionError):
            EvidenceScenario(0.5, -0.1, 0.5)
        with pytest.raises(ConstructionError):
            EvidenceScenario(0.5, 0.3, float("nan"))


class TestPosteriors:
    def test_worked_example(self):
        sc = EvidenceScenario(0.9, 0.3, 0.8)
        assert jeffrey_posterior(sc) == pytest.approx(0.78)
        assert cf_approx_posterior(sc) == pytest.approx(0.72)

    @given(probs, probs)
    def test_certain_evidence_collapses_both(self, a, b):
        sc = EvidenceScenario(a, b, 1.0)
        assert jeffrey_posterior(sc) == pytest.approx(a)
        assert cf_approx_posterior(sc) == pytest.approx(a)

    @given(probs, probs)
    def test_certain_absence(self, a, b):
        sc = EvidenceScenario(a, b, 0.0)
        assert jeffrey_posterior(sc) == pytest.approx(b)
        assert cf_approx_posterior(sc) == 0.0


class TestDivergenceCurve:
    def test_worked_example(self):
        pts = divergence_curve(0.9, 0.3, (0.8,))
        assert pts == ((0.8, pytest.approx(0.06)),)

    def test_zero_at_certainty(self):
        ((q, d),) = divergence_curve(0.37, 0.81, (1.0,))
        assert q == 1.0
        assert d == 0.0

    @given(probs, probs, st.lists(probs, min_size=1, max_size=10))
    def test_closed_form(self, a, b, grid):
        for q, d in divergence_curve(a, b, grid):
            assert d == pytest.approx(b * (1.0 - q), abs=1e-12)

    @given(probs, probs)
    def test_monotone_non_increasing_in_q(self, a, b):
        grid = [i / 20 for i in range(21)]
        ds = [d for _, d in divergence_curve(a, b, grid)]
        assert all(x >= y - 1e-15 for x, y in zip(ds, ds[1:]))

    @given(probs)
    def test_exact_when_hypothesis_needs_evidence(self, a):
        # P(H | not E) = 0 makes the shortcut exact everywhere
        for _, d in divergence_curve(a, 0.0, [i / 10 for i in range(11)]):
            assert d == 0.0

    def test_grid_values_validated(self):
        with pytest.raises(ConstructionError) as ei:
            divergence_curve(0.5, 0.5, (0.5, 1.5))
        assert ei.value.code == "scenario.bad_probability"

    @pytest.mark.parametrize("grid", [(), (0.5,)], ids=["empty", "one_value"])
    def test_conditionals_validated_on_any_grid(self, grid):
        for conditionals in ((5.0, 0.3), (0.9, -0.1)):
            with pytest.raises(ConstructionError) as ei:
                divergence_curve(*conditionals, grid)
            with pytest.raises(ConstructionError) as direct:
                EvidenceScenario(*conditionals, 0.5)
            assert ei.value.code == "scenario.bad_probability"
            assert str(ei.value) == str(direct.value)

    @pytest.mark.parametrize("bad", ["x", None, [0.5]], ids=["string", "none", "list"])
    def test_non_numeric_grid_values_have_the_code(self, bad):
        with pytest.raises(ConstructionError) as ei:
            divergence_curve(0.9, 0.3, [0.5, bad])
        assert ei.value.code == "scenario.bad_probability"
        assert str(ei.value).startswith("each q grid value must be a probability in [0, 1], got ")


class TestSolverTieBack:
    def test_jeffrey_posterior_matches_real_updates(self):
        # the scalar formula must agree with an actual partition update
        # on the four-way space of hypothesis times evidence
        rng = np.random.default_rng(99)
        space = SampleSpace(("h_e", "nh_e", "h_ne", "nh_ne"))
        h = space.subset("h_e", "h_ne")
        e = space.subset("h_e", "nh_e")
        part = Partition((e, e.complement()))
        for _ in range(100):
            p_he = float(rng.uniform(0.05, 0.95))
            p_hne = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.05, 0.95))
            e0 = float(rng.uniform(0.2, 0.8))  # prior P(E); must not matter
            prior = Distribution(
                space,
                (
                    p_he * e0,
                    (1.0 - p_he) * e0,
                    p_hne * (1.0 - e0),
                    (1.0 - p_hne) * (1.0 - e0),
                ),
            )
            post = jeffrey_update(prior, part, (q, 1.0 - q))
            sc = EvidenceScenario(p_he, p_hne, q)
            assert post.prob(h) == pytest.approx(jeffrey_posterior(sc), abs=1e-9)
