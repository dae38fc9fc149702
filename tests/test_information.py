import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relent.errors import ConstructionError
from relent.information import (
    conditional_entropy,
    entropy,
    mutual_information,
    relative_entropy,
    self_information,
)
from relent.spaces import Distribution, JointDistribution, SampleSpace, marginal

from conftest import distributions, positive_distributions, space_of

LN2 = 0.69314718055994530942


class TestSelfInformation:
    def test_certain_event_carries_nothing(self):
        assert self_information(1.0) == 0.0

    def test_half(self):
        assert self_information(0.5) == pytest.approx(LN2, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.0000001, float("nan"), float("inf")])
    def test_domain_enforced(self, bad):
        with pytest.raises(ConstructionError) as ei:
            self_information(bad)
        assert ei.value.code == "information.bad_probability"
        assert str(ei.value) == f"self-information needs a probability in (0, 1], got {bad!r}"

    @pytest.mark.parametrize("bad", ["x", None, [0.5], 10**400],
                             ids=["string", "none", "list", "huge_int"])
    def test_no_builtin_error_leaks(self, bad):
        with pytest.raises(ConstructionError) as ei:
            self_information(bad)
        assert ei.value.code == "information.bad_probability"

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_additive_over_independent_events(self, p, q):
        assert self_information(p * q) == pytest.approx(
            self_information(p) + self_information(q), rel=1e-9, abs=1e-9
        )

    @given(st.floats(min_value=1e-9, max_value=1.0))
    def test_nonnegative(self, p):
        assert self_information(p) >= 0.0


class TestEntropy:
    def test_frozen_value(self):
        d = Distribution(space_of(3), (0.5, 0.25, 0.25))
        assert entropy(d) == pytest.approx(1.0397207708399179641, abs=1e-15)

    def test_point_mass_has_zero_entropy(self):
        d = Distribution(space_of(3), (0.0, 1.0, 0.0))
        assert entropy(d) == 0.0

    @given(st.integers(min_value=1, max_value=16))
    def test_uniform_attains_log_n(self, n):
        d = Distribution.uniform(space_of(n))
        assert entropy(d) == pytest.approx(math.log(n), abs=1e-12)

    @given(distributions())
    def test_bounds(self, d):
        h = entropy(d)
        assert -1e-12 <= h <= math.log(len(d.space)) + 1e-12


class TestRelativeEntropy:
    def test_frozen_value(self):
        s = space_of(2)
        post = Distribution(s, (0.8, 0.2))
        prior = Distribution.uniform(s)
        assert relative_entropy(post, prior) == pytest.approx(
            -0.19274475702175742988, abs=1e-15
        )

    def test_zero_at_equality(self):
        d = Distribution(space_of(3), (0.2, 0.3, 0.5))
        assert relative_entropy(d, d) == 0.0

    def test_support_escape_rejected(self):
        s = space_of(2)
        post = Distribution(s, (0.5, 0.5))
        prior = Distribution(s, (1.0, 0.0))
        with pytest.raises(ConstructionError) as ei:
            relative_entropy(post, prior)
        assert ei.value.code == "dist.outside_support"

    def test_posterior_may_drop_support(self):
        s = space_of(2)
        post = Distribution(s, (1.0, 0.0))
        prior = Distribution(s, (0.5, 0.5))
        assert relative_entropy(post, prior) == pytest.approx(-LN2, abs=1e-15)

    def test_space_mismatch_rejected(self):
        with pytest.raises(ConstructionError) as ei:
            relative_entropy(
                Distribution.uniform(space_of(2)),
                Distribution.uniform(SampleSpace(("x", "y"))),
            )
        assert ei.value.code == "dist.space_mismatch"

    @given(positive_distributions(), st.data())
    def test_nonpositive(self, prior, data):
        n = len(prior.space)
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
            )
        )
        arr = np.array(raw)
        post = Distribution.from_array(prior.space, arr / arr.sum())
        assert relative_entropy(post, prior) <= 1e-12


class TestConditionalEntropy:
    def test_frozen_value(self):
        s = space_of(2)
        j = JointDistribution(s, s, ((0.4, 0.1), (0.1, 0.4)))
        assert conditional_entropy(j) == pytest.approx(0.50040242353818787953, abs=1e-15)

    def test_independent_joint_learns_nothing(self):
        p = Distribution(space_of(3), (0.5, 0.25, 0.25))
        q = Distribution(space_of(2), (0.3, 0.7))
        j = JointDistribution.independent(p, q)
        assert conditional_entropy(j) == pytest.approx(entropy(p), abs=1e-12)

    def test_identity_coupling_determines_row(self):
        d = Distribution(space_of(3), (0.2, 0.3, 0.5))
        assert conditional_entropy(JointDistribution.identity_coupling(d)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_zero_mass_column_ignored(self):
        s3, s2 = space_of(3), space_of(2)
        j = JointDistribution(s2, s3, ((0.4, 0.1, 0.0), (0.1, 0.4, 0.0)))
        j2 = JointDistribution(s2, s2, ((0.4, 0.1), (0.1, 0.4)))
        assert conditional_entropy(j) == pytest.approx(conditional_entropy(j2), abs=1e-15)


class TestMutualInformation:
    def test_frozen_value(self):
        s = space_of(2)
        j = JointDistribution(s, s, ((0.4, 0.1), (0.1, 0.4)))
        assert mutual_information(j) == pytest.approx(0.19274475702175742988, abs=1e-15)

    def test_independence_gives_zero(self):
        p = Distribution(space_of(3), (0.5, 0.3, 0.2))
        q = Distribution(space_of(4), (0.1, 0.2, 0.3, 0.4))
        assert mutual_information(JointDistribution.independent(p, q)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_self_information_of_a_variable_is_its_entropy(self):
        # observing a variable tells you exactly its own entropy
        d = Distribution(space_of(4), (0.1, 0.2, 0.3, 0.4))
        j = JointDistribution.identity_coupling(d)
        assert mutual_information(j) == pytest.approx(entropy(d), abs=1e-12)

    @given(positive_distributions(min_size=2, max_size=4), st.data())
    def test_nonnegative_and_symmetric(self, rows, data):
        nr = len(rows.space)
        nc = data.draw(st.integers(min_value=2, max_value=4))
        cols = space_of(nc) if nc != nr else rows.space
        mat = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=nc, max_size=nc),
                    min_size=nr,
                    max_size=nr,
                )
            )
        )
        mat = mat / mat.sum()
        j = JointDistribution.from_array(rows.space, cols, mat)
        jt = JointDistribution.from_array(cols, rows.space, mat.T)
        mi = mutual_information(j)
        assert mi >= -1e-10
        assert mi == pytest.approx(mutual_information(jt), abs=1e-10)
        # never more informative than either marginal is entropic
        assert mi <= entropy(marginal(j, "row")) + 1e-10
        assert mi <= entropy(marginal(j, "col")) + 1e-10
