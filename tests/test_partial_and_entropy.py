"""Unit tests for the partial-cleaning and entropy-objective extensions."""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim
from repro.core.entropy import (
    GreedyMinEntropy,
    entropy_of_pmf,
    expected_entropy,
    result_entropy,
)
from repro.core.expected_variance import linear_expected_variance
from repro.core.partial import (
    GreedyPartialMinVar,
    partial_linear_expected_variance,
    partially_cleaned,
    shrink_distribution,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution, NormalSpec
from repro.uncertainty.objects import UncertainObject
from reference.entropy import (
    entropy_of_pmf_scalar,
    expected_entropy_scalar,
    result_entropy_scalar,
)


def discrete_obj(cost=1.0):
    return UncertainObject(
        "d", 10.0, DiscreteDistribution([8.0, 10.0, 12.0], [0.25, 0.5, 0.25]), cost=cost
    )


def normal_obj(cost=1.0):
    return UncertainObject("n", 50.0, NormalSpec(mean=50.0, std=4.0), cost=cost)


class TestShrinkDistribution:
    def test_rho_zero_is_full_cleaning(self):
        shrunk = shrink_distribution(discrete_obj(), 9.0, rho=0.0)
        assert shrunk.is_certain()
        assert shrunk.current_value == 9.0

    def test_variance_scales_with_rho_squared_discrete(self):
        obj = discrete_obj()
        shrunk = shrink_distribution(obj, 11.0, rho=0.5)
        assert shrunk.variance == pytest.approx(obj.variance * 0.25)
        assert shrunk.mean == pytest.approx(11.0)

    def test_variance_scales_with_rho_squared_normal(self):
        obj = normal_obj()
        shrunk = shrink_distribution(obj, 47.0, rho=0.3)
        assert shrunk.variance == pytest.approx(obj.variance * 0.09)
        assert shrunk.current_value == 47.0
        assert shrunk.is_normal

    def test_rho_one_keeps_spread(self):
        obj = discrete_obj()
        shrunk = shrink_distribution(obj, 10.0, rho=1.0)
        assert shrunk.variance == pytest.approx(obj.variance)

    def test_preserves_cost_and_name(self):
        obj = discrete_obj(cost=3.0)
        shrunk = shrink_distribution(obj, 9.0, rho=0.5)
        assert shrunk.cost == 3.0
        assert shrunk.name == obj.name

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            shrink_distribution(discrete_obj(), 9.0, rho=1.5)


class TestPartiallyCleanedDatabase:
    def test_only_selected_objects_change(self):
        db = UncertainDatabase([discrete_obj(), normal_obj()])
        updated = partially_cleaned(db, {0: 9.0}, rho=0.5)
        assert updated[0].current_value == 9.0
        assert updated[0].variance == pytest.approx(db[0].variance * 0.25)
        assert updated[1].variance == pytest.approx(db[1].variance)

    def test_per_object_rho(self):
        db = UncertainDatabase([discrete_obj(), normal_obj()])
        updated = partially_cleaned(db, {0: 9.0, 1: 52.0}, rho={0: 0.0, 1: 0.5})
        assert updated[0].is_certain()
        assert updated[1].variance == pytest.approx(db[1].variance * 0.25)


class TestPartialLinearEV:
    def test_rho_zero_matches_full_cleaning(self, small_discrete_database):
        db = small_discrete_database
        weights = np.ones(6)
        for cleaned in ([], [0, 2], [1, 3, 5]):
            assert partial_linear_expected_variance(db, weights, cleaned, rho=0.0) == pytest.approx(
                linear_expected_variance(db, weights, cleaned)
            )

    def test_rho_one_matches_no_cleaning(self, small_discrete_database):
        db = small_discrete_database
        weights = np.ones(6)
        assert partial_linear_expected_variance(db, weights, [0, 1, 2], rho=1.0) == pytest.approx(
            linear_expected_variance(db, weights, [])
        )

    def test_intermediate_rho_between_bounds(self, small_discrete_database):
        db = small_discrete_database
        weights = np.ones(6)
        cleaned = [0, 1]
        full = partial_linear_expected_variance(db, weights, cleaned, rho=0.0)
        nothing = partial_linear_expected_variance(db, weights, cleaned, rho=1.0)
        partial = partial_linear_expected_variance(db, weights, cleaned, rho=0.5)
        assert full <= partial <= nothing

    def test_rejects_bad_rho(self, small_discrete_database):
        with pytest.raises(ValueError):
            partial_linear_expected_variance(small_discrete_database, np.ones(6), [0], rho=2.0)


class TestGreedyPartialMinVar:
    def test_rho_zero_matches_full_cleaning_greedy(self, small_discrete_database):
        db = small_discrete_database
        claim = LinearClaim.from_vector([1.0, 2.0, 0.5, 1.0, 0.0, 1.5])
        budget = db.total_cost * 0.4
        partial = GreedyPartialMinVar(claim, rho=0.0).select_indices(db, budget)
        weights = claim.weights(6)
        # The selection removes at least as much variance as any single object.
        removed = linear_expected_variance(db, weights, []) - linear_expected_variance(
            db, weights, partial
        )
        assert removed >= 0.0

    def test_unreliable_cleaning_changes_preferences(self):
        # Two objects with equal weighted variance and cost, but cleaning the
        # first only halves its spread: the second should be preferred.
        db = UncertainDatabase(
            [
                UncertainObject("x", 0.0, DiscreteDistribution.uniform([-10.0, 10.0]), cost=1.0),
                UncertainObject("y", 0.0, DiscreteDistribution.uniform([-10.0, 10.0]), cost=1.0),
            ]
        )
        claim = LinearClaim.from_vector([1.0, 1.0])
        selected = GreedyPartialMinVar(claim, rho={0: 0.7, 1: 0.0}).select_indices(db, 1.0)
        assert selected == [1]

    def test_objective_value_in_plan(self, small_discrete_database):
        claim = LinearClaim.from_vector(np.ones(6))
        plan = GreedyPartialMinVar(claim, rho=0.5).select(small_discrete_database, 5.0)
        assert plan.objective_value is not None
        assert plan.algorithm == "GreedyPartialMinVar"

    def test_requires_linear_claim(self):
        with pytest.raises(TypeError):
            GreedyPartialMinVar(ThresholdClaim(SumClaim([0]), 1.0))


class TestEntropy:
    def test_entropy_of_uniform_pmf(self):
        assert entropy_of_pmf([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0)

    def test_entropy_of_point_mass_is_zero(self):
        assert entropy_of_pmf([1.0]) == 0.0
        assert entropy_of_pmf([1.0, 0.0]) == 0.0

    def test_entropy_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_of_pmf([-0.1, 1.1])

    def test_result_entropy_of_indicator(self, example5_database):
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        # P[f=1] = 2/15; binary entropy of 2/15.
        p = 2.0 / 15.0
        expected = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        assert result_entropy(example5_database, indicator) == pytest.approx(expected)

    def test_expected_entropy_decreases_with_cleaning(self, example5_database):
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        h_none = expected_entropy(example5_database, indicator, [])
        h_one = expected_entropy(example5_database, indicator, [0])
        h_all = expected_entropy(example5_database, indicator, [0, 1])
        assert h_all == pytest.approx(0.0, abs=1e-12)
        assert h_one <= h_none + 1e-9

    def test_greedy_min_entropy_selects_within_budget(self, example5_database):
        indicator = ThresholdClaim(SumClaim([0, 1]), threshold=11.0 / 12.0, op="<")
        plan = GreedyMinEntropy(indicator).select(example5_database, 1.0)
        assert plan.cost <= 1.0 + 1e-9
        assert plan.objective_value is not None

    def test_entropy_and_variance_objectives_can_disagree(self):
        # A value with a huge but unlikely deviation: variance cares, entropy
        # barely does.  The two greedy strategies pick different objects.
        db = UncertainDatabase(
            [
                UncertainObject(
                    "rare_huge", 0.0, DiscreteDistribution([0.0, 1000.0], [0.99, 0.01]), cost=1.0
                ),
                UncertainObject(
                    "common_small", 0.0, DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]), cost=1.0
                ),
            ]
        )
        claim = LinearClaim.from_vector([1.0, 1.0])
        from repro.core.greedy import GreedyMinVar

        minvar_choice = GreedyMinVar(claim).select_indices(db, 1.0)
        entropy_choice = GreedyMinEntropy(claim).select_indices(db, 1.0)
        assert minvar_choice == [0]  # variance dominated by the rare huge error
        assert entropy_choice == [1]  # entropy dominated by the fair coin


class TestVectorizedEntropyEquivalence:
    """The array entropy/pmf kernels match the retained scalar loops."""

    def _random_db(self, rng, n):
        objects = []
        for i in range(n):
            k = int(rng.integers(2, 5))
            values = np.sort(rng.uniform(0.0, 40.0, size=k))
            probabilities = rng.uniform(0.2, 1.0, size=k)
            objects.append(
                UncertainObject(
                    f"o{i}", float(rng.uniform(0.0, 40.0)),
                    DiscreteDistribution(values, probabilities),
                    cost=float(rng.uniform(0.5, 3.0)),
                )
            )
        return UncertainDatabase(objects)

    @pytest.mark.parametrize("seed", range(5))
    def test_entropy_of_pmf_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        mass = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40)))
        mass = mass / mass.sum()
        assert entropy_of_pmf(mass) == pytest.approx(
            entropy_of_pmf_scalar(mass.tolist()), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_result_and_expected_entropy_match_scalar(self, seed):
        rng = np.random.default_rng(50 + seed)
        db = self._random_db(rng, 7)
        linear = LinearClaim.from_vector(rng.uniform(-2.0, 2.0, size=7))
        indicator = ThresholdClaim(SumClaim(range(7)), threshold=120.0, op=">=")
        for function in (linear, indicator):
            assert result_entropy(db, function) == pytest.approx(
                result_entropy_scalar(db, function), abs=1e-9
            )
            for cleaned in ([], [0], [1, 4], [0, 2, 5, 6]):
                assert expected_entropy(db, function, cleaned) == pytest.approx(
                    expected_entropy_scalar(db, function, cleaned), abs=1e-9
                )
