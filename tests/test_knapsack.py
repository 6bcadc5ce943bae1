"""Unit tests for repro.core.knapsack."""

import itertools

import numpy as np
import pytest

from repro.core.knapsack import (
    KnapsackSolution,
    solve_knapsack_dp,
    solve_knapsack_fptas,
    solve_knapsack_greedy,
    solve_min_knapsack_dp,
)
from reference.knapsack import solve_knapsack_dp_scalar, solve_knapsack_fptas_scalar


def brute_force_max(values, costs, budget):
    best = 0.0
    n = len(values)
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if sum(costs[i] for i in combo) <= budget + 1e-9:
                best = max(best, sum(values[i] for i in combo))
    return best


class TestKnapsackDP:
    def test_empty_items(self):
        solution = solve_knapsack_dp([], [], 10.0)
        assert solution.selected == ()
        assert solution.total_value == 0.0

    def test_zero_budget(self):
        solution = solve_knapsack_dp([5.0], [1.0], 0.0)
        assert solution.selected == ()

    def test_single_item_fits(self):
        solution = solve_knapsack_dp([5.0], [3.0], 4.0)
        assert solution.selected == (0,)
        assert solution.total_value == 5.0

    def test_single_item_does_not_fit(self):
        solution = solve_knapsack_dp([5.0], [3.0], 2.0)
        assert solution.selected == ()

    def test_classic_instance(self):
        values = [60.0, 100.0, 120.0]
        costs = [10.0, 20.0, 30.0]
        solution = solve_knapsack_dp(values, costs, 50.0)
        assert solution.total_value == pytest.approx(220.0)
        assert set(solution.selected) == {1, 2}

    def test_algorithm1_counterexample(self):
        # The paper's greedy counterexample: greedy-by-ratio picks the tiny item.
        values = [0.1, 10.0]
        costs = [0.0001, 2.0]
        solution = solve_knapsack_dp(values, costs, 2.0)
        assert solution.total_value == pytest.approx(10.0)

    def test_matches_brute_force_random_integer_costs(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            values = rng.uniform(0, 20, size=n)
            costs = rng.integers(1, 10, size=n).astype(float)
            budget = float(rng.uniform(1, costs.sum()))
            solution = solve_knapsack_dp(values, costs, budget)
            assert solution.total_value == pytest.approx(
                brute_force_max(values, costs, budget), rel=1e-9
            )
            assert solution.total_cost <= budget + 1e-9

    def test_matches_brute_force_fractional_costs(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            values = rng.uniform(0, 20, size=n)
            costs = rng.uniform(0.5, 7.0, size=n)
            budget = float(rng.uniform(1, costs.sum()))
            solution = solve_knapsack_dp(values, costs, budget, resolution=4000)
            # With cost rounding the DP stays feasible and near-optimal.
            assert solution.total_cost <= budget + 1e-9
            assert solution.total_value >= 0.98 * brute_force_max(values, costs, budget) - 1e-9

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            solve_knapsack_dp([-1.0], [1.0], 1.0)

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(ValueError):
            solve_knapsack_dp([1.0], [0.0], 1.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            solve_knapsack_dp([1.0, 2.0], [1.0], 1.0)

    def test_selected_value_totals_are_consistent(self, rng):
        values = rng.uniform(0, 10, size=6)
        costs = rng.integers(1, 5, size=6).astype(float)
        solution = solve_knapsack_dp(values, costs, 8.0)
        assert solution.total_value == pytest.approx(sum(values[i] for i in solution.selected))
        assert solution.total_cost == pytest.approx(sum(costs[i] for i in solution.selected))


class TestKnapsackFPTAS:
    def test_within_epsilon_of_optimum(self, rng):
        for _ in range(8):
            n = int(rng.integers(4, 9))
            values = rng.uniform(1, 30, size=n)
            costs = rng.integers(1, 8, size=n).astype(float)
            budget = float(rng.uniform(2, costs.sum()))
            optimum = brute_force_max(values, costs, budget)
            solution = solve_knapsack_fptas(values, costs, budget, epsilon=0.1)
            assert solution.total_cost <= budget + 1e-9
            assert solution.total_value >= (1 - 0.1) * optimum - 1e-9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            solve_knapsack_fptas([1.0], [1.0], 1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            solve_knapsack_fptas([1.0], [1.0], 1.0, epsilon=1.0)

    def test_empty_and_zero_budget(self):
        assert solve_knapsack_fptas([], [], 5.0).selected == ()
        assert solve_knapsack_fptas([1.0], [1.0], 0.0).selected == ()

    def test_all_zero_values(self):
        solution = solve_knapsack_fptas([0.0, 0.0], [1.0, 1.0], 2.0)
        assert solution.total_value == 0.0


class TestKnapsackGreedy:
    def test_two_approximation(self, rng):
        for _ in range(15):
            n = int(rng.integers(3, 10))
            values = rng.uniform(0, 20, size=n)
            costs = rng.uniform(0.5, 6.0, size=n)
            budget = float(rng.uniform(1, costs.sum()))
            optimum = brute_force_max(values, costs, budget)
            solution = solve_knapsack_greedy(values, costs, budget)
            assert solution.total_cost <= budget + 1e-9
            assert solution.total_value >= optimum / 2.0 - 1e-9

    def test_single_item_safeguard(self):
        # Without the safeguard, greedy-by-ratio would return only the 0.1 item.
        solution = solve_knapsack_greedy([0.1, 10.0], [0.0001, 2.0], 2.0)
        assert solution.total_value == pytest.approx(10.0)
        assert solution.selected == (1,)

    def test_skips_zero_value_items(self):
        solution = solve_knapsack_greedy([0.0, 3.0], [1.0, 1.0], 2.0)
        assert 0 not in solution.selected

    def test_respects_budget(self):
        solution = solve_knapsack_greedy([5.0, 5.0, 5.0], [2.0, 2.0, 2.0], 4.5)
        assert len(solution.selected) == 2


class TestMinKnapsack:
    def test_complements_max_knapsack(self, rng):
        values = rng.uniform(0, 10, size=6)
        costs = rng.integers(1, 6, size=6).astype(float)
        bound = float(costs.sum() * 0.6)
        solution = solve_min_knapsack_dp(values, costs, bound)
        assert solution.total_cost >= bound - 1e-9

    def test_minimizes_kept_value(self):
        values = [10.0, 1.0, 1.0]
        costs = [5.0, 5.0, 5.0]
        # Must keep at least 10 cost -> choose the two cheap-value items.
        solution = solve_min_knapsack_dp(values, costs, 10.0)
        assert set(solution.selected) == {1, 2}
        assert solution.total_value == pytest.approx(2.0)

    def test_bound_zero_selects_nothing(self):
        solution = solve_min_knapsack_dp([1.0, 2.0], [1.0, 1.0], 0.0)
        assert solution.selected == ()

    def test_bound_equal_to_total_selects_everything(self):
        solution = solve_min_knapsack_dp([1.0, 2.0], [1.0, 3.0], 4.0)
        assert set(solution.selected) == {0, 1}

    def test_rejects_bound_above_total(self):
        with pytest.raises(ValueError):
            solve_min_knapsack_dp([1.0], [1.0], 2.0)


class TestScalarVectorizedEquivalence:
    """The numpy rolling-array DP rows and the retained scalar loops agree."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dp_equivalence(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 18))
        values = r.uniform(0.0, 10.0, size=n)
        costs = r.uniform(0.5, 6.0, size=n)
        if r.integers(0, 2):
            costs = np.ceil(costs)  # exercise the exact integer-cost grid too
        budget = float(r.uniform(0.5, costs.sum()))
        fast = solve_knapsack_dp(values, costs, budget)
        slow = solve_knapsack_dp_scalar(values, costs, budget)
        assert fast == slow

    @pytest.mark.parametrize("seed", range(8))
    def test_fptas_equivalence(self, seed):
        r = np.random.default_rng(100 + seed)
        n = int(r.integers(1, 14))
        values = r.uniform(0.0, 10.0, size=n)
        costs = r.uniform(0.5, 6.0, size=n)
        budget = float(r.uniform(0.5, costs.sum()))
        epsilon = float(r.uniform(0.05, 0.5))
        fast = solve_knapsack_fptas(values, costs, budget, epsilon=epsilon)
        slow = solve_knapsack_fptas_scalar(values, costs, budget, epsilon=epsilon)
        assert fast == slow

    def test_dp_scalar_respects_budget_and_optimality(self):
        values = [6.0, 10.0, 12.0]
        costs = [1.0, 2.0, 3.0]
        solution = solve_knapsack_dp_scalar(values, costs, 5.0)
        assert set(solution.selected) == {1, 2}
        assert solution.total_value == pytest.approx(22.0)
