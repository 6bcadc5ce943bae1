"""Scalar twins of the expected-variance kernels.

Every function here walks per-world Python dicts exactly as the original
implementation did, with no batching.  The randomized equivalence tests pit
the batched-array kernels of :mod:`repro.core.expected_variance` against
them:

* :func:`weighted_sum_pmf_scalar` — dict-based pmf convolution;
* :func:`expected_variance_exact_scalar` — per-world exact EV;
* :func:`expected_variance_monte_carlo_scalar` — the Monte-Carlo estimator
  evaluated row by row (same RNG stream, so fixed seeds match);
* :class:`ScalarDecomposedEVCalculator` — the Theorem 3.8 calculator with
  every piece computed by scalar enumeration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.claims.quality import QualityTerm
from repro.core.expected_variance import DecomposedEVCalculator, weighted_sum_pmf
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution as DiscreteDistributionType

__all__ = [
    "weighted_sum_pmf_scalar",
    "expected_variance_exact_scalar",
    "expected_variance_monte_carlo_scalar",
    "ScalarDecomposedEVCalculator",
]


def weighted_sum_pmf_scalar(
    database: UncertainDatabase,
    indices: Sequence[int],
    weights: Mapping[int, float],
    offset: float = 0.0,
) -> List[Tuple[float, float]]:
    """Reference dict-based convolution (the retained scalar path).

    Semantically identical to :func:`weighted_sum_pmf`; kept as the ground
    truth for the randomized kernel-equivalence tests.
    """
    pmf: Dict[float, float] = {float(offset): 1.0}
    for index in indices:
        distribution = database[index].distribution
        if not isinstance(distribution, DiscreteDistributionType):
            raise TypeError("weighted_sum_pmf requires discrete distributions")
        weight = float(weights.get(index, 0.0))
        next_pmf: Dict[float, float] = {}
        for partial, p in pmf.items():
            for value, q in zip(distribution.values, distribution.probabilities):
                key = partial + weight * float(value)
                next_pmf[key] = next_pmf.get(key, 0.0) + p * q
        pmf = next_pmf
    return sorted(pmf.items())


def _conditional_moments(
    database: UncertainDatabase,
    function: ClaimFunction,
    free_indices: Sequence[int],
    fixed_assignment: Mapping[int, float],
    base_values: np.ndarray,
) -> Tuple[float, float]:
    """First and second moments of ``function`` with ``free_indices`` random.

    ``fixed_assignment`` pins the cleaned objects; objects outside both sets
    keep ``base_values`` (they are never referenced by ``function`` when the
    caller restricts to the referenced set, so their value is irrelevant).
    """
    first = 0.0
    second = 0.0
    for assignment, probability in database.enumerate_joint_support(free_indices):
        values = np.array(base_values, copy=True)
        for index, value in fixed_assignment.items():
            values[index] = value
        for index, value in assignment.items():
            values[index] = value
        result = function.evaluate(values)
        first += probability * result
        second += probability * result * result
    return first, second


def expected_variance_exact_scalar(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
) -> float:
    """Exact EV(T) by the retained per-world scalar loop."""
    cleaned_set = frozenset(int(i) for i in cleaned)
    referenced = function.referenced_indices
    base_values = database.current_values

    cleaned_referenced = sorted(cleaned_set & referenced)
    free_referenced = sorted(referenced - cleaned_set)

    expected = 0.0
    for assignment, probability in database.enumerate_joint_support(cleaned_referenced):
        first, second = _conditional_moments(
            database, function, free_referenced, assignment, base_values
        )
        variance = max(second - first * first, 0.0)
        expected += probability * variance
    return float(expected)


def expected_variance_monte_carlo_scalar(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng: np.random.Generator,
    outer_samples: int = 200,
    inner_samples: int = 200,
) -> float:
    """Monte-Carlo EV(T) evaluating the sample matrix row by row.

    Draws the identical sample matrices as the batched estimator (same RNG
    stream), so fixed seeds give matching estimates.
    """
    cleaned_list = sorted(set(int(i) for i in cleaned))
    referenced = sorted(function.referenced_indices)
    free = [i for i in referenced if i not in cleaned_list]

    if not free:
        return 0.0

    matrix = np.tile(database.current_values, (inner_samples, 1))
    total = 0.0
    for _ in range(outer_samples):
        for index in cleaned_list:
            matrix[:, index] = database[index].sample(rng)
        for index in free:
            matrix[:, index] = database[index].sample(rng, size=inner_samples)
        draws = np.fromiter(
            (function.evaluate(row) for row in matrix),
            dtype=float,
            count=inner_samples,
        )
        total += float(np.var(draws))
    return total / outer_samples


class ScalarDecomposedEVCalculator(DecomposedEVCalculator):
    """:class:`DecomposedEVCalculator` with every piece computed by scalar loops.

    The term decomposition, memo tables and conditioning are inherited; only
    the three piece kernels are swapped for the retained scalar enumerations.
    """

    def _linear_term_expected_variance(
        self, k: int, term: QualityTerm, cleaned: Sequence[int], free: Sequence[int]
    ) -> float:
        """Retained scalar double loop over the two pmfs (reference path)."""
        weights = term.claim.sparse_weights
        offset = term.claim.intercept()
        cleaned_pmf = weighted_sum_pmf(self.database, cleaned, weights, offset=offset)
        free_pmf = weighted_sum_pmf(self.database, free, weights, offset=0.0)
        transform = term.transform

        total = 0.0
        for cleaned_value, cleaned_probability in cleaned_pmf:
            first = 0.0
            second = 0.0
            for free_value, free_probability in free_pmf:
                g = transform(cleaned_value + free_value)
                first += free_probability * g
                second += free_probability * g * g
            total += cleaned_probability * max(second - first * first, 0.0)
        return total

    def _generic_term_expected_variance(
        self, term: QualityTerm, cleaned: Sequence[int], free: Sequence[int]
    ) -> float:
        """Retained scalar enumeration of full value vectors (reference path)."""
        total = 0.0
        for assignment, probability in self.database.enumerate_joint_support(cleaned):
            first = 0.0
            second = 0.0
            for free_assignment, free_probability in self.database.enumerate_joint_support(free):
                values = np.array(self._base_values, copy=True)
                for index, value in assignment.items():
                    values[index] = value
                for index, value in free_assignment.items():
                    values[index] = value
                g = term(values)
                first += free_probability * g
                second += free_probability * g * g
            total += probability * max(second - first * first, 0.0)
        return total

    def _pair_expected_covariance_batched(
        self, term_k: QualityTerm, term_l: QualityTerm, cleaned: List[int], free: List[int]
    ) -> float:
        """Retained scalar enumeration (reference path)."""
        total = 0.0
        for assignment, probability in self.database.enumerate_joint_support(cleaned):
            mean_k = 0.0
            mean_l = 0.0
            mean_kl = 0.0
            for free_assignment, free_probability in self.database.enumerate_joint_support(free):
                values = np.array(self._base_values, copy=True)
                for index, value in assignment.items():
                    values[index] = value
                for index, value in free_assignment.items():
                    values[index] = value
                gk = term_k(values)
                gl = term_l(values)
                mean_k += free_probability * gk
                mean_l += free_probability * gl
                mean_kl += free_probability * gk * gl
            total += probability * (mean_kl - mean_k * mean_l)
        return total
