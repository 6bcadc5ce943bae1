"""Entropy-based uncertainty, as an ablation against the paper's variance objective.

Related work (Cheng et al.'s PWS-quality, discussed in Section 5) measures
result quality with entropy instead of variance.  The paper argues variance is
the better fit for numeric fact-checking measures because it weighs *how far*
outcomes spread, not just how many outcomes are likely.  This module provides
the entropy counterpart so that claim can be examined empirically:

* :func:`entropy_of_pmf`, :func:`result_entropy` — Shannon entropy of the
  query-function result distribution;
* :func:`expected_entropy` — the expected post-cleaning entropy ``EH(T)``
  (the entropy analogue of ``EV(T)``);
* :class:`GreedyMinEntropy` — the Algorithm-1 greedy driven by entropy
  reduction instead of variance reduction.

``benchmarks/test_ablation_entropy.py`` compares the selections the two
objectives make on the same workload.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.expected_variance import iter_value_blocks, weighted_sum_pmf_arrays
from repro.core.greedy import _DatabaseKeyedCache, greedy_select
from repro.core.problems import CleaningPlan
from repro.core.solver import ResumableSolver, SelectionStep, register_solver
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "entropy_of_pmf",
    "result_entropy",
    "expected_entropy",
    "GreedyMinEntropy",
]


def entropy_of_pmf(probabilities: Iterable[float]) -> float:
    """Shannon entropy (in bits) of a probability mass function.

    One masked ``log2`` over the whole array instead of a per-outcome
    ``math.log2`` loop; accepts any iterable of probabilities (arrays pass
    through without a copy).
    """
    if isinstance(probabilities, np.ndarray):
        mass = np.asarray(probabilities, dtype=float)
    else:
        mass = np.fromiter(probabilities, dtype=float)
    if mass.size == 0:
        return 0.0
    if float(mass.min()) < -1e-12:
        raise ValueError("probabilities must be nonnegative")
    positive = mass[mass > 1e-15]
    if positive.size == 0:
        return 0.0
    return float(-np.dot(positive, np.log2(positive)))


# Both pmf paths snap results to the 12-decimal grid first (the pre-existing
# convention) and then merge *adjacent* grid keys: floating-point noise from
# different summation orders can land the same outcome on two neighbouring
# grid keys, which would split a group and inflate the entropy.  The
# tolerance sits strictly between one and two grid steps, so
# boundary-straddling noise always merges while outcomes two grid steps
# (2e-12) apart stay distinct in both paths — the same resolution the
# rounding alone already imposed.  (Adjacency chaining means a pathological
# pmf with *every* gap at exactly one grid step collapses, but outcomes that
# dense are indistinguishable from noise at this grain anyway.)
_OUTCOME_MERGE_TOLERANCE = 1.5e-12


def _merge_close_outcomes(
    values: np.ndarray, masses: np.ndarray, atol: float = _OUTCOME_MERGE_TOLERANCE
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge sorted outcome values closer than ``atol`` into one group each.

    Grouping is by adjacency gaps, so it does not depend on where rounding
    boundaries happen to fall — the property that makes the scalar and
    vectorized pmfs group identically even though their result floats differ
    in the last ulps.
    """
    if values.size <= 1:
        return values, masses
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    np.greater(np.diff(values), atol, out=starts[1:])
    group_ids = np.cumsum(starts) - 1
    return values[starts], np.bincount(group_ids, weights=masses)


def _result_pmf_arrays(
    database: UncertainDatabase,
    function: ClaimFunction,
    free_indices: Sequence[int],
    fixed: Dict[int, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Distribution of the result with ``free_indices`` random, as arrays.

    Linear query functions reduce to the array weighted-sum pmf of the free
    objects (the PR-1 convolution kernel) shifted by the fixed/base
    contribution; anything else evaluates the free joint support in batched
    ``(rows, n)`` blocks with ``evaluate_batch``.  Either way the results are
    snapped to the scalar path's 12-decimal grid, equal keys merged with
    ``np.unique`` + ``np.bincount``, and neighbouring grid keys noise-merged
    by adjacency (:func:`_merge_close_outcomes`) — the combination that keeps
    the grouping identical to the scalar dict even though the raw result
    floats differ in the last ulps.  Returns sorted
    ``(values, probabilities)``.
    """
    free = list(free_indices)
    base = np.array(database.current_values, copy=True)
    for index, value in fixed.items():
        base[index] = value

    if function.is_linear():
        weights = function.weights(len(database))
        free_mask = np.zeros(len(database), dtype=bool)
        free_mask[free] = True
        offset = float(function.intercept()) + float(
            np.dot(weights[~free_mask], base[~free_mask])
        )
        values, probabilities = weighted_sum_pmf_arrays(
            database, free, {i: float(weights[i]) for i in free}, offset=offset
        )
    else:
        worlds, world_probs = database.joint_support_arrays(free)
        chunks: List[np.ndarray] = []
        for matrix, _block_probs in iter_value_blocks(base, free, worlds, world_probs):
            chunks.append(function.evaluate_batch(matrix))
        values = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        probabilities = world_probs

    merged, inverse = np.unique(np.round(values, 12), return_inverse=True)
    mass = np.bincount(inverse.reshape(-1), weights=probabilities, minlength=merged.size)
    return _merge_close_outcomes(merged, mass)


def result_entropy(database: UncertainDatabase, function: ClaimFunction) -> float:
    """Entropy of ``f(X)`` under the database's (independent, discrete) error model."""
    referenced = sorted(function.referenced_indices)
    _values, mass = _result_pmf_arrays(database, function, referenced, {})
    return entropy_of_pmf(mass)


def expected_entropy(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
) -> float:
    """Expected post-cleaning entropy ``EH(T)`` (the entropy analogue of EV).

    Enumerates the cleaning outcomes of ``T`` (restricted to the referenced
    objects) and averages the conditional entropy of the result.  Like the
    exact EV computation this is exponential in the number of referenced
    objects and meant for small workloads and ablations.  The conditional
    pmfs run through the array kernels.
    """
    cleaned_set = frozenset(int(i) for i in cleaned)
    referenced = function.referenced_indices
    cleaned_referenced = sorted(cleaned_set & referenced)
    free = sorted(referenced - cleaned_set)

    total = 0.0
    for assignment, probability in database.enumerate_joint_support(cleaned_referenced):
        _values, mass = _result_pmf_arrays(database, function, free, dict(assignment))
        total += probability * entropy_of_pmf(mass)
    return float(total)


@register_solver
class GreedyMinEntropy(_DatabaseKeyedCache, ResumableSolver):
    """Algorithm-1 greedy whose benefit is the reduction in expected entropy.

    Provided as an ablation baseline: on indicator-style claim-quality
    measures it often agrees with GreedyMinVar, but on measures where the
    *magnitude* of deviations matters (fragility, bias) entropy ignores how
    far apart the outcomes are and can prefer less useful objects.

    Evaluated-set entropies are cached per database identity (weakly keyed),
    so budget sweeps and trace resumes reuse them.
    """

    name = "GreedyMinEntropy"

    def __init__(self, function: ClaimFunction):
        self.function = function
        self._init_caches()

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        cache = self._cache_for(database)

        def entropy(indices: Tuple[int, ...]) -> float:
            key = frozenset(indices)
            if key not in cache:
                cache[key] = expected_entropy(database, self.function, key)
            return cache[key]

        def benefit(current: Sequence[int], index: int) -> float:
            current_tuple = tuple(current)
            return entropy(current_tuple) - entropy(current_tuple + (index,))

        return greedy_select(
            database,
            budget,
            benefit,
            adaptive=True,
            initial_selection=initial_selection,
            record_steps=record_steps,
        )

    def select(self, database: UncertainDatabase, budget: float) -> CleaningPlan:
        """The selection wrapped in a :class:`CleaningPlan`."""
        indices = self.select_indices(database, budget)
        objective = expected_entropy(database, self.function, indices)
        return CleaningPlan.from_indices(
            database, indices, objective_value=objective, algorithm=self.name
        )
