"""Scalar twins of the entropy objective.

Per-outcome loops and per-world dict accumulation, as the original
implementation did; the equivalence tests pit the array kernels of
:mod:`repro.core.entropy` against them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.entropy import _OUTCOME_MERGE_TOLERANCE
from repro.uncertainty.database import UncertainDatabase

__all__ = ["entropy_of_pmf_scalar", "result_entropy_scalar", "expected_entropy_scalar"]


def entropy_of_pmf_scalar(probabilities: Iterable[float]) -> float:
    """Retained per-outcome loop (the reference for the equivalence tests)."""
    total = 0.0
    for p in probabilities:
        if p < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        if p > 1e-15:
            total -= p * math.log2(p)
    return float(total)


def _result_pmf(
    database: UncertainDatabase,
    function: ClaimFunction,
    free_indices: Sequence[int],
    fixed: Dict[int, float],
) -> Dict[float, float]:
    """Retained scalar path: per-world dict accumulation (reference twin)."""
    base = database.current_values
    pmf: Dict[float, float] = {}
    for assignment, probability in database.enumerate_joint_support(free_indices):
        values = np.array(base, copy=True)
        for index, value in fixed.items():
            values[index] = value
        for index, value in assignment.items():
            values[index] = value
        result = round(float(function.evaluate(values)), 12)
        pmf[result] = pmf.get(result, 0.0) + probability
    # The same adjacency noise-merge the array path applies, walked pairwise.
    merged: Dict[float, float] = {}
    anchor = previous = None
    for value in sorted(pmf):
        if previous is None or value - previous > _OUTCOME_MERGE_TOLERANCE:
            anchor = value
            merged[anchor] = pmf[value]
        else:
            merged[anchor] += pmf[value]
        previous = value
    return merged


def result_entropy_scalar(database: UncertainDatabase, function: ClaimFunction) -> float:
    """Entropy of ``f(X)`` by the per-world scalar loop."""
    referenced = sorted(function.referenced_indices)
    pmf = _result_pmf(database, function, referenced, {})
    return entropy_of_pmf_scalar(pmf.values())


def expected_entropy_scalar(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
) -> float:
    """Expected post-cleaning entropy ``EH(T)`` by the per-world scalar loop."""
    cleaned_set = frozenset(int(i) for i in cleaned)
    referenced = function.referenced_indices
    cleaned_referenced = sorted(cleaned_set & referenced)
    free = sorted(referenced - cleaned_set)

    total = 0.0
    for assignment, probability in database.enumerate_joint_support(cleaned_referenced):
        pmf = _result_pmf(database, function, free, dict(assignment))
        total += probability * entropy_of_pmf_scalar(pmf.values())
    return float(total)
