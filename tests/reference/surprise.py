"""Scalar twins of the MaxPr objective kernels.

Both walk the cleaning outcomes one world at a time, as the original
implementation did; the randomized equivalence tests pit the batched
kernels of :mod:`repro.core.surprise` against them.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "surprise_probability_exact_scalar",
    "surprise_probability_monte_carlo_scalar",
]


def surprise_probability_exact_scalar(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    tau: float = 0.0,
    baseline: Optional[float] = None,
) -> float:
    """Exact MaxPr objective, one joint-support world (dict) at a time."""
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    current = database.current_values
    target = (function.evaluate(current) if baseline is None else baseline) - tau

    relevant = [i for i in cleaned_set if i in function.referenced_indices]
    if not relevant:
        return 0.0

    probability = 0.0
    for assignment, p in database.enumerate_joint_support(relevant):
        values = database.values_with_assignment(assignment)
        if function.evaluate(values) < target - 1e-12:
            probability += p
    return float(probability)


def surprise_probability_monte_carlo_scalar(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng: np.random.Generator,
    tau: float = 0.0,
    samples: int = 2000,
    baseline: Optional[float] = None,
) -> float:
    """Monte-Carlo MaxPr objective evaluating the sample matrix row by row.

    Draws the identical sample matrix as the batched estimator (same RNG
    stream), so fixed seeds match.
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    current = database.current_values
    target = (function.evaluate(current) if baseline is None else baseline) - tau

    matrix = np.tile(current, (samples, 1))
    for index in cleaned_set:
        matrix[:, index] = database[index].sample(rng, size=samples)
    results = np.fromiter(
        (function.evaluate(row) for row in matrix), dtype=float, count=samples
    )
    return float(np.count_nonzero(results < target - 1e-12)) / samples
