"""Pure-Python reference implementations of the dispatched kernels.

These loops are the ground truth the randomized equivalence tests pit the
numpy and compiled tiers against: every loop mirrors the mathematical
definition one element at a time, with no vectorization and no clever
orderings.  They are deliberately slow and no production tier selects
them; :func:`scalar_kernels` routes the dispatch layer through them for
the duration of a block.

Arithmetic note: accumulations run in Python floats (double precision) and
results are stored back in the caller's dtype, except where the *merge*
semantics depend on the working precision (``convolve_support`` computes
each sum in the input dtype so that float32 collisions merge exactly like
the numpy tier's ``np.unique``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from repro.kernels import dispatch

__all__ = [
    "scalar_kernels",
    "outer_downdate",
    "banded_downdate",
    "convolve_support",
    "normal_surprise_scores",
    "conditional_gains",
    "marginal_gains",
]


def outer_downdate(matrix: np.ndarray, column: np.ndarray, pivot: float) -> None:
    """``matrix -= outer(column, column) / pivot``, one entry at a time."""
    n = matrix.shape[0]
    for i in range(n):
        ci = float(column[i]) / pivot
        if ci == 0.0:
            continue
        for k in range(n):
            matrix[i, k] -= ci * float(column[k])


def banded_downdate(
    bands: np.ndarray, lo: int, column: np.ndarray, pivot: float
) -> None:
    """Apply the rank-one downdate to band storage, one entry at a time.

    Entry ``(lo + i, lo + i + lag)`` lives at ``bands[lag, lo + i]``; the
    caller has widened the storage so every lag up to ``len(column) - 1``
    (capped at the stored bandwidth) has a row.
    """
    m = column.size
    for lag in range(min(m, bands.shape[0])):
        for i in range(m - lag):
            bands[lag, lo + i] -= (float(column[i]) / pivot) * float(column[i + lag])


def convolve_support(
    values: np.ndarray,
    probabilities: np.ndarray,
    contributions: np.ndarray,
    contribution_probabilities: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One discrete-convolution step via a dict of exact-equality sums.

    Sums are computed in the promoted input dtype (so float32 inputs collide
    exactly where the numpy tier's float32 outer sum collides) and equal sums
    accumulate in order of appearance — the same association order as the
    numpy tier's ``np.bincount`` merge, so float64 results are bit-identical.
    """
    dtype = np.result_type(values, contributions)
    pmf: dict = {}
    for i in range(values.size):
        vi = dtype.type(values[i])
        pi = probabilities[i]
        for j in range(contributions.size):
            key = vi + dtype.type(contributions[j])
            mass = pi * contribution_probabilities[j]
            if key in pmf:
                pmf[key] = pmf[key] + mass
            else:
                pmf[key] = mass
    merged = sorted(pmf.items())
    out_values = np.array([pair[0] for pair in merged], dtype=dtype)
    out_probabilities = np.array(
        [pair[1] for pair in merged], dtype=np.result_type(probabilities, contribution_probabilities)
    )
    return out_values, out_probabilities


def normal_surprise_scores(
    shifts: np.ndarray, sds: np.ndarray, tau: float
) -> np.ndarray:
    """``Phi((-tau - shift) / sd)`` per component, elementwise.

    Degenerate components (``sd <= 0``) use the scalar calculators' indicator
    convention: probability 1 when the shift alone clears the drop, else 0.
    """
    out = np.empty(shifts.shape, dtype=shifts.dtype)
    for i in range(shifts.size):
        sd = float(sds[i])
        if sd <= 0.0:
            out[i] = 1.0 if float(shifts[i]) < -tau else 0.0
        else:
            z = (-tau - float(shifts[i])) / sd
            out[i] = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return out


def conditional_gains(
    matvec: np.ndarray, diagonal: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """``v_i^2 / diag_i`` where the pivot clears its floor, else 0."""
    out = np.zeros(matvec.shape, dtype=matvec.dtype)
    for i in range(matvec.size):
        d = float(diagonal[i])
        if d > float(floor[i]):
            v = float(matvec[i])
            out[i] = (v * v) / d
    return out


def marginal_gains(
    weights: np.ndarray,
    matvec: np.ndarray,
    diagonal: np.ndarray,
    cleaned_mask: np.ndarray,
) -> np.ndarray:
    """``2 w_i v_i - w_i^2 diag_i`` for unclean components, 0 for cleaned."""
    out = np.zeros(matvec.shape, dtype=matvec.dtype)
    for i in range(matvec.size):
        if not cleaned_mask[i]:
            w = float(weights[i])
            out[i] = 2.0 * w * float(matvec[i]) - (w * w) * float(diagonal[i])
    return out


@contextmanager
def scalar_kernels() -> Iterator[None]:
    """Run every dispatched kernel through the loops above inside the block.

    Swaps the dispatch layer's active implementation table and restores it
    on exit, so engines built and run inside the block take the reference
    arithmetic.  The requested and effective tiers are left untouched.
    """
    saved = dispatch._ACTIVE
    dispatch._ACTIVE = {name: globals()[name] for name in saved}
    try:
        yield
    finally:
        dispatch._ACTIVE = saved
