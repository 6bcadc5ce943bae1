"""The MaxPr ("maximize surprise") objective.

``MaxPr(T) = Pr[ f(X) < f(u) - tau | X_{O \\ T} = u_{O \\ T} ]``

Cleaning the objects in ``T`` replaces their current values with fresh draws
from their distributions while every other object keeps its current value; the
objective is the probability that the query-function result drops by more than
``tau`` (a counterargument is found).  By convention the empty set has
objective value zero.

Strategies:

* :func:`surprise_probability_exact` — enumerate the joint support of ``T``
  (discrete distributions, independent errors).
* :func:`surprise_probability_monte_carlo` — sampling estimator, any
  distributions.
* :func:`surprise_probability_normal_linear` — closed form for affine query
  functions with independent normal errors (Lemma 3.3):
  ``Phi((-tau - shift) / sqrt(sum_{i in T} a_i^2 sigma_i^2))`` where ``shift``
  accounts for error models not centered at the current values.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import stats

from repro import kernels
from repro.claims.functions import ClaimFunction
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import NormalSpec, convolve_support

__all__ = [
    "surprise_probability_exact",
    "surprise_probability_monte_carlo",
    "surprise_probability_normal_linear",
    "surprise_probability_discrete_linear",
    "make_surprise_calculator",
    "SingletonSurpriseKernel",
]


_EXACT_BATCH_ROWS = 4096  # rows per batched block: bounds the (rows, n) matrix


def surprise_probability_exact(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    tau: float = 0.0,
    baseline: Optional[float] = None,
) -> float:
    """Exact MaxPr objective by enumerating the cleaning outcomes of ``T``.

    Only the cleaned objects are random; everything else stays at its current
    value, so the enumeration is over ``V_T`` alone (restricted further to the
    objects the query function references — cleaned objects the function
    ignores cannot change ``f``).  The joint support is evaluated in batched
    ``(worlds, n)`` blocks with ``evaluate_batch``.
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    current = database.current_values
    target = (function.evaluate(current) if baseline is None else baseline) - tau

    relevant = [i for i in cleaned_set if i in function.referenced_indices]
    if not relevant:
        return 0.0

    worlds, probabilities = database.joint_support_arrays(relevant)
    probability = 0.0
    for start in range(0, worlds.shape[0], _EXACT_BATCH_ROWS):
        block = worlds[start : start + _EXACT_BATCH_ROWS]
        block_probs = probabilities[start : start + _EXACT_BATCH_ROWS]
        matrix = np.tile(current, (block.shape[0], 1))
        matrix[:, relevant] = block
        results = function.evaluate_batch(matrix)
        probability += float(block_probs[results < target - 1e-12].sum())
    return float(probability)


def surprise_probability_monte_carlo(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng: np.random.Generator,
    tau: float = 0.0,
    samples: int = 2000,
    baseline: Optional[float] = None,
) -> float:
    """Monte-Carlo estimate of the MaxPr objective.

    Draws every cleaning outcome in one vectorized
    ``distribution.sample(rng, size=samples)`` call per cleaned column and
    evaluates the whole ``(samples, n)`` matrix with one ``evaluate_batch``
    call.
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    current = database.current_values
    target = (function.evaluate(current) if baseline is None else baseline) - tau

    matrix = np.tile(current, (samples, 1))
    for index in cleaned_set:
        matrix[:, index] = database[index].sample(rng, size=samples)
    results = function.evaluate_batch(matrix)
    return float(np.count_nonzero(results < target - 1e-12)) / samples


def surprise_probability_normal_linear(
    database: UncertainDatabase,
    weights: Sequence[float],
    cleaned: Iterable[int],
    tau: float = 0.0,
) -> float:
    """Closed-form MaxPr objective for an affine ``f`` with independent normal errors.

    With ``X_i ~ N(mu_i, sigma_i^2)`` independent and only the cleaned objects
    re-drawn, ``f(X') - f(u)`` is normal with mean
    ``sum_{i in T} w_i (mu_i - u_i)`` and variance
    ``sum_{i in T} w_i^2 sigma_i^2``, so the objective is a single normal CDF
    evaluation.  When the errors are centered at the current values the mean
    shift vanishes and maximizing the objective is equivalent to maximizing
    ``sum_{i in T} w_i^2 sigma_i^2`` (Lemma 3.3).
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    weights = np.asarray(weights, dtype=float)

    mean_shift = 0.0
    variance = 0.0
    for index in cleaned_set:
        obj = database[index]
        if not isinstance(obj.distribution, NormalSpec):
            raise TypeError(
                f"object {obj.name!r} does not have a normal error model; "
                "use the exact or Monte-Carlo objective instead"
            )
        w = weights[index]
        mean_shift += w * (obj.distribution.mean - obj.current_value)
        variance += (w**2) * obj.distribution.variance

    if variance <= 0.0:
        return 1.0 if mean_shift < -tau else 0.0
    return float(stats.norm.cdf((-tau - mean_shift) / np.sqrt(variance)))


def surprise_probability_discrete_linear(
    database: UncertainDatabase,
    weights: Sequence[float],
    cleaned: Iterable[int],
    tau: float = 0.0,
    max_exact_outcomes: int = 200_000,
) -> float:
    """MaxPr objective for a linear ``f`` over independent discrete errors.

    Only the cleaned objects are re-drawn, so
    ``f(X') - f(u) = sum_{i in T} w_i (X_i - u_i)`` — a weighted sum of
    independent discrete variables.  Its distribution is computed exactly by
    array-based sequential convolution (outer sums merged with ``np.unique``)
    as long as the number of outcomes stays below ``max_exact_outcomes``;
    beyond that the sum of many independent bounded terms is well approximated
    by a normal and the objective falls back to the central-limit closed form
    (the same shape as Lemma 3.3).
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    weights = np.asarray(weights, dtype=float)

    relevant = []
    outcome_count = 1
    for index in cleaned_set:
        obj = database[index]
        distribution = obj.distribution
        if isinstance(distribution, NormalSpec):
            raise TypeError(
                f"object {obj.name!r} has a normal error model; use the normal "
                "closed form or the Monte-Carlo objective instead"
            )
        weight = float(weights[index])
        if weight == 0.0:
            continue
        relevant.append((obj, distribution, weight))
        outcome_count *= distribution.support_size

    if not relevant:
        return 0.0

    if outcome_count > max_exact_outcomes:
        # Central-limit fallback: many independent bounded contributions.
        mean_shift = sum(w * (d.mean - o.current_value) for o, d, w in relevant)
        variance = sum((w**2) * d.variance for o, d, w in relevant)
        if variance <= 0.0:
            return 1.0 if mean_shift < -tau else 0.0
        return float(stats.norm.cdf((-tau - mean_shift) / np.sqrt(variance)))

    drops = np.zeros(1, dtype=float)
    masses = np.ones(1, dtype=float)
    for obj, distribution, weight in relevant:
        drops, masses = convolve_support(
            drops,
            masses,
            weight * (distribution.values - obj.current_value),
            distribution.probabilities,
        )
        if drops.size > max_exact_outcomes:
            # The merged support still blew up (irregular values); restart with
            # the central-limit fallback rather than grinding on.
            mean_shift = sum(w * (d.mean - o.current_value) for o, d, w in relevant)
            variance = sum((w**2) * d.variance for o, d, w in relevant)
            if variance <= 0.0:
                return 1.0 if mean_shift < -tau else 0.0
            return float(stats.norm.cdf((-tau - mean_shift) / np.sqrt(variance)))

    return float(masses[drops < -tau - 1e-12].sum())


class SingletonSurpriseKernel:
    """Batched ``Pr[f drops by > tau | clean {i}]`` for every object at once.

    The adaptive MaxPr policy needs, at every step, the singleton surprise
    probability of each affordable candidate *relative to the working
    database's current values*.  Re-drawing a single object ``i`` changes a
    linear ``f`` by ``w_i (X_i - u_i)`` — a per-object quantity that does not
    depend on any other object's value, and (crucially) does not change when
    *other* objects are revealed.  The kernel therefore precomputes the
    per-object drop statistics once against the base database and answers
    every later step with one vectorized pass; only the drop threshold
    ``tau`` varies, and revealed objects simply stop being candidates.

    Paths (mirroring :func:`make_surprise_calculator`'s preference order):

    * linear ``f`` + all-normal database — Lemma 3.3 closed form, one
      vectorized ``Phi`` over all candidates.  Note this stays exact for the
      whole adaptive run, whereas the teardown path loses the closed form
      after the first reveal (a cleaned object makes the database mixed and
      forces the Monte-Carlo fallback).
    * linear ``f`` + all-discrete database — per-object drop supports
      flattened into one array; each query is a vectorized comparison plus a
      segment sum (``np.add.reduceat``).
    * anything else — :attr:`supported` is False and callers fall back to a
      per-candidate calculator.

    ``tau`` is expected to be nonnegative (the adaptive policy clamps the
    required drop at zero), matching the scalar calculators' conventions.
    """

    def __init__(self, database: UncertainDatabase, function: ClaimFunction):
        self.database = database
        self.function = function
        self.mode: Optional[str] = None
        n = len(database)
        if not function.is_linear():
            return
        weights = function.weights(n)
        self._weights = weights
        if database.all_normal():
            self.mode = "normal"
            self._shift = weights * (database.means - database.current_values)
            self._sd = np.abs(weights) * database.stds
        elif database.all_discrete():
            self.mode = "discrete"
            drops: list = []
            masses: list = []
            lengths = np.empty(n, dtype=np.intp)
            current = database.current_values
            for i in range(n):
                distribution = database[i].distribution
                drops.append(weights[i] * (distribution.values - current[i]))
                masses.append(distribution.probabilities)
                lengths[i] = distribution.values.size
            self._drops = np.concatenate(drops)
            self._masses = np.concatenate(masses)
            offsets = np.zeros(n, dtype=np.intp)
            np.cumsum(lengths[:-1], out=offsets[1:])
            self._offsets = offsets

    @property
    def supported(self) -> bool:
        """True when a batched singleton path exists for this function/database."""
        return self.mode is not None

    def scores(self, tau: float) -> np.ndarray:
        """Vector of ``Pr[w_i (X_i - u_i) < -tau]`` for every object ``i``.

        Entries agree with the scalar calculators candidate by candidate:
        the normal path mirrors :func:`surprise_probability_normal_linear`
        (including the zero-variance tie convention) and the discrete path
        mirrors :func:`surprise_probability_discrete_linear` restricted to a
        single cleaned object.  Entries for already-revealed objects are
        meaningless by construction (they are never candidates again).
        """
        if self.mode == "normal":
            # Tier-dispatched: Phi((-tau - shift) / sd) with the sd <= 0
            # indicator convention of the scalar calculators.
            return np.asarray(
                kernels.normal_surprise_scores(self._shift, self._sd, tau),
                dtype=float,
            )
        if self.mode == "discrete":
            hit_mass = np.where(self._drops < -tau - 1e-12, self._masses, 0.0)
            return np.add.reduceat(hit_mass, self._offsets)
        raise TypeError(
            "no batched singleton path for this function/database combination; "
            "check .supported and fall back to a per-candidate calculator"
        )


def make_surprise_calculator(
    database: UncertainDatabase,
    function: ClaimFunction,
    tau: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    monte_carlo_samples: int = 4000,
    method: str = "auto",
):
    """Return a callable ``pr(cleaned) -> float`` choosing the best strategy.

    ``method`` is one of ``"auto"``, ``"normal"``, ``"convolution"``,
    ``"exact"``, ``"monte_carlo"``.  The automatic preference order is:
    closed form (linear + all-normal database), convolution (linear +
    all-discrete), exact enumeration (all-discrete), Monte-Carlo fallback.
    """
    valid = {"auto", "normal", "convolution", "exact", "monte_carlo"}
    if method not in valid:
        raise ValueError(f"method must be one of {sorted(valid)}")

    if method in {"auto", "normal"} and function.is_linear() and database.all_normal():
        weights = function.weights(len(database))

        def normal_pr(cleaned: Iterable[int]) -> float:
            return surprise_probability_normal_linear(database, weights, cleaned, tau=tau)

        return normal_pr

    if method in {"auto", "convolution"} and function.is_linear() and database.all_discrete():
        weights = function.weights(len(database))

        def convolution_pr(cleaned: Iterable[int]) -> float:
            return surprise_probability_discrete_linear(database, weights, cleaned, tau=tau)

        return convolution_pr

    if method in {"auto", "exact"} and database.all_discrete():

        def exact_pr(cleaned: Iterable[int]) -> float:
            return surprise_probability_exact(database, function, cleaned, tau=tau)

        return exact_pr

    sampler_rng = rng if rng is not None else np.random.default_rng(0)

    def monte_carlo_pr(cleaned: Iterable[int]) -> float:
        return surprise_probability_monte_carlo(
            database, function, cleaned, sampler_rng, tau=tau, samples=monte_carlo_samples
        )

    return monte_carlo_pr
