"""Expected post-cleaning variance EV(T) — the MinVar objective.

``EV(T) = sum_{v in V_T} Pr[X_T = v] * Var[f(X) | X_T = v]``

Three computation strategies are provided, matching the paper:

* :func:`expected_variance_exact` — brute-force enumeration of the joint
  support (restricted to the objects the query function references).  This is
  the ground truth used by tests and by the OPT baseline on small instances.
* :class:`DecomposedEVCalculator` — the Theorem 3.8 computation for
  claim-quality measures (bias / duplicity / fragility): the measure is a sum
  of per-perturbation terms, so the conditional variance decomposes into
  per-term variances plus pairwise covariances of terms that share objects,
  and every piece only needs to enumerate the worlds of the few objects it
  references.  Memoized so greedy selection loops stay fast.
* :func:`expected_variance_monte_carlo` — sampling estimator for arbitrary
  query functions and large supports.

For affine query functions with uncorrelated errors the closed form
``EV(T) = sum_{i not in T} a_i^2 Var[X_i]`` (Lemma 3.1) is exposed as
:func:`linear_expected_variance`.

Every strategy runs on batched ``(worlds, n)`` arrays (``joint_support_arrays``
worlds, ``evaluate_batch`` claim evaluation, array-based pmf convolution),
which is what makes paper-scale instances (Figure 10, n = 10,000+) tractable.
The scalar loops that walk per-world Python dicts, as the original
implementation did, live with the tests as the reference the randomized
equivalence suites pit these kernels against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.claims.quality import ClaimQualityMeasure, QualityTerm
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution as DiscreteDistributionType
from repro.uncertainty.distributions import convolve_support

__all__ = [
    "expected_variance_exact",
    "expected_variance_monte_carlo",
    "linear_expected_variance",
    "weighted_sum_pmf",
    "weighted_sum_pmf_arrays",
    "iter_value_blocks",
    "measure_mean",
    "DecomposedEVCalculator",
    "ev_strategy",
    "make_ev_calculator",
]


def weighted_sum_pmf_arrays(
    database: UncertainDatabase,
    indices: Sequence[int],
    weights: Mapping[int, float],
    offset: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pmf of ``offset + sum_i weights[i] * X_i`` as ``(values, probabilities)`` arrays.

    Array-based sequential convolution over the (independent, discrete)
    objects at ``indices``: each step forms the outer sum of the accumulated
    support with the next object's weighted support and merges equal sums with
    ``np.unique`` + ``np.bincount``.  Values come back sorted ascending.  This
    is the workhorse of the fast per-term expected-variance path: a linear
    perturbation claim's value distribution is exactly such a weighted sum.
    """
    values = np.array([float(offset)], dtype=float)
    probabilities = np.array([1.0], dtype=float)
    for index in indices:
        distribution = database[index].distribution
        if not isinstance(distribution, DiscreteDistributionType):
            raise TypeError("weighted_sum_pmf requires discrete distributions")
        weight = float(weights.get(index, 0.0))
        values, probabilities = convolve_support(
            values, probabilities, weight * distribution.values, distribution.probabilities
        )
    return values, probabilities


def weighted_sum_pmf(
    database: UncertainDatabase,
    indices: Sequence[int],
    weights: Mapping[int, float],
    offset: float = 0.0,
) -> List[Tuple[float, float]]:
    """Pmf of ``offset + sum_i weights[i] * X_i`` as sorted ``(value, probability)`` pairs.

    Thin list-of-pairs view over :func:`weighted_sum_pmf_arrays`, kept for
    callers that iterate the support; the kernels use the array form directly.
    """
    values, probabilities = weighted_sum_pmf_arrays(database, indices, weights, offset)
    return list(zip(values.tolist(), probabilities.tolist()))


# Shared trivial pmf (the empty-axes outer product); read-only.
_SINGLETON_PROBABILITY = np.ones(1, dtype=float)
_SINGLETON_PROBABILITY.setflags(write=False)

# Rows per batched value-matrix block: bounds kernel memory at rows * n floats
# even when a joint support has millions of worlds.
_BATCH_ROWS = 4096


def iter_value_blocks(
    base_values: np.ndarray,
    free_indices: Sequence[int],
    free_worlds: np.ndarray,
    free_probabilities: np.ndarray,
):
    """Yield ``(matrix, block_probabilities)`` blocks of a free joint support.

    Each matrix is a fresh ``(rows, n)`` tile of ``base_values`` with the free
    columns assigned from ``free_worlds``; rows are capped at
    :data:`_BATCH_ROWS` so a large joint support never materializes the full
    ``worlds x n`` product at once.  Callers may overwrite further (cleaned)
    columns of the yielded matrix in place.
    """
    free_indices = list(free_indices)
    for start in range(0, free_worlds.shape[0], _BATCH_ROWS):
        block = free_worlds[start : start + _BATCH_ROWS]
        matrix = np.tile(base_values, (block.shape[0], 1))
        if free_indices:
            matrix[:, free_indices] = block
        yield matrix, free_probabilities[start : start + _BATCH_ROWS]


# --------------------------------------------------------------------------- #
# Exact (brute force) computation
# --------------------------------------------------------------------------- #
def expected_variance_exact(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
) -> float:
    """Exact EV(T) by enumerating the joint support of the referenced objects.

    Requires discrete distributions (discretize normals first) and assumes
    independent errors.  Complexity is exponential in the number of referenced
    objects, so this is only suitable for small instances and for validating
    the decomposed / Monte-Carlo computations.

    The free worlds are batched into one ``(worlds, n)`` matrix per cleaning
    outcome and the claim is evaluated with ``evaluate_batch``.
    """
    cleaned_set = frozenset(int(i) for i in cleaned)
    referenced = function.referenced_indices
    base_values = database.current_values

    cleaned_referenced = sorted(cleaned_set & referenced)
    free_referenced = sorted(referenced - cleaned_set)

    cleaned_worlds, cleaned_probs = database.joint_support_arrays(cleaned_referenced)
    free_worlds, free_probs = database.joint_support_arrays(free_referenced)
    first = np.zeros(cleaned_worlds.shape[0], dtype=float)
    second = np.zeros(cleaned_worlds.shape[0], dtype=float)
    for matrix, block_probs in iter_value_blocks(
        base_values, free_referenced, free_worlds, free_probs
    ):
        for c, world in enumerate(cleaned_worlds):
            if cleaned_referenced:
                matrix[:, cleaned_referenced] = world
            results = function.evaluate_batch(matrix)
            first[c] += results @ block_probs
            second[c] += (results * results) @ block_probs
    conditional = np.maximum(second - first * first, 0.0)
    return float(cleaned_probs @ conditional)


def expected_variance_monte_carlo(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng: np.random.Generator,
    outer_samples: int = 200,
    inner_samples: int = 200,
) -> float:
    """Monte-Carlo estimate of EV(T).

    Samples cleaning outcomes for ``T`` (outer loop) and, for each outcome,
    samples the remaining objects to estimate the conditional variance.  Works
    for any distribution family, including continuous normals.

    The inner loop is a single tensor evaluation: one reusable
    ``(inner_samples, n)`` matrix gets the cleaning outcome broadcast into the
    cleaned columns and a vectorized ``distribution.sample(rng, size)`` draw
    per free column, then one ``evaluate_batch`` call produces every inner
    draw at once — no per-sample value-vector copies.
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
        draws = function.evaluate_batch(matrix)
        total += float(np.var(draws))
    return total / outer_samples


def linear_expected_variance(
    database: UncertainDatabase,
    weights: Sequence[float],
    cleaned: Iterable[int],
) -> float:
    """Closed-form EV(T) for an affine query function with uncorrelated errors.

    Lemma 3.1: ``EV(T) = sum_{i not in T} w_i**2 * Var[X_i]`` regardless of the
    cleaning outcome.
    """
    weights = np.asarray(weights, dtype=float)
    variances = database.variances
    cleaned_set = set(int(i) for i in cleaned)
    mask = np.ones(len(database), dtype=bool)
    for index in cleaned_set:
        mask[index] = False
    return float(np.sum((weights[mask] ** 2) * variances[mask]))


# --------------------------------------------------------------------------- #
# Decomposed computation (Theorem 3.8)
# --------------------------------------------------------------------------- #
class DecomposedEVCalculator:
    """EV(T) for a sum-of-terms query function, per Theorem 3.8.

    The conditional variance of ``f = sum_k g_k`` decomposes as

    ``Var[f | t] = sum_k Var[g_k | t] + 2 * sum_{k < k'} Cov[g_k, g_k' | t]``

    and, with independent errors, each expectation-over-outcomes piece only
    depends on the part of ``T`` that intersects the objects referenced by the
    term (or the pair of terms).  Every piece is memoized on that intersection,
    so evaluating EV for the many nested sets visited by a greedy loop reuses
    almost all the work.

    Pairs of terms whose referenced sets are disjoint are independent under
    the independence assumption and contribute zero covariance; they are
    skipped entirely.

    Every piece runs on batched-array kernels: array pmf convolution for
    linear-claim terms, ``joint_support_arrays`` + ``evaluate_batch`` grids
    for generic terms and pairs.
    """

    def __init__(self, database: UncertainDatabase, measure: ClaimQualityMeasure):
        if not isinstance(measure, ClaimQualityMeasure):
            raise TypeError(
                "the decomposed EV computation needs a claim-quality measure "
                "(a sum of per-perturbation terms); use expected_variance_exact "
                "or make_ev_calculator for arbitrary query functions"
            )
        if not database.all_discrete():
            raise TypeError(
                "the decomposed EV computation enumerates discrete supports; "
                "call database.discretized() first"
            )
        self.database = database
        self.measure = measure
        self.terms: List[QualityTerm] = measure.terms
        self._base_values = database.current_values
        # Pairs of terms that can ever be correlated (shared referenced objects).
        self._interacting_pairs: List[Tuple[int, int]] = [
            (k, l)
            for k in range(len(self.terms))
            for l in range(k + 1, len(self.terms))
            if self.terms[k].referenced_indices & self.terms[l].referenced_indices
        ]
        # Inverted indexes: object -> terms / interacting pairs referencing it.
        # marginal_gain is called once per candidate per greedy round, so it
        # must not scan all terms to find the handful that contain the
        # candidate.
        self._terms_by_object: Dict[int, List[int]] = {}
        for k, term in enumerate(self.terms):
            for i in term.referenced_indices:
                self._terms_by_object.setdefault(i, []).append(k)
        self._pairs_by_object: Dict[int, List[Tuple[int, int]]] = {}
        self._pair_union_refs: Dict[Tuple[int, int], FrozenSet[int]] = {}
        for k, l in self._interacting_pairs:
            union = self.terms[k].referenced_indices | self.terms[l].referenced_indices
            self._pair_union_refs[(k, l)] = frozenset(union)
            for i in union:
                self._pairs_by_object.setdefault(i, []).append((k, l))
        # Memo tables are keyed piece-first (term index / pair) with an inner
        # dict per piece, so `condition` can drop exactly the pieces a reveal
        # invalidates and share every other piece's entries with the parent.
        self._variance_cache: Dict[int, Dict[FrozenSet[int], float]] = {}
        self._covariance_cache: Dict[Tuple[int, int], Dict[FrozenSet[int], float]] = {}
        # Per-term transformed outer-sum grids for the linear fast path
        # (built lazily; None marks terms whose joint support is too large).
        self._term_grid_cache: Dict[int, Optional[Tuple]] = {}
        # Standalone (empty-prefix) gain vector, shared with rebased children
        # and patched entry-wise: a delta only re-prices objects whose terms
        # or pairs the delta touched.
        self._standalone_gains: Optional[np.ndarray] = None
        self._stale_standalone: set = set()

    # -- single-term pieces ------------------------------------------------ #
    def _term_expected_variance(self, k: int, cleaned: FrozenSet[int]) -> float:
        """``E_T[ Var[g_k | X_{T ∩ R_k}] ]`` for term ``k``."""
        term = self.terms[k]
        relevant_cleaned = frozenset(cleaned & term.referenced_indices)
        cache = self._variance_cache.get(k)
        if cache is None:
            cache = self._variance_cache[k] = {}
        if relevant_cleaned in cache:
            return cache[relevant_cleaned]

        free = sorted(term.referenced_indices - relevant_cleaned)
        if (
            term.claim is not None
            and term.transform is not None
            and term.claim.is_linear()
        ):
            total = self._linear_term_expected_variance(k, term, sorted(relevant_cleaned), free)
        else:
            total = self._generic_term_expected_variance(term, sorted(relevant_cleaned), free)
        cache[relevant_cleaned] = total
        return total

    # Joint supports beyond this size skip the precomputed grid and fall back
    # to the (merging) pmf-convolution kernel.
    _GRID_SIZE_LIMIT = 200_000

    def _linear_term_grid(self, k: int) -> Optional[Tuple]:
        """Cached transformed outer-sum grid for the linear-claim term ``k``.

        The term's claim value over its joint support is the outer sum of the
        members' weighted supports (plus the intercept); the scalar transform
        is applied exactly once over that grid.  Returns the cached tuple
        ``(g, g_squared, position, probabilities, g_flat, g_squared_flat,
        joint_probabilities)`` where ``g`` has one axis per member (axis order
        = sorted members, ``position`` maps member -> axis), the ``*_flat``
        entries are flattened views for the no-cleaning fast path and
        ``joint_probabilities`` is the flattened outer product of all axis
        probabilities.  Returns ``None`` when the joint support exceeds
        :attr:`_GRID_SIZE_LIMIT`.
        """
        if k in self._term_grid_cache:
            return self._term_grid_cache[k]
        term = self.terms[k]
        members = sorted(term.referenced_indices)
        weights = term.claim.sparse_weights
        contributions = []
        probabilities = []
        total = 1
        for i in members:
            distribution = self.database[i].distribution
            contributions.append(float(weights.get(i, 0.0)) * distribution.values)
            probabilities.append(distribution.probabilities)
            total *= distribution.values.size
        if total > self._GRID_SIZE_LIMIT:
            self._term_grid_cache[k] = None
            return None
        grid = np.array(float(term.claim.intercept()), dtype=float)
        for contribution in contributions:
            grid = grid[..., None] + contribution
        g = term.apply_transform(grid)
        g_squared = g * g
        position = {i: axis for axis, i in enumerate(members)}
        joint_probs = self._axis_probabilities(probabilities, list(range(len(members))))
        entry = (
            g,
            g_squared,
            position,
            probabilities,
            g.reshape(-1),
            g_squared.reshape(-1),
            joint_probs,
        )
        self._term_grid_cache[k] = entry
        return entry

    @staticmethod
    def _axis_probabilities(probabilities: List[np.ndarray], axes: Sequence[int]) -> np.ndarray:
        """Flattened outer product of the per-axis probabilities at ``axes``."""
        if not axes:
            return _SINGLETON_PROBABILITY
        flat = probabilities[axes[0]]
        for axis in axes[1:]:
            flat = (flat[:, None] * probabilities[axis]).reshape(-1)
        return flat

    def _linear_term_expected_variance(
        self, k: int, term: QualityTerm, cleaned: Sequence[int], free: Sequence[int]
    ) -> float:
        """Fast path: the term is a scalar transform of a weighted sum.

        The expected conditional variance only needs the ``cleaned x free``
        outer-sum grid of the term's support: the transform is applied once
        per term (cached across every cleaned set the greedy loop visits) and
        each evaluation reduces the grid with two matrix–vector products
        against the free-world probabilities.  Terms whose joint support is
        too large to materialize use the array pmf-convolution kernel instead,
        which merges equal sums as it goes.
        """
        grid_entry = self._linear_term_grid(k)
        if grid_entry is not None:
            g, g_squared, position, probabilities, g_flat, g_sq_flat, joint_probs = grid_entry
            if not free:
                # Every referenced object cleaned: the conditional variance is
                # identically zero.
                return 0.0
            if not cleaned:
                first = g_flat @ joint_probs
                second = g_sq_flat @ joint_probs
                return float(max(second - first * first, 0.0))
            cleaned_axes = [position[i] for i in cleaned]
            free_axes = [position[i] for i in free]
            permutation = (*cleaned_axes, *free_axes)
            cleaned_size = 1
            for axis in cleaned_axes:
                cleaned_size *= g.shape[axis]
            g2d = g.transpose(permutation).reshape(cleaned_size, -1)
            g2d_squared = g_squared.transpose(permutation).reshape(cleaned_size, -1)
            free_probs = self._axis_probabilities(probabilities, free_axes)
            cleaned_probs = self._axis_probabilities(probabilities, cleaned_axes)
            first = g2d @ free_probs
            second = g2d_squared @ free_probs
            conditional = np.maximum(second - first * first, 0.0)
            return float(cleaned_probs @ conditional)

        weights = term.claim.sparse_weights
        offset = term.claim.intercept()
        cleaned_values, cleaned_probs = weighted_sum_pmf_arrays(
            self.database, cleaned, weights, offset=offset
        )
        free_values, free_probs = weighted_sum_pmf_arrays(
            self.database, free, weights, offset=0.0
        )
        grid = term.apply_transform(cleaned_values[:, None] + free_values[None, :])
        first = grid @ free_probs
        second = (grid * grid) @ free_probs
        conditional = np.maximum(second - first * first, 0.0)
        return float(cleaned_probs @ conditional)

    def _generic_term_expected_variance(
        self, term: QualityTerm, cleaned: Sequence[int], free: Sequence[int]
    ) -> float:
        """General path: batched value matrices for arbitrary terms.

        The free worlds are streamed in bounded ``(rows, n)`` blocks; each
        cleaned world is broadcast into the cleaned columns and the term is
        evaluated with ``evaluate_batch`` — a per-row loop only for terms
        without batchable structure.
        """
        cleaned = list(cleaned)
        free = list(free)
        cleaned_worlds, cleaned_probs = self.database.joint_support_arrays(cleaned)
        free_worlds, free_probs = self.database.joint_support_arrays(free)

        first = np.zeros(cleaned_worlds.shape[0], dtype=float)
        second = np.zeros(cleaned_worlds.shape[0], dtype=float)
        for matrix, block_probs in iter_value_blocks(
            self._base_values, free, free_worlds, free_probs
        ):
            for c, world in enumerate(cleaned_worlds):
                if cleaned:
                    matrix[:, cleaned] = world
                g = term.evaluate_batch(matrix)
                first[c] += g @ block_probs
                second[c] += (g * g) @ block_probs
        conditional = np.maximum(second - first * first, 0.0)
        return float(cleaned_probs @ conditional)

    # -- pairwise pieces ---------------------------------------------------- #
    def _pair_expected_covariance(self, k: int, l: int, cleaned: FrozenSet[int]) -> float:
        """``E_T[ Cov[g_k, g_l | X_{T ∩ (R_k ∪ R_l)}] ]`` for an interacting pair."""
        term_k = self.terms[k]
        term_l = self.terms[l]
        union = term_k.referenced_indices | term_l.referenced_indices
        relevant_cleaned = frozenset(cleaned & union)
        cache = self._covariance_cache.get((k, l))
        if cache is None:
            cache = self._covariance_cache[(k, l)] = {}
        if relevant_cleaned in cache:
            return cache[relevant_cleaned]

        free = sorted(union - relevant_cleaned)
        cleaned_sorted = sorted(relevant_cleaned)
        total = self._pair_expected_covariance_batched(term_k, term_l, cleaned_sorted, free)
        cache[relevant_cleaned] = total
        return total

    def _pair_expected_covariance_batched(
        self, term_k: QualityTerm, term_l: QualityTerm, cleaned: List[int], free: List[int]
    ) -> float:
        """Batched-matrix covariance: both terms evaluated per free-world block."""
        cleaned_worlds, cleaned_probs = self.database.joint_support_arrays(cleaned)
        free_worlds, free_probs = self.database.joint_support_arrays(free)

        mean_k = np.zeros(cleaned_worlds.shape[0], dtype=float)
        mean_l = np.zeros(cleaned_worlds.shape[0], dtype=float)
        mean_kl = np.zeros(cleaned_worlds.shape[0], dtype=float)
        for matrix, block_probs in iter_value_blocks(
            self._base_values, free, free_worlds, free_probs
        ):
            for c, world in enumerate(cleaned_worlds):
                if cleaned:
                    matrix[:, cleaned] = world
                gk = term_k.evaluate_batch(matrix)
                gl = term_l.evaluate_batch(matrix)
                mean_k[c] += gk @ block_probs
                mean_l[c] += gl @ block_probs
                mean_kl[c] += (gk * gl) @ block_probs
        return float(cleaned_probs @ (mean_kl - mean_k * mean_l))

    # -- public API ---------------------------------------------------------- #
    def expected_variance(self, cleaned: Iterable[int]) -> float:
        """EV(T) for the configured measure."""
        cleaned_set = frozenset(int(i) for i in cleaned)
        total = 0.0
        for k in range(len(self.terms)):
            total += self._term_expected_variance(k, cleaned_set)
        for k, l in self._interacting_pairs:
            total += 2.0 * self._pair_expected_covariance(k, l, cleaned_set)
        # Numerical noise can push a true zero slightly negative.
        return float(max(total, 0.0))

    def marginal_gain(self, cleaned: Iterable[int], candidate: int) -> float:
        """``EV(T) - EV(T ∪ {candidate})`` — the variance reduction from cleaning one more object.

        Only terms and pairs whose referenced sets contain ``candidate`` can
        change, so the difference is computed from those pieces alone — and
        each piece is restricted to ``cleaned`` intersected with its own
        referenced objects before the memo lookup, so passing a large cleaned
        set (a warm-started sweep prefix) costs a few small-set intersections,
        not a copy of the whole set.  Passing an already-built ``frozenset``
        of ints skips the normalization entirely.
        """
        cleaned_set = (
            cleaned if isinstance(cleaned, frozenset) else frozenset(int(i) for i in cleaned)
        )
        candidate = int(candidate)
        if candidate in cleaned_set:
            return 0.0
        gain = 0.0
        for k in self._terms_by_object.get(candidate, ()):
            relevant = cleaned_set & self.terms[k].referenced_indices
            gain += self._term_expected_variance(k, relevant)
            gain -= self._term_expected_variance(k, relevant | {candidate})
        for k, l in self._pairs_by_object.get(candidate, ()):
            relevant = cleaned_set & self._pair_union_refs[(k, l)]
            gain += 2.0 * self._pair_expected_covariance(k, l, relevant)
            gain -= 2.0 * self._pair_expected_covariance(k, l, relevant | {candidate})
        return float(gain)

    def standalone_gains(self) -> np.ndarray:
        """Read-only vector of ``marginal_gain(∅, i)`` for every object.

        Built once and then patched entry-wise across :meth:`rebased` /
        :meth:`condition` children: a delta marks stale exactly the objects
        that share a term or pair with the changed object, so the streaming
        engine re-prices a handful of entries per event instead of n.
        """
        n = len(self.database)
        empty = frozenset()
        if self._standalone_gains is None:
            gains = np.array(
                [self.marginal_gain(empty, i) for i in range(n)], dtype=float
            )
            gains.setflags(write=False)
            self._standalone_gains = gains
        elif self._stale_standalone:
            gains = self._standalone_gains.copy()
            for i in self._stale_standalone:
                gains[i] = self.marginal_gain(empty, i)
            gains.setflags(write=False)
            self._standalone_gains = gains
            self._stale_standalone = set()
        return self._standalone_gains

    def rebased(
        self, database: UncertainDatabase, invalidated: Iterable[int] = ()
    ) -> "DecomposedEVCalculator":
        """Calculator re-pointed at ``database``, dropping pieces the given
        objects invalidate.

        The general form of :meth:`condition`: the term decomposition, the
        inverted indexes, and the memo/grid entries of every term and pair
        that references *none* of the ``invalidated`` objects are shared with
        this calculator, while the affected pieces are dropped and recomputed
        lazily against the new database.  Shared inner memo dicts are
        extended in place by whichever calculator computes a piece first, so
        a chain of rebased calculators (one per stream event) amortizes the
        unaffected work across the whole stream.  A cost-only overlay passes
        an empty ``invalidated`` and shares everything — expected variance
        never reads costs.  The new database may be longer than the current
        one (append overlays); appended objects are not referenced by any
        existing term, so their standalone gains are zero until the measure
        itself changes.
        """
        other = object.__new__(type(self))
        other.database = database
        other.measure = self.measure
        other.terms = self.terms
        other._base_values = database.current_values
        other._interacting_pairs = self._interacting_pairs
        other._terms_by_object = self._terms_by_object
        other._pairs_by_object = self._pairs_by_object
        other._pair_union_refs = self._pair_union_refs
        variance_cache = dict(self._variance_cache)
        grid_cache = dict(self._term_grid_cache)
        covariance_cache = dict(self._covariance_cache)
        affected: set = set()
        for index in invalidated:
            index = int(index)
            affected.add(index)
            for k in self._terms_by_object.get(index, ()):
                variance_cache.pop(k, None)
                grid_cache.pop(k, None)
                affected |= self.terms[k].referenced_indices
            for pair in self._pairs_by_object.get(index, ()):
                covariance_cache.pop(pair, None)
                affected |= self._pair_union_refs[pair]
        other._variance_cache = variance_cache
        other._covariance_cache = covariance_cache
        other._term_grid_cache = grid_cache
        if self._standalone_gains is not None:
            previous = self._standalone_gains
            stale = set(self._stale_standalone) | affected
            if len(database) > previous.shape[0]:
                extended = np.zeros(len(database), dtype=float)
                extended[: previous.shape[0]] = previous
                extended.setflags(write=False)
                other._standalone_gains = extended
            else:
                other._standalone_gains = previous
            other._stale_standalone = stale
        else:
            other._standalone_gains = None
            other._stale_standalone = set()
        return other

    def condition(self, index: int, value: float) -> "DecomposedEVCalculator":
        """Calculator for the database with object ``index`` revealed to ``value``.

        The incremental counterpart of building a fresh calculator on
        ``database.cleaned({index: value})``: the term decomposition, the
        inverted indexes, and the memo/grid entries of every term and pair
        that does *not* reference the revealed object are shared with this
        calculator (a reveal cannot change a piece that never reads the
        object), while the affected pieces are invalidated and recomputed
        lazily against the conditioned overlay database.  Shared inner memo
        dicts are extended in place by whichever calculator computes a piece
        first, so a fleet of conditioned calculators (one per adaptive trial)
        amortizes the unaffected work across the whole batch.  Results match
        the from-scratch rebuild exactly.
        """
        index = int(index)
        return self.rebased(self.database.conditioned(index, value), (index,))

    @property
    def interacting_pairs(self) -> List[Tuple[int, int]]:
        """Indices of term pairs that share referenced objects (may be correlated)."""
        return list(self._interacting_pairs)

    def cache_sizes(self) -> Tuple[int, int]:
        """Number of memoized single-term and pairwise pieces (for diagnostics)."""
        return (
            sum(len(entries) for entries in self._variance_cache.values()),
            sum(len(entries) for entries in self._covariance_cache.values()),
        )


def measure_mean(database: UncertainDatabase, measure: ClaimQualityMeasure) -> float:
    """Expected value of a claim-quality measure over the database's worlds.

    Sums per-term expectations; linear-claim terms use the array weighted-sum
    pmf fast path (one vectorized transform + dot product per term), other
    terms evaluate batched joint-support matrices of their referenced objects.
    """
    total = 0.0
    base_values = database.current_values
    for term in measure.terms:
        if (
            term.claim is not None
            and term.transform is not None
            and term.claim.is_linear()
            and database.all_discrete()
        ):
            values, probabilities = weighted_sum_pmf_arrays(
                database,
                sorted(term.referenced_indices),
                term.claim.sparse_weights,
                offset=term.claim.intercept(),
            )
            total += float(probabilities @ term.apply_transform(values))
            continue
        referenced = sorted(term.referenced_indices)
        worlds, probabilities = database.joint_support_arrays(referenced)
        for matrix, block_probs in iter_value_blocks(
            base_values, referenced, worlds, probabilities
        ):
            total += float(block_probs @ term.evaluate_batch(matrix))
    return float(total)


def ev_strategy(database: UncertainDatabase, function: ClaimFunction) -> str:
    """Which EV strategy :func:`make_ev_calculator` will pick, as a name.

    One of ``"decomposed"``, ``"linear"``, ``"exact"`` — the rows of the
    strategy table below, first match winning.  Exposed so callers that
    specialize per strategy (the incremental adaptive engine) route exactly
    like the calculator factory instead of duplicating the predicates.
    """
    if isinstance(function, ClaimQualityMeasure) and database.all_discrete():
        return "decomposed"
    if function.is_linear():
        return "linear"
    return "exact"


def make_ev_calculator(database: UncertainDatabase, function: ClaimFunction):
    """Return a callable ``ev(cleaned) -> float`` choosing the best strategy.

    Strategy table (first matching row wins):

    ========================  =======================  ===========================
    query function            database                 kernel
    ========================  =======================  ===========================
    ClaimQualityMeasure       all-discrete             Theorem 3.8 decomposition
                                                       (vectorized, memoized)
    linear claim              any (uncorrelated)       Lemma 3.1 closed form
    anything else             all-discrete supports    exact enumeration over
                                                       batched joint supports
    ========================  =======================  ===========================

    The decomposed and exact rows both run the batched-array kernels
    (``joint_support_arrays`` worlds + ``evaluate_batch`` claims, array pmf
    convolution for linear-claim terms).  Exact enumeration is exponential
    in the referenced set, so it only suits small instances.
    """
    strategy = ev_strategy(database, function)
    if strategy == "decomposed":
        calculator = DecomposedEVCalculator(database, function)
        return calculator.expected_variance
    if strategy == "linear":
        weights = function.weights(len(database))

        def linear_ev(cleaned: Iterable[int]) -> float:
            return linear_expected_variance(database, weights, cleaned)

        return linear_ev

    def exact_ev(cleaned: Iterable[int]) -> float:
        return expected_variance_exact(database, function, cleaned)

    return exact_ev
