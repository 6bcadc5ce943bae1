"""Randomized equivalence tests: vectorized kernels vs retained scalar paths.

Every batched-array kernel added by the vectorized kernel layer is pitted
against its scalar twin from ``reference`` on randomized instances:

* array pmf convolution (:func:`weighted_sum_pmf`) vs the dict-based
  ``weighted_sum_pmf_scalar``;
* batched exact EV (:func:`expected_variance_exact`) vs
  ``expected_variance_exact_scalar``;
* the decomposed Theorem 3.8 calculator (grids + batched supports) vs its
  scalar twin, for all three quality measures *and* an opaque (non-whitelisted)
  strength function that forces the loop fallbacks;
* batched exact surprise probability vs ``surprise_probability_exact_scalar``;
* both Monte-Carlo estimators, which share one RNG stream across paths so a
  fixed seed must give matching estimates;
* ``evaluate_batch`` vs per-row ``evaluate`` for every claim shape;
* ``joint_support_arrays`` vs ``enumerate_joint_support``.

Tolerance is 1e-9 throughout (the acceptance bar for the kernel layer).
"""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim, SumClaim, ThresholdClaim, WindowSumClaim
from repro.claims.perturbations import PerturbationSet
from repro.claims.quality import Bias, Duplicity, Fragility
from repro.claims.strength import lower_is_stronger, subtraction_strength
from repro.core.expected_variance import (
    DecomposedEVCalculator,
    expected_variance_exact,
    expected_variance_monte_carlo,
    weighted_sum_pmf,
)
from repro.core.surprise import (
    surprise_probability_exact,
    surprise_probability_monte_carlo,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import DiscreteDistribution
from repro.uncertainty.objects import UncertainObject
from reference.expected_variance import (
    ScalarDecomposedEVCalculator,
    expected_variance_exact_scalar,
    expected_variance_monte_carlo_scalar,
    weighted_sum_pmf_scalar,
)
from reference.surprise import (
    surprise_probability_exact_scalar,
    surprise_probability_monte_carlo_scalar,
)

ATOL = 1e-9
SEEDS = list(range(20))


def random_database(rng: np.random.Generator, n: int, max_support: int = 3) -> UncertainDatabase:
    """A small random all-discrete database (irregular supports and costs)."""
    objects = []
    for i in range(n):
        size = int(rng.integers(1, max_support + 1))
        values = np.round(rng.uniform(-5.0, 15.0, size=size), 3)
        probabilities = rng.uniform(0.1, 1.0, size=size)
        objects.append(
            UncertainObject(
                name=f"x{i}",
                current_value=float(np.round(rng.uniform(-5.0, 15.0), 3)),
                distribution=DiscreteDistribution(values, probabilities),
                cost=float(rng.uniform(0.5, 3.0)),
            )
        )
    return UncertainDatabase(objects)


def random_measure(rng: np.random.Generator, database: UncertainDatabase, cls, strength):
    """A quality measure over random window-sum perturbations."""
    n = len(database)
    width = int(rng.integers(1, 4))
    starts = sorted(rng.choice(n - width + 1, size=min(3, n - width + 1), replace=False))
    claims = tuple(WindowSumClaim(int(s), width) for s in starts)
    sensibilities = tuple(float(s) for s in rng.uniform(0.2, 1.0, size=len(claims)))
    perturbations = PerturbationSet(claims[0], claims, sensibilities)
    return cls(
        perturbations,
        database.current_values,
        strength=strength,
        baseline=float(np.round(rng.uniform(0.0, 20.0), 3)),
    )


def random_cleaned(rng: np.random.Generator, n: int):
    size = int(rng.integers(0, n + 1))
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_sum_pmf_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=5)
    indices = random_cleaned(rng, len(db))
    weights = {i: float(np.round(rng.uniform(-2.0, 2.0), 3)) for i in indices}
    offset = float(np.round(rng.uniform(-1.0, 1.0), 3))
    fast = weighted_sum_pmf(db, indices, weights, offset=offset)
    reference = weighted_sum_pmf_scalar(db, indices, weights, offset=offset)
    assert len(fast) == len(reference)
    for (fv, fp), (rv, rp) in zip(fast, reference):
        assert fv == pytest.approx(rv, abs=ATOL)
        assert fp == pytest.approx(rp, abs=ATOL)
    assert sum(p for _, p in fast) == pytest.approx(1.0, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_joint_support_arrays_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=5)
    indices = random_cleaned(rng, len(db))[:3]
    worlds, probabilities = db.joint_support_arrays(indices)
    enumerated = list(db.enumerate_joint_support(indices))
    assert worlds.shape == (len(enumerated), len(indices))
    for row, p, (assignment, probability) in zip(worlds, probabilities, enumerated):
        assert p == pytest.approx(probability, abs=ATOL)
        for column, index in enumerate(indices):
            assert row[column] == pytest.approx(assignment[index], abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_ev_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=5)
    if seed % 2:
        claim = ThresholdClaim(
            SumClaim(range(len(db))), float(rng.uniform(0.0, 30.0)), op="<"
        )
    else:
        claim = LinearClaim(
            {i: float(np.round(rng.uniform(-2.0, 2.0), 3)) for i in range(len(db))}
        )
    cleaned = random_cleaned(rng, len(db))
    fast = expected_variance_exact(db, claim, cleaned)
    reference = expected_variance_exact_scalar(db, claim, cleaned)
    assert fast == pytest.approx(reference, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_decomposed_ev_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=6)
    cls = (Bias, Duplicity, Fragility)[seed % 3]
    strength = (subtraction_strength, lower_is_stronger)[seed % 2]
    measure = random_measure(rng, db, cls, strength)
    fast = DecomposedEVCalculator(db, measure)
    reference = ScalarDecomposedEVCalculator(db, measure)
    for _ in range(3):
        cleaned = random_cleaned(rng, len(db))
        assert fast.expected_variance(cleaned) == pytest.approx(
            reference.expected_variance(cleaned), abs=ATOL
        )
    candidate = int(rng.integers(0, len(db)))
    cleaned = random_cleaned(rng, len(db) - 1)
    assert fast.marginal_gain(cleaned, candidate) == pytest.approx(
        reference.marginal_gain(cleaned, candidate), abs=ATOL
    )


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_decomposed_ev_opaque_strength_loop_fallback(seed):
    """A non-whitelisted strength forces the per-element loop fallback."""
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=5)

    def odd_strength(a, b):
        return (a - b) ** 3 / 10.0

    measure = random_measure(rng, db, Fragility, odd_strength)
    assert all(term.transform_batch is None for term in measure.terms)
    fast = DecomposedEVCalculator(db, measure)
    reference = ScalarDecomposedEVCalculator(db, measure)
    cleaned = random_cleaned(rng, len(db))
    # The unnormalized cubic strength inflates magnitudes to ~1e9, where a
    # pure absolute tolerance sits below accumulation-order noise; allow a
    # tight relative tolerance on top.
    assert fast.expected_variance(cleaned) == pytest.approx(
        reference.expected_variance(cleaned), rel=1e-12, abs=ATOL
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_surprise_exact_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=5)
    claim = ThresholdClaim(
        SumClaim(range(len(db))), float(rng.uniform(0.0, 30.0)), op=">"
    )
    cleaned = random_cleaned(rng, len(db))
    tau = float(rng.uniform(0.0, 1.0))
    fast = surprise_probability_exact(db, claim, cleaned, tau=tau)
    reference = surprise_probability_exact_scalar(db, claim, cleaned, tau=tau)
    assert fast == pytest.approx(reference, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_monte_carlo_ev_matches_scalar_with_fixed_seed(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=4)
    claim = LinearClaim(
        {i: float(np.round(rng.uniform(-2.0, 2.0), 3)) for i in range(len(db))}
    )
    cleaned = random_cleaned(rng, len(db) - 1)
    fast = expected_variance_monte_carlo(
        db, claim, cleaned, np.random.default_rng(seed), outer_samples=5, inner_samples=20
    )
    reference = expected_variance_monte_carlo_scalar(
        db,
        claim,
        cleaned,
        np.random.default_rng(seed),
        outer_samples=5,
        inner_samples=20,
    )
    assert fast == pytest.approx(reference, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_monte_carlo_surprise_matches_scalar_with_fixed_seed(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=4)
    claim = SumClaim(range(len(db)))
    cleaned = random_cleaned(rng, len(db))
    fast = surprise_probability_monte_carlo(
        db, claim, cleaned, np.random.default_rng(seed), tau=0.5, samples=200
    )
    reference = surprise_probability_monte_carlo_scalar(
        db,
        claim,
        cleaned,
        np.random.default_rng(seed),
        tau=0.5,
        samples=200,
    )
    assert fast == pytest.approx(reference, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_batch_matches_rowwise_evaluate(seed):
    rng = np.random.default_rng(seed)
    db = random_database(rng, n=6)
    matrix = db.sample_worlds(np.random.default_rng(seed + 1), 17)
    claims = [
        LinearClaim({i: float(np.round(rng.uniform(-2.0, 2.0), 3)) for i in range(6)}, intercept=1.5),
        ThresholdClaim(SumClaim([0, 2, 4]), 10.0, op="<="),
        random_measure(rng, db, Duplicity, lower_is_stronger),
    ]
    for claim in claims:
        batched = claim.evaluate_batch(matrix)
        rowwise = np.array([claim.evaluate(row) for row in matrix])
        np.testing.assert_allclose(batched, rowwise, atol=ATOL)


class TestDatabaseVectorCaches:
    def test_vector_views_are_cached_and_read_only(self):
        rng = np.random.default_rng(0)
        db = random_database(rng, n=5)
        assert db.current_values is db.current_values
        assert db.costs is db.costs
        with pytest.raises(ValueError):
            db.current_values[0] = 99.0
        np.testing.assert_allclose(
            db.current_values, [obj.current_value for obj in db.objects]
        )
        np.testing.assert_allclose(db.costs, [obj.cost for obj in db.objects])
        np.testing.assert_allclose(db.variances, [obj.variance for obj in db.objects])

    def test_derived_databases_get_fresh_caches(self):
        rng = np.random.default_rng(1)
        db = random_database(rng, n=5)
        shifted = db.with_current_values(np.arange(5, dtype=float))
        assert shifted is not db
        np.testing.assert_allclose(shifted.current_values, np.arange(5, dtype=float))
        cleaned = db.cleaned({0: 7.0})
        assert cleaned.current_values[0] == 7.0
        assert cleaned.variances[0] == 0.0
        sub = db.subset([2, 0])
        np.testing.assert_allclose(
            sub.current_values, [db.current_values[2], db.current_values[0]]
        )

    def test_sample_worlds_reproducible(self):
        rng = np.random.default_rng(2)
        db = random_database(rng, n=4)
        first = db.sample_worlds(np.random.default_rng(7), 25)
        second = db.sample_worlds(np.random.default_rng(7), 25)
        assert first.shape == (25, 4)
        np.testing.assert_array_equal(first, second)
