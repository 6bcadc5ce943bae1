"""Cross-tier equivalence suite for the ``repro.kernels`` dispatch layer.

Contracts pinned here:

* **Every tier computes the same thing.**  For each of the six dispatched
  kernels, randomized inputs produce matching results under the pure-Python
  reference loops (``scalar``, from ``reference.kernels``), the ``numpy``
  tier and (when a backend exists) the ``compiled`` tier — float64 within
  atol 1e-9, float32 within float32-scaled tolerances.
* **Selections never depend on the tier.**  Greedy runs over dense and
  banded engines pick identical objects under every tier.
* **The compiled tier degrades loudly, not silently.**  With no numba and
  no working C compiler, requesting ``compiled`` emits exactly one
  ``RuntimeWarning`` and then behaves as the numpy tier; an invalid
  ``REPRO_KERNEL_BACKEND`` raises instead of guessing.
* **float32 is an opt-in precision mode, not a different algorithm.**
  Engines built under ``kernel_dtype(np.float32)`` carry float32 state and
  track the float64 gains within float32 tolerance; on well-separated
  workloads the selections are identical.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.claims.functions import LinearClaim
from repro.core.greedy import GreedyDep, GreedyMinVar
from repro.kernels import compiled, dispatch
from repro.uncertainty.correlation import (
    ConditionalGaussian,
    GaussianWorldModel,
    banded_covariance,
)
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.structured import BandedCovariance
from reference.kernels import scalar_kernels

#: Implementations that can actually execute on this machine: the scalar
#: reference loops plus the production tiers.  The compiled tier is included
#: only when a backend resolved; the loud-fallback test below covers the
#: no-backend behavior either way.
AVAILABLE_TIERS = ["scalar", "numpy"] + (
    ["compiled"] if kernels.compiled_available() else []
)

#: (atol, rtol) per dtype.  float64 must agree to 1e-9 absolute (the
#: acceptance bar); float32 tolerances scale with its ~1e-7 epsilon.
TOLERANCES = {
    np.dtype(np.float64): dict(atol=1e-9, rtol=1e-9),
    np.dtype(np.float32): dict(atol=1e-4, rtol=1e-4),
}

DTYPES = [np.float64, np.float32]


def _tier_scope(tier):
    """The scalar reference loops, or a production tier, for one block."""
    return scalar_kernels() if tier == "scalar" else kernels.kernel_tier(tier)


def _per_tier(function):
    """Run a zero-argument closure once under every available tier."""
    results = {}
    for tier in AVAILABLE_TIERS:
        with _tier_scope(tier):
            results[tier] = function()
    return results


def _assert_tiers_agree(results, tolerance):
    reference = results["numpy"]
    for tier, value in results.items():
        np.testing.assert_allclose(
            value, reference, err_msg=f"tier {tier} disagrees with numpy", **tolerance
        )


class TestKernelEquivalence:
    """Randomized scalar == numpy == compiled for each dispatched kernel."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_outer_downdate(self, seed, dtype):
        rng = np.random.default_rng(seed)
        n = 24
        base = rng.standard_normal((n, n))
        matrix = np.asarray(base @ base.T + n * np.eye(n), dtype=dtype)
        pivot_index = int(rng.integers(n))
        column = matrix[:, pivot_index].copy()
        pivot = float(matrix[pivot_index, pivot_index])

        def run():
            work = matrix.copy()
            kernels.outer_downdate(work, column, pivot)
            return work

        _assert_tiers_agree(_per_tier(run), TOLERANCES[np.dtype(dtype)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_banded_downdate(self, seed, dtype):
        rng = np.random.default_rng(100 + seed)
        bandwidth, n = 5, 40
        bands = np.asarray(rng.standard_normal((bandwidth + 1, n)), dtype=dtype)
        lo = int(rng.integers(n - bandwidth))
        column = np.asarray(rng.standard_normal(bandwidth + 1), dtype=dtype)
        pivot = float(1.0 + abs(rng.standard_normal()))

        def run():
            work = bands.copy()
            kernels.banded_downdate(work, lo, column, pivot)
            return work

        _assert_tiers_agree(_per_tier(run), TOLERANCES[np.dtype(dtype)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_convolve_support(self, seed, dtype):
        # Integer-valued supports: exact in both dtypes, so the exact-equality
        # merge collapses the same duplicates under every tier.
        rng = np.random.default_rng(200 + seed)
        n, m = 17, 4
        values = np.asarray(rng.integers(0, 10, n), dtype=dtype)
        probs = rng.uniform(0.1, 1.0, n)
        probs = np.asarray(probs / probs.sum(), dtype=dtype)
        contributions = np.asarray(rng.integers(0, 6, m), dtype=dtype)
        cprobs = rng.uniform(0.1, 1.0, m)
        cprobs = np.asarray(cprobs / cprobs.sum(), dtype=dtype)

        results = _per_tier(
            lambda: kernels.convolve_support(values, probs, contributions, cprobs)
        )
        tolerance = TOLERANCES[np.dtype(dtype)]
        ref_values, ref_probs = results["numpy"]
        assert float(np.sum(ref_probs)) == pytest.approx(1.0, abs=1e-5)
        for tier, (out_values, out_probs) in results.items():
            np.testing.assert_array_equal(
                out_values, ref_values, err_msg=f"tier {tier} support mismatch"
            )
            np.testing.assert_allclose(
                out_probs, ref_probs, err_msg=f"tier {tier} pmf mismatch", **tolerance
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_normal_surprise_scores(self, seed, dtype):
        rng = np.random.default_rng(300 + seed)
        n = 33
        shifts = np.asarray(rng.standard_normal(n), dtype=dtype)
        sds = np.asarray(np.abs(rng.standard_normal(n)) + 0.05, dtype=dtype)
        sds[::4] = 0.0  # degenerate branch: indicator, not a cdf
        results = _per_tier(
            lambda: kernels.normal_surprise_scores(shifts, sds, 0.25)
        )
        _assert_tiers_agree(results, TOLERANCES[np.dtype(dtype)])
        # The degenerate entries are exact indicators under every tier.
        for tier, scores in results.items():
            degenerate = np.asarray(scores)[::4]
            assert set(np.unique(degenerate)) <= {0.0, 1.0}, tier

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_gains(self, seed, dtype):
        rng = np.random.default_rng(400 + seed)
        n = 29
        matvec = np.asarray(rng.standard_normal(n), dtype=dtype)
        diagonal = np.asarray(np.abs(rng.standard_normal(n)) + 0.01, dtype=dtype)
        floor = np.full(n, 1e-6, dtype=dtype)
        diagonal[::5] = 0.0  # at/below the floor: gain must be exactly 0
        results = _per_tier(
            lambda: kernels.conditional_gains(matvec, diagonal, floor)
        )
        _assert_tiers_agree(results, TOLERANCES[np.dtype(dtype)])
        for tier, gains in results.items():
            assert not np.any(np.asarray(gains)[::5]), tier

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_marginal_gains(self, seed, dtype):
        rng = np.random.default_rng(500 + seed)
        n = 31
        weights = np.asarray(rng.standard_normal(n), dtype=dtype)
        matvec = np.asarray(rng.standard_normal(n), dtype=dtype)
        diagonal = np.asarray(np.abs(rng.standard_normal(n)), dtype=dtype)
        cleaned = np.zeros(n, dtype=bool)
        cleaned[rng.integers(0, n, 7)] = True
        results = _per_tier(
            lambda: kernels.marginal_gains(weights, matvec, diagonal, cleaned)
        )
        _assert_tiers_agree(results, TOLERANCES[np.dtype(dtype)])
        for tier, gains in results.items():
            assert not np.any(np.asarray(gains)[cleaned]), tier


def _correlated_workload(seed: int, n: int = 12):
    rng = np.random.default_rng(seed)
    database = UncertainDatabase.from_normal_arrays(
        current_values=rng.uniform(20.0, 80.0, n),
        stds=rng.uniform(2.0, 9.0, n),
        costs=rng.uniform(1.0, 10.0, n),
    )
    claim = LinearClaim({i: float(rng.uniform(-1.5, 1.5)) for i in range(n)})
    return database, claim


class TestSelectionEquivalence:
    """The tier changes speed, never which objects get selected."""

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_dep_dense_selections_match(self, seed):
        database, claim = _correlated_workload(seed)
        sigma = banded_covariance(database.stds, bandwidth=3, rho=0.7)
        budget = database.total_cost * 0.5

        selections = {}
        for tier in AVAILABLE_TIERS:
            with _tier_scope(tier):
                model = GaussianWorldModel(database.current_values, sigma)
                solver = GreedyDep(claim, model, conditional=True)
                selections[tier] = tuple(solver.select_indices(database, budget))
        assert len(set(selections.values())) == 1, selections

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_dep_banded_selections_match(self, seed):
        database, claim = _correlated_workload(seed + 50)
        structure = BandedCovariance.from_moving_average(
            database.stds, bandwidth=3, rho=0.7
        )
        budget = database.total_cost * 0.5

        selections = {}
        for tier in AVAILABLE_TIERS:
            with _tier_scope(tier):
                model = GaussianWorldModel.from_structure(
                    database.current_values, structure
                )
                solver = GreedyDep(claim, model, conditional=True)
                selections[tier] = tuple(solver.select_indices(database, budget))
        assert len(set(selections.values())) == 1, selections

    def test_greedy_minvar_selections_match(self):
        database, claim = _correlated_workload(7)
        budget = database.total_cost * 0.4
        selections = {}
        for tier in AVAILABLE_TIERS:
            with _tier_scope(tier):
                selections[tier] = tuple(
                    GreedyMinVar(claim).select_indices(database, budget)
                )
        assert len(set(selections.values())) == 1, selections


class TestDispatchBehavior:
    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernels.set_kernel_tier("gpu")

    def test_unsupported_dtype_raises(self):
        with pytest.raises(ValueError, match="unsupported kernel dtype"):
            kernels.set_kernel_dtype(np.float16)

    def test_tier_context_restores(self):
        before = kernels.get_kernel_tier()
        with kernels.kernel_tier("numpy"):
            assert kernels.get_kernel_tier() == "numpy"
            assert kernels.effective_tier() == "numpy"
        assert kernels.get_kernel_tier() == before

    def test_dtype_context_restores(self):
        before = kernels.get_kernel_dtype()
        with kernels.kernel_dtype(np.float32):
            assert kernels.get_kernel_dtype() == np.dtype(np.float32)
        assert kernels.get_kernel_dtype() == before

    def test_environment_metadata_is_complete(self):
        metadata = kernels.environment_metadata()
        for key in ("python", "cpu_count", "numpy", "scipy", "numba"):
            assert key in metadata
        assert metadata["numpy"] == np.__version__

    def test_compiled_tier_falls_back_loudly_without_backend(self, monkeypatch):
        """No numba + no compiler: one RuntimeWarning, then numpy semantics.

        This is the no-compiled-backend CI simulation: the resolved backend
        is swapped for 'nothing available' without touching the real cache.
        """
        rng = np.random.default_rng(0)
        n = 10
        base = rng.standard_normal((n, n))
        matrix = base @ base.T + n * np.eye(n)
        column = matrix[:, 3].copy()
        pivot = float(matrix[3, 3])

        # Expectation first, before the backend is simulated away — leaving
        # this context may re-activate an ambient compiled tier (e.g. under
        # REPRO_KERNEL=compiled), which must happen with the real backend.
        with kernels.kernel_tier("numpy"):
            expected = matrix.copy()
            kernels.outer_downdate(expected, column, pivot)

        try:
            monkeypatch.setattr(compiled, "_RESOLVED", True)
            monkeypatch.setattr(compiled, "_IMPLEMENTATIONS", None)
            monkeypatch.setattr(compiled, "_BACKEND", None)
            monkeypatch.setattr(
                compiled,
                "_UNAVAILABLE_REASON",
                "simulated: numba missing; cffi missing",
            )
            monkeypatch.setattr(dispatch, "_WARNED_FALLBACK", False)

            with pytest.warns(RuntimeWarning, match="falling back to the numpy tier"):
                with kernels.kernel_tier("compiled"):
                    assert kernels.get_kernel_tier() == "compiled"
                    assert kernels.effective_tier() == "numpy"
                    assert not kernels.compiled_available()
                    work = matrix.copy()
                    kernels.outer_downdate(work, column, pivot)
            np.testing.assert_array_equal(work, expected)

            # Warn-once: re-requesting the tier stays quiet.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with kernels.kernel_tier("compiled"):
                    assert kernels.effective_tier() == "numpy"
        finally:
            # Re-activate the ambient tier against the *real* backend so the
            # simulated outage cannot leak a numpy table into later tests.
            monkeypatch.undo()
            kernels.set_kernel_tier(kernels.get_kernel_tier())

    def test_invalid_backend_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
        compiled._reset_for_tests()
        try:
            with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
                compiled.load_implementations()
        finally:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
            compiled._reset_for_tests()
            compiled.load_implementations()


class TestFloat32Mode:
    def test_engine_adopts_dtype_at_construction(self):
        rng = np.random.default_rng(11)
        n = 10
        sigma = banded_covariance(rng.uniform(1.0, 4.0, n), bandwidth=2, rho=0.5)
        with kernels.kernel_dtype(np.float32):
            engine = ConditionalGaussian(sigma)
        assert engine._sigma.dtype == np.dtype(np.float32)
        # Construction outside the context stays float64.
        assert ConditionalGaussian(sigma)._sigma.dtype == np.dtype(np.float64)

    def test_float32_gains_track_float64(self):
        rng = np.random.default_rng(21)
        n = 12
        stds = rng.uniform(2.0, 8.0, n)
        sigma = banded_covariance(stds, bandwidth=3, rho=0.6)
        weights = rng.uniform(-1.0, 1.0, n)

        wide = ConditionalGaussian(sigma)
        wide.set_weights(weights)
        with kernels.kernel_dtype(np.float32):
            narrow = ConditionalGaussian(sigma)
            narrow.set_weights(weights)

        np.testing.assert_allclose(narrow.gains(), wide.gains(), rtol=1e-3, atol=1e-3)
        for index in (2, 7, 4):
            wide.condition_on(index)
            narrow.condition_on(index)
            np.testing.assert_allclose(
                narrow.gains(), wide.gains(), rtol=1e-3, atol=1e-3
            )

    def test_float32_selections_match_on_separated_workload(self):
        # Stds spread over an order of magnitude: greedy gaps dwarf float32
        # rounding, so the precision mode cannot change the picks.
        rng = np.random.default_rng(31)
        n = 10
        database = UncertainDatabase.from_normal_arrays(
            current_values=rng.uniform(20.0, 80.0, n),
            stds=np.linspace(1.0, 12.0, n),
            costs=np.ones(n),
        )
        claim = LinearClaim({i: 1.0 for i in range(n)})
        sigma = banded_covariance(database.stds, bandwidth=2, rho=0.4)
        budget = float(n) * 0.5

        model = GaussianWorldModel(database.current_values, sigma)
        wide = tuple(
            GreedyDep(claim, model, conditional=True).select_indices(database, budget)
        )
        with kernels.kernel_dtype(np.float32):
            model32 = GaussianWorldModel(database.current_values, sigma)
            narrow = tuple(
                GreedyDep(claim, model32, conditional=True).select_indices(
                    database, budget
                )
            )
        assert narrow == wide
