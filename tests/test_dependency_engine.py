"""Equivalence suite for the rank-one Gaussian conditioning engine (ISSUE 4).

Three contracts are pinned here:

* **GreedyDep incremental == scratch** — the engine-backed greedy
  (one rank-one downdate + one vectorized gains pass per step) must produce
  the same selections *and the same per-step gains* (atol 1e-9) as the
  retained per-candidate Schur-complement loop, across randomized workloads
  and both ``conditional`` modes (the ISSUE-4 acceptance criterion).
* **Lazy CELF == eager** in the submodular regime (nonnegative weights over
  the decaying covariance for GreedyDep; centered errors with a small tau
  for GreedyMaxPr), with strictly fewer benefit evaluations.
* **AdaptiveDep incremental == scratch** — same cleaned sequence, same
  conditional-variance trajectory.
"""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.core.adaptive import AdaptiveDep, ground_truth_oracle, run_adaptive_trials
from repro.core.greedy import GreedyDep, GreedyMaxPr
from repro.core.solver import SelectionStep
from repro.uncertainty.correlation import GaussianWorldModel, decaying_covariance
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import NormalSpec
from repro.uncertainty.objects import UncertainObject
from reference.adaptive import ScratchAdaptiveDep
from reference.greedy import ScratchGreedyDep

N_OBJECTS = 12


def _normal_database(rng: np.random.Generator, n: int = N_OBJECTS) -> UncertainDatabase:
    return UncertainDatabase(
        [
            UncertainObject(
                name=f"v{i}",
                current_value=float(rng.uniform(20.0, 80.0)),
                distribution=NormalSpec(
                    mean=float(rng.uniform(20.0, 80.0)), std=float(rng.uniform(2.0, 9.0))
                ),
                cost=float(rng.uniform(1.0, 10.0)),
            )
            for i in range(n)
        ]
    )


def _dep_setup(seed: int, weight_low: float = -1.5):
    """Randomized normal database + linear claim + decaying-covariance model."""
    rng = np.random.default_rng(seed)
    database = _normal_database(rng)
    claim = LinearClaim(
        {i: float(rng.uniform(weight_low, 1.5)) for i in range(len(database))}
    )
    gamma = float(rng.uniform(0.0, 0.9))
    model = GaussianWorldModel(
        database.current_values, decaying_covariance(database.stds, gamma)
    )
    return database, claim, model


class TestGreedyDepIncrementalEquivalence:
    """ISSUE-4 acceptance: >= 20 seeded workloads, both conditional modes."""

    @pytest.mark.parametrize("conditional", [True, False])
    @pytest.mark.parametrize("seed", range(20))
    def test_selections_and_per_step_gains_match(self, seed, conditional):
        database, claim, model = _dep_setup(seed)
        for fraction in (0.25, 0.6):
            budget = database.total_cost * fraction
            incremental_steps: list = []
            scratch_steps: list = []
            incremental = GreedyDep(claim, model, conditional=conditional)._run(
                database, budget, record_steps=incremental_steps
            )
            scratch = ScratchGreedyDep(
                claim, model, conditional=conditional
            )._run(database, budget, record_steps=scratch_steps)
            assert incremental == scratch
            assert len(incremental_steps) == len(scratch_steps)
            for fast, slow in zip(incremental_steps, scratch_steps):
                assert fast.index == slow.index
                assert fast.gain == pytest.approx(slow.gain, abs=1e-9)

    @pytest.mark.parametrize("conditional", [True, False])
    def test_trace_slices_match_scratch_runs(self, conditional):
        """Warm-started resumes of the incremental loop stay exact read-backs."""
        database, claim, model = _dep_setup(31)
        solver = GreedyDep(claim, model, conditional=conditional)
        max_budget = database.total_cost * 0.8
        trace = solver.trace(database, max_budget)
        for fraction in (0.1, 0.3, 0.55, 0.8):
            budget = database.total_cost * fraction
            scratch = ScratchGreedyDep(
                claim, model, conditional=conditional
            ).select_indices(database, budget)
            assert trace.indices_at(budget) == scratch

    def test_incremental_runs_leave_no_counter(self):
        """The vectorized path has no scalar benefit counter to report."""
        database, claim, model = _dep_setup(2)
        solver = GreedyDep(claim, model)
        solver.select_indices(database, database.total_cost * 0.3)
        assert not hasattr(solver, "last_benefit_evaluations")

    def test_scratch_cache_is_per_run(self):
        """The unbounded per-frozenset cache is gone: repeated runs still agree
        (determinism is what the trace read-back relies on), and the solver
        object holds no cross-run cache state."""
        database, claim, model = _dep_setup(3)
        solver = ScratchGreedyDep(claim, model)
        budget = database.total_cost * 0.4
        first = solver.select_indices(database, budget)
        second = solver.select_indices(database, budget)
        assert first == second
        assert not hasattr(solver, "_caches")


class TestLazyCelf:
    """Lazy (CELF) re-evaluation is exact when marginal gains only shrink."""

    @pytest.mark.parametrize("conditional", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_dep_lazy_matches_eager(self, seed, conditional):
        # Nonnegative weights over the (elementwise nonnegative) decaying
        # covariance keep the variance-reduction gains non-increasing, the
        # regime where CELF's stale upper bounds are valid.
        database, claim, model = _dep_setup(seed, weight_low=0.2)
        for fraction in (0.3, 0.6):
            budget = database.total_cost * fraction
            eager = ScratchGreedyDep(claim, model, conditional=conditional)
            lazy = ScratchGreedyDep(claim, model, conditional=conditional, lazy=True)
            assert eager.select_indices(database, budget) == lazy.select_indices(
                database, budget
            )
            assert lazy.last_benefit_evaluations <= eager.last_benefit_evaluations

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_maxpr_lazy_matches_eager(self, seed):
        # Centered errors with tau below every single-object deviation keep
        # the probability gains non-increasing (the cumulative variance stays
        # above tau^2 / 3, where the normal cdf's sensitivity is decreasing).
        rng = np.random.default_rng(seed)
        objects = []
        for i in range(N_OBJECTS):
            mean = float(rng.uniform(20.0, 80.0))
            objects.append(
                UncertainObject(
                    name=f"v{i}",
                    current_value=mean,
                    distribution=NormalSpec(mean=mean, std=float(rng.uniform(2.0, 9.0))),
                    cost=float(rng.uniform(1.0, 10.0)),
                )
            )
        database = UncertainDatabase(objects)
        claim = LinearClaim({i: float(rng.uniform(0.5, 1.5)) for i in range(N_OBJECTS)})
        budget = database.total_cost * 0.5
        eager = GreedyMaxPr(claim, tau=1.0)
        lazy = GreedyMaxPr(claim, tau=1.0, lazy=True)
        assert eager.select_indices(database, budget) == lazy.select_indices(
            database, budget
        )
        assert lazy.last_benefit_evaluations <= eager.last_benefit_evaluations

    def test_lazy_requires_explicit_scratch_mode(self):
        # The engine scores every candidate in one vectorized pass, so there
        # are no per-candidate evaluations for CELF to skip: GreedyDep has no
        # lazy mode at all, only the scratch twin does.
        database, claim, model = _dep_setup(1)
        with pytest.raises(TypeError):
            GreedyDep(claim, model, lazy=True)

    def test_lazy_reduces_evaluations_materially(self):
        """Not just <=: on a non-trivial run CELF skips a real fraction."""
        database, claim, model = _dep_setup(7, weight_low=0.2)
        budget = database.total_cost * 0.6
        eager = ScratchGreedyDep(claim, model)
        eager.select_indices(database, budget)
        lazy = ScratchGreedyDep(claim, model, lazy=True)
        lazy.select_indices(database, budget)
        assert lazy.last_benefit_evaluations < eager.last_benefit_evaluations


class TestAdaptiveDep:
    @pytest.mark.parametrize("conditional", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_incremental_matches_scratch(self, seed, conditional):
        database, claim, model = _dep_setup(seed)
        truth = model.sample(np.random.default_rng(seed + 100))
        budget = database.total_cost * 0.4
        incremental = AdaptiveDep(claim, model, conditional=conditional).run(
            database, budget, ground_truth_oracle(truth)
        )
        scratch = ScratchAdaptiveDep(
            claim, model, conditional=conditional
        ).run(database, budget, ground_truth_oracle(truth))
        assert incremental.cleaned_indices == scratch.cleaned_indices
        assert incremental.final_objective == pytest.approx(
            scratch.final_objective, abs=1e-9
        )
        for fast, slow in zip(incremental.steps, scratch.steps):
            assert fast.revealed_value == slow.revealed_value
            assert fast.objective_before == pytest.approx(slow.objective_before, abs=1e-9)
            assert fast.objective_after == pytest.approx(slow.objective_after, abs=1e-9)

    def test_requires_linear_function(self):
        from repro.claims.functions import SumClaim, ThresholdClaim

        database, claim, model = _dep_setup(0)
        with pytest.raises(TypeError):
            AdaptiveDep(ThresholdClaim(SumClaim([0]), threshold=1.0), model)

    def test_matches_static_greedy_dep_order(self):
        """The Gaussian conditional covariance is value-independent, so the
        adaptive policy's reveal order equals the static greedy's pick order
        (GreedyDep traced without its knapsack safeguard)."""
        database, claim, model = _dep_setup(5)
        budget = database.total_cost * 0.5
        truth = model.sample(np.random.default_rng(42))
        run = AdaptiveDep(claim, model).run(database, budget, ground_truth_oracle(truth))
        steps: list = []
        GreedyDep(claim, model)._run(database, budget, record_steps=steps)
        static_order = [step.index for step in steps]
        # The adaptive policy stops at min_gain where the static greedy keeps
        # selecting zero-gain objects, so compare the common prefix.
        assert run.cleaned_indices == static_order[: len(run.cleaned_indices)]

    def test_objective_decreases_along_run(self):
        database, claim, model = _dep_setup(8)
        truth = model.sample(np.random.default_rng(1))
        run = AdaptiveDep(claim, model).run(
            database, database.total_cost * 0.6, ground_truth_oracle(truth)
        )
        assert len(run) >= 1
        for step in run.steps:
            assert step.objective_after <= step.objective_before + 1e-12

    def test_stops_early_when_nothing_helps(self):
        # Zero weights: no candidate can reduce the variance of w . X.
        rng = np.random.default_rng(4)
        database = _normal_database(rng)
        claim = LinearClaim({i: 0.0 for i in range(len(database))})
        model = GaussianWorldModel(
            database.current_values, decaying_covariance(database.stds, 0.5)
        )
        run = AdaptiveDep(claim, model).run(
            database, database.total_cost, ground_truth_oracle(database.current_values)
        )
        assert run.stopped_early
        assert run.cleaned_indices == []

    def test_trials_driver_with_model_truths(self):
        database, claim, model = _dep_setup(11)
        truths = model.sample(np.random.default_rng(7), size=5)
        result = run_adaptive_trials(
            AdaptiveDep(claim, model),
            database,
            database.total_cost * 0.3,
            trials=5,
            truths=truths,
        )
        assert result.trials == 5
        assert np.all(result.total_costs <= database.total_cost * 0.3 + 1e-9)

    def test_select_indices_shim(self):
        database, claim, model = _dep_setup(13)
        indices = AdaptiveDep(claim, model).select_indices(
            database, database.total_cost * 0.3
        )
        assert len(indices) == len(set(indices))
        assert all(0 <= i < len(database) for i in indices)
