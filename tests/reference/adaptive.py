"""Teardown twins of the adaptive policies.

Each twin rebuilds its state from scratch every step — a fresh ``cleaned()``
database and calculator, per-candidate scoring — which is what the
incremental policies in :mod:`repro.core.adaptive` replaced.  The
equivalence suites pin those policies to these loops step for step, and
the perf-regression harness times them as the slow baseline.

:class:`~repro.core.adaptive.AdaptiveMinVar` has no twin here: its teardown
loop is still the production route for ``exact``-strategy query functions,
so tests call its ``_run_scratch`` directly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.adaptive import (
    AdaptiveDep,
    AdaptiveMaxPr,
    AdaptiveRun,
    AdaptiveStep,
    RevealOracle,
)
from repro.core.surprise import make_surprise_calculator
from repro.uncertainty.database import UncertainDatabase

__all__ = ["ScratchAdaptiveMaxPr", "ScratchAdaptiveDep"]


class ScratchAdaptiveMaxPr(AdaptiveMaxPr):
    """:class:`AdaptiveMaxPr` on the original teardown loop.

    On all-discrete databases it produces the same runs as the policy.  On
    all-normal databases it loses the Lemma 3.3 closed form after the first
    reveal (the cleaned point mass makes the database mixed and forces its
    per-step calculator onto the Monte-Carlo fallback), so it is no
    reference there.
    """

    def run(
        self,
        database: UncertainDatabase,
        budget: float,
        oracle: RevealOracle,
    ) -> AdaptiveRun:
        """Execute the teardown loop (see class docs)."""
        return self._run_scratch(database, budget, oracle)

    def _run_scratch(
        self, database: UncertainDatabase, budget: float, oracle: RevealOracle
    ) -> AdaptiveRun:
        """The original teardown loop: fresh database, calculator and candidate list per step."""
        baseline = float(self.function.evaluate(database.current_values))
        target = baseline - self.tau
        working = database
        costs = database.costs
        run = AdaptiveRun()
        spent = 0.0
        cleaned: set = set()

        while True:
            current_value = float(self.function.evaluate(working.current_values))
            if current_value < target - 1e-12:
                # The revealed data already supports the counterargument.
                run.final_objective = 1.0
                run.stopped_early = True
                return run

            candidates = [
                i
                for i in range(len(database))
                if i not in cleaned and spent + costs[i] <= budget + 1e-9
            ]
            if not candidates:
                run.final_objective = 0.0
                return run

            # The surprise calculator measures drops relative to the *working*
            # database's current values, so express the original target as the
            # drop still required from the current (partially revealed) state.
            required_drop = current_value - target
            calculator = make_surprise_calculator(
                working, self.function, tau=max(required_drop, 0.0)
            )
            scores: Dict[int, float] = {i: calculator([i]) for i in candidates}
            best = max(candidates, key=lambda i: scores[i] / costs[i])
            if scores[best] <= self.min_gain:
                run.final_objective = 0.0
                run.stopped_early = True
                return run

            revealed = oracle(best)
            before = scores[best]
            working = working.cleaned({best: revealed})
            cleaned.add(best)
            spent += costs[best]
            after_value = float(self.function.evaluate(working.current_values))
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=revealed,
                    cost=float(costs[best]),
                    objective_before=before,
                    objective_after=1.0 if after_value < target - 1e-12 else 0.0,
                )
            )
            run.total_cost = spent
            run.final_objective = run.steps[-1].objective_after


class ScratchAdaptiveDep(AdaptiveDep):
    """:class:`AdaptiveDep` on the teardown loop: one Schur complement per
    candidate per step instead of one rank-one downdate."""

    def run(
        self,
        database: UncertainDatabase,
        budget: float,
        oracle: RevealOracle,
    ) -> AdaptiveRun:
        """Execute the teardown loop (see class docs)."""
        return self._run_scratch(database, budget, oracle)

    def _variance_after_scratch(self, weights: np.ndarray, cleaned: Sequence[int]) -> float:
        if self.conditional:
            return self.model.post_cleaning_variance(weights, cleaned)
        n = self.model.size
        cleaned_set = set(int(i) for i in cleaned)
        remaining = [i for i in range(n) if i not in cleaned_set]
        w = weights[remaining]
        sub = self.model.covariance[np.ix_(remaining, remaining)]
        return float(w @ sub @ w)

    def _run_scratch(
        self, database: UncertainDatabase, budget: float, oracle: RevealOracle
    ) -> AdaptiveRun:
        """Teardown loop: one Schur complement per candidate per step."""
        n = len(database)
        costs = database.costs
        weights = self.function.weights(n)
        run = AdaptiveRun()
        spent = 0.0
        cleaned: List[int] = []

        while True:
            current = self._variance_after_scratch(weights, cleaned)
            candidates = [
                i
                for i in range(n)
                if i not in cleaned and spent + costs[i] <= budget + 1e-9
            ]
            if not candidates:
                run.final_objective = current
                return run
            gains = {
                i: current - self._variance_after_scratch(weights, cleaned + [i])
                for i in candidates
            }
            best = max(candidates, key=lambda i: gains[i] / costs[i])
            if gains[best] <= self.min_gain:
                run.final_objective = current
                run.stopped_early = True
                return run

            revealed = oracle(best)
            cleaned.append(best)
            spent += costs[best]
            after = self._variance_after_scratch(weights, cleaned)
            run.steps.append(
                AdaptiveStep(
                    index=best,
                    revealed_value=float(revealed),
                    cost=float(costs[best]),
                    objective_before=current,
                    objective_after=after,
                )
            )
            run.total_cost = spent
            run.final_objective = after
