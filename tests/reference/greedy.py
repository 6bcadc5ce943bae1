"""The per-candidate Schur-complement twin of :class:`~repro.core.greedy.GreedyDep`.

:class:`ScratchGreedyDep` runs Algorithm 1 through ``greedy_select`` with one
post-cleaning variance evaluation per candidate per step — the loop the
rank-one conditioning engine replaced.  It keeps a *per-run* set cache, so
repeated runs are deterministic and a sweep never accumulates state, and
it can run CELF-style lazy re-evaluation (``lazy=True``), which is exact
when the variance-reduction gains are non-increasing in the selected set.
:attr:`ScratchGreedyDep.last_benefit_evaluations` counts the scalar
benefit evaluations of the most recent run, which is where CELF's saving
shows up.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.claims.functions import ClaimFunction
from repro.core.greedy import (
    GreedyDep,
    expected_selection_steps,
    greedy_select,
    stochastic_sample_size,
)
from repro.core.solver import SelectionStep
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase

__all__ = ["ScratchGreedyDep"]


class ScratchGreedyDep(GreedyDep):
    """:class:`GreedyDep` on the per-candidate Schur-complement loop."""

    def __init__(
        self,
        function: ClaimFunction,
        model: GaussianWorldModel,
        conditional: bool = True,
        lazy: bool = False,
        stochastic_epsilon: Optional[float] = None,
        stochastic_rng: Optional[np.random.Generator] = None,
        warm_engine=None,
    ):
        if warm_engine is not None:
            raise ValueError(
                "warm_engine applies to the conditioning-engine loop of GreedyDep"
            )
        if stochastic_epsilon is not None and lazy:
            raise ValueError("stochastic_epsilon cannot be combined with lazy evaluation")
        super().__init__(
            function,
            model,
            conditional=conditional,
            stochastic_epsilon=stochastic_epsilon,
            stochastic_rng=stochastic_rng,
        )
        self.lazy = bool(lazy)
        #: Scalar benefit evaluations spent by the most recent run (None
        #: before any run).
        self.last_benefit_evaluations: Optional[int] = None

    def _run(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        return self._run_scratch(database, budget, initial_selection, record_steps)

    def _run_scratch(
        self,
        database: UncertainDatabase,
        budget: float,
        initial_selection: Optional[Sequence[int]] = None,
        record_steps: Optional[List[SelectionStep]] = None,
    ) -> List[int]:
        """The original per-candidate Schur-complement loop (reference twin)."""
        weights = self.function.weights(len(database))
        n = len(database)
        # Per-run cache: bounded by the sets this one selection visits, so a
        # sweep no longer accumulates every frozenset it ever evaluated.
        cache: dict = {}
        evaluations = 0

        def variance_after(indices: Tuple[int, ...]) -> float:
            key = frozenset(indices)
            if key not in cache:
                if self.conditional:
                    cache[key] = self.model.post_cleaning_variance(weights, list(key))
                else:
                    remaining = [i for i in range(n) if i not in key]
                    w = weights[remaining]
                    sub = self.model.covariance[np.ix_(remaining, remaining)]
                    cache[key] = float(w @ sub @ w)
            return cache[key]

        def benefit(current: Sequence[int], index: int) -> float:
            nonlocal evaluations
            evaluations += 1
            current_tuple = tuple(current)
            return variance_after(current_tuple) - variance_after(current_tuple + (index,))

        sample_size = None
        if self.stochastic_epsilon is not None:
            sample_size = stochastic_sample_size(
                n, expected_selection_steps(database.costs, budget), self.stochastic_epsilon
            )
        selected = greedy_select(
            database,
            budget,
            benefit,
            adaptive=True,
            lazy=self.lazy,
            sample_size=sample_size,
            sample_rng=self.stochastic_rng,
            initial_selection=initial_selection,
            record_steps=record_steps,
        )
        self.last_benefit_evaluations = evaluations
        return selected
