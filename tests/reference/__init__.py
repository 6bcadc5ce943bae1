"""Reference twins of the production algorithms, for tests and benchmarks only.

Every algorithm in :mod:`repro.core` and :mod:`repro.kernels` has one
production code path.  The naive implementations those paths replaced live
here, so the equivalence suites can pin each fast path to its naive twin and
the perf-regression harness can time the twin as the slow baseline:

* :mod:`reference.adaptive` — teardown twins of ``AdaptiveMaxPr`` and
  ``AdaptiveDep``;
* :mod:`reference.greedy` — the per-candidate Schur-complement
  ``GreedyDep`` loop, with CELF-lazy re-evaluation;
* :mod:`reference.expected_variance`, :mod:`reference.surprise`,
  :mod:`reference.entropy`, :mod:`reference.knapsack` — the scalar loops
  behind the batched EV, MaxPr, entropy and knapsack kernels;
* :mod:`reference.kernels` — pure-Python versions of the dispatched
  kernels and the :func:`~reference.kernels.scalar_kernels` block that
  routes the dispatch layer through them.

Nothing under ``src/`` imports this package.  pytest puts ``tests/`` on
``sys.path`` (``pythonpath`` in ``pyproject.toml``), so test modules under
both ``tests/`` and ``benchmarks/`` import it as ``reference``.
"""
